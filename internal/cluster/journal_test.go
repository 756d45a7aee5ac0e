package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acb/internal/service"
)

// TestClusterJournalRoundTrip: submit/start/requeue/terminal records
// survive a close-and-reopen with last-placement-wins semantics, and
// terminal jobs come back frozen so replay never re-runs them.
func TestClusterJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.journal")
	j, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replay))
	}
	reqs := tableReqs(3)
	// c1: placed then finished. c2: placed, requeued, placed on another
	// worker. c3: placed then unassigned (its worker died).
	j.Submit("c1", mustKey(t, reqs[0]), reqs[0], 0)
	j.Start("c1", 1, "w1", "j1")
	j.Terminal("c1", service.JobDone, "", "")
	j.Submit("c2", mustKey(t, reqs[1]), reqs[1], 0)
	j.Start("c2", 1, "w1", "j2")
	j.Requeue("c2", 1, "rehashed")
	j.Start("c2", 2, "w2", "j9")
	j.Submit("c3", mustKey(t, reqs[2]), reqs[2], 0)
	j.Start("c3", 1, "w1", "j3")
	j.Requeue("c3", 1, "rehashed")
	j.Member("w1", false)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replay) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(replay))
	}
	byID := make(map[string]service.ReplayJob, len(replay))
	for i, rj := range replay {
		byID[rj.ID] = rj
		if want := []string{"c1", "c2", "c3"}[i]; rj.ID != want {
			t.Errorf("replay order: position %d is %s, want %s", i, rj.ID, want)
		}
	}
	if rj := byID["c1"]; rj.State != service.JobDone {
		t.Errorf("c1 state %q, want done", rj.State)
	}
	rj := byID["c2"]
	if rj.State != "" || rj.Worker != "w2" || rj.RemoteID != "j9" || rj.Attempt != 2 {
		t.Errorf("c2 replay = %+v, want pending on w2/j9 attempt=2", rj)
	}
	if rj := byID["c3"]; rj.State != "" || rj.Worker != "" || rj.RemoteID != "" {
		t.Errorf("c3 replay = %+v, want pending and unplaced", rj)
	}
	if byID["c2"].Request.Seed != reqs[1].Seed {
		t.Errorf("c2 request not preserved: %+v", byID["c2"].Request)
	}
}

// TestClusterJournalCompaction: reopening drops terminal jobs from the
// file (they are returned once for status continuity, then gone) and
// keeps only one submit plus one placement per survivor.
func TestClusterJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	reqs := tableReqs(2)
	j.Submit("c1", mustKey(t, reqs[0]), reqs[0], 0)
	j.Start("c1", 1, "w1", "j1")
	j.Terminal("c1", service.JobDone, "", "")
	j.Submit("c2", mustKey(t, reqs[1]), reqs[1], 0)
	for i := 0; i < 5; i++ { // churn that compaction should squash
		j.Start("c2", i+1, "w1", "j2")
		j.Requeue("c2", i+1, "rehashed")
	}
	j.Start("c2", 7, "w2", "jF")
	j.Close()

	j2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(replay) != 2 {
		t.Fatalf("first reopen replayed %d jobs, want 2", len(replay))
	}

	// The compacted file holds exactly submit+start for c2 and nothing
	// about c1.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content := string(b)
	if strings.Contains(content, `"c1"`) {
		t.Errorf("terminal job c1 survived compaction:\n%s", content)
	}
	lines := 0
	for _, ln := range strings.Split(strings.TrimSpace(content), "\n") {
		if ln != "" {
			lines++
		}
	}
	if lines != 3 { // version header + submit + start
		t.Errorf("compacted file has %d lines, want 3:\n%s", lines, content)
	}

	// Second reopen: c1 is gone for good, c2 keeps its last placement.
	j3, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(replay) != 1 || replay[0].ID != "c2" {
		t.Fatalf("second reopen replay = %+v, want just c2", replay)
	}
	if rj := replay[0]; rj.Worker != "w2" || rj.RemoteID != "jF" || rj.Attempt != 7 {
		t.Errorf("c2 placement lost in compaction: %+v", rj)
	}
}

// TestClusterJournalTornTail: a partial last line — the crash landing
// mid-append — is dropped on replay; every complete record before it
// survives.
func TestClusterJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	reqs := tableReqs(2)
	j.Submit("c1", mustKey(t, reqs[0]), reqs[0], 0)
	j.Submit("c2", mustKey(t, reqs[1]), reqs[1], 0)
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"c2","tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail broke replay: %v", err)
	}
	j2.Close()
	if len(replay) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(replay))
	}
	if replay[1].ID != "c2" || replay[1].State != "" {
		t.Errorf("torn terminal record applied: c2 = %+v, want still pending", replay[1])
	}
}

// TestClusterJournalSnapshot: the in-memory mirror that backs
// /v1/journal:stream replays from any offset and signals appends.
func TestClusterJournalSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	req := tableReqs(1)[0]
	j.Submit("c1", mustKey(t, req), req, 0)

	recs, next, updated := j.Snapshot(0)
	if len(recs) != 1 || next != 1 {
		t.Fatalf("snapshot(0) = %d records next=%d, want 1/1", len(recs), next)
	}
	select {
	case <-updated:
		t.Fatal("updated channel closed before any append")
	default:
	}
	go j.Start("c1", 1, "w1", "j1")
	select {
	case <-updated:
	case <-time.After(5 * time.Second):
		t.Fatal("append never signalled the stream")
	}
	recs, next, _ = j.Snapshot(next)
	if len(recs) != 1 || next != 2 {
		t.Fatalf("incremental snapshot = %d records next=%d, want 1/2", len(recs), next)
	}
	if !strings.Contains(string(recs[0]), `"op":"start"`) {
		t.Errorf("incremental record = %s, want the start", recs[0])
	}
}
