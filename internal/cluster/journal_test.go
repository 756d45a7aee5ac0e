package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acb/internal/service"
	"acb/internal/wal"
)

// TestClusterJournalRoundTrip: submit/assign/unassign/terminal records
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
	j.Submit("c1", mustKey(t, reqs[0]), reqs[0])
	j.Assign("c1", "w1", "j1", 1)
	j.Terminal("c1", service.JobDone, "", "")
	j.Submit("c2", mustKey(t, reqs[1]), reqs[1])
	j.Assign("c2", "w1", "j2", 1)
	j.Unassign("c2")
	j.Assign("c2", "w2", "j9", 2)
	j.Submit("c3", mustKey(t, reqs[2]), reqs[2])
	j.Assign("c3", "w1", "j3", 1)
	j.Unassign("c3")
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
	byID := make(map[string]ReplayedJob, len(replay))
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
	if rj.State != "" || rj.Worker != "w2" || rj.RemoteID != "j9" || rj.Assigns != 2 {
		t.Errorf("c2 replay = %+v, want pending on w2/j9 assigns=2", rj)
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
	j.Submit("c1", mustKey(t, reqs[0]), reqs[0])
	j.Assign("c1", "w1", "j1", 1)
	j.Terminal("c1", service.JobDone, "", "")
	j.Submit("c2", mustKey(t, reqs[1]), reqs[1])
	for i := 0; i < 5; i++ { // churn that compaction should squash
		j.Assign("c2", "w1", "j2", i+1)
		j.Unassign("c2")
	}
	j.Assign("c2", "w2", "jF", 7)
	j.Close()

	j2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(replay) != 2 {
		t.Fatalf("first reopen replayed %d jobs, want 2", len(replay))
	}

	// The compacted file holds exactly submit+assign for c2 and nothing
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
	if lines != 3 { // version header + submit + assign
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
	if rj := replay[0]; rj.Worker != "w2" || rj.RemoteID != "jF" || rj.Assigns != 7 {
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
	j.Submit("c1", mustKey(t, reqs[0]), reqs[0])
	j.Submit("c2", mustKey(t, reqs[1]), reqs[1])
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
	j.Submit("c1", mustKey(t, req), req)

	recs, next, updated := j.Snapshot(0)
	if len(recs) != 1 || next != 1 {
		t.Fatalf("snapshot(0) = %d records next=%d, want 1/1", len(recs), next)
	}
	select {
	case <-updated:
		t.Fatal("updated channel closed before any append")
	default:
	}
	go j.Assign("c1", "w1", "j1", 1)
	select {
	case <-updated:
	case <-time.After(5 * time.Second):
		t.Fatal("append never signalled the stream")
	}
	recs, next, _ = j.Snapshot(next)
	if len(recs) != 1 || next != 2 {
		t.Fatalf("incremental snapshot = %d records next=%d, want 1/2", len(recs), next)
	}
	if !strings.Contains(string(recs[0]), `"assign"`) {
		t.Errorf("incremental record = %s, want the assign", recs[0])
	}
}

// TestClusterJournalReplaysStealFields: journals written while the
// coordinator still stole work carry stolen/steal fields on assign
// records. Replay ignores them and keeps the placement.
func TestClusterJournalReplaysStealFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.journal")
	req := tableReqs(1)[0]
	sub, err := json.Marshal(centry{Op: "submit", ID: "c1", Key: mustKey(t, req), Request: &req})
	if err != nil {
		t.Fatal(err)
	}
	old := `{"op":"assign","id":"c1","worker":"w2","remote_id":"j9","assigns":2,"stolen":1,"steal":true}`
	l, err := wal.Create(path, JournalVersion, []interface{}{json.RawMessage(sub), json.RawMessage(old)})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	j, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(replay) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(replay))
	}
	if rj := replay[0]; rj.State != "" || rj.Worker != "w2" || rj.RemoteID != "j9" || rj.Assigns != 2 {
		t.Errorf("c1 replay = %+v, want pending on w2/j9 assigns=2", rj)
	}
}
