package service

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

// TestJournalRoundTrip: replay re-surfaces every job in submission
// order — queued jobs as-is, started jobs as interrupted with their
// in-flight run counted, terminal jobs with their state; compaction
// shrinks the file to the pending jobs; a second replay does not bump
// attempts again.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(pending))
	}

	req := func(seed int64) Request { return Request{Experiment: "table1", Seed: seed} }
	// j1: running at crash. j2: still queued. j3: finished. j4: failed
	// once, requeued, waiting for its retry. j5: requeued then running
	// again. j6: cancelled while queued.
	for _, step := range []func() error{
		func() error { return j.Submit("j000001", testKey(0), req(1), 0) },
		func() error { return j.Submit("j000002", testKey(1), req(2), 0) },
		func() error { return j.Start("j000001", 1, "", "") },
		func() error { return j.Submit("j000003", testKey(2), req(3), 0) },
		func() error { return j.Start("j000003", 1, "", "") },
		func() error { return j.Terminal("j000003", JobDone, "", "") },
		func() error { return j.Submit("j000004", testKey(3), req(4), 0) },
		func() error { return j.Start("j000004", 1, "", "") },
		func() error { return j.Requeue("j000004", 1, "retried") },
		func() error { return j.Submit("j000005", testKey(4), req(5), 0) },
		func() error { return j.Start("j000005", 1, "", "") },
		func() error { return j.Requeue("j000005", 1, "retried") },
		func() error { return j.Start("j000005", 2, "", "") },
		func() error { return j.Submit("j000006", testKey(5), req(6), 0) },
		func() error { return j.Terminal("j000006", JobCancelled, "cancelled while queued", "") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []ReplayJob{
		{ID: "j000001", Key: testKey(0), Request: req(1), Attempt: 1, Interrupted: true},
		{ID: "j000002", Key: testKey(1), Request: req(2), Attempt: 0},
		{ID: "j000003", Key: testKey(2), Request: req(3), Attempt: 1, State: JobDone},
		{ID: "j000004", Key: testKey(3), Request: req(4), Attempt: 1},
		{ID: "j000005", Key: testKey(4), Request: req(5), Attempt: 2, Interrupted: true},
		{ID: "j000006", Key: testKey(5), Request: req(6), Attempt: 0, State: JobCancelled,
			Err: "cancelled while queued"},
	}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d jobs %+v, want %d", len(replayed), replayed, len(want))
	}
	pendingJobs := 0
	for i, w := range want {
		got := replayed[i]
		if got.ID != w.ID || got.Key != w.Key || got.Attempt != w.Attempt || got.State != w.State ||
			got.Err != w.Err || got.Interrupted != w.Interrupted || got.Request.Seed != w.Request.Seed {
			t.Errorf("replayed[%d] = %+v, want %+v", i, got, w)
		}
		if w.State == "" {
			pendingJobs++
		}
	}

	// Compaction: header + one submit line per pending job.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 1+pendingJobs {
		t.Fatalf("compacted journal has %d lines:\n%s", lines, b)
	}

	// Replaying the compacted journal again must not double-bump
	// attempts of previously interrupted jobs (they carry no start
	// record after compaction).
	_, again, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != pendingJobs {
		t.Fatalf("second replay returned %d jobs", len(again))
	}
	if again[0].Attempt != 1 || again[0].Interrupted {
		t.Fatalf("second replay re-bumped j000001: %+v", again[0])
	}
	if again[3].Attempt != 2 {
		t.Fatalf("second replay changed j000005 attempts: %+v", again[3])
	}
}

// TestJournalReplaysOldVocabularies: journals written before every role
// shared one vocabulary still replay. A node's acbd-journal/1 counts an
// interrupted run on a start with no attempt; a coordinator's
// acbd-cluster-journal/1 places jobs with assign (last one wins, its
// stolen/steal fields ignored) and unplaces them with unassign. Reopening
// compacts either into the current vocabulary, and a second reopen
// returns the same pending jobs.
func TestJournalReplaysOldVocabularies(t *testing.T) {
	type pending struct {
		id             string
		attempt        int
		interrupted    bool
		worker, remote string
	}
	for _, tc := range []struct {
		name    string
		file    string
		want    []ReplayJob // every job, as first replayed
		pending []pending   // what a second reopen returns
	}{
		{
			name: "node",
			file: `{"version":"acbd-journal/1"}
{"op":"submit","id":"j000001","key":"` + testKey(0) + `","request":{"experiment":"table1","seed":1},"t":"2026-01-01T00:00:00Z"}
{"op":"submit","id":"j000002","key":"` + testKey(1) + `","request":{"experiment":"table1","seed":2},"t":"2026-01-01T00:00:00Z"}
{"op":"start","id":"j000001","t":"0001-01-01T00:00:00Z"}
{"op":"requeue","id":"j000001","attempt":1,"t":"0001-01-01T00:00:00Z"}
{"op":"start","id":"j000001","t":"0001-01-01T00:00:00Z"}
{"op":"submit","id":"j000003","key":"` + testKey(2) + `","request":{"experiment":"table1","seed":3},"t":"2026-01-01T00:00:00Z"}
{"op":"start","id":"j000003","t":"0001-01-01T00:00:00Z"}
{"op":"done","id":"j000003","t":"2026-01-01T00:00:01Z"}
`,
			want: []ReplayJob{
				{ID: "j000001", Key: testKey(0), Attempt: 2, Interrupted: true},
				{ID: "j000002", Key: testKey(1), Attempt: 0},
				{ID: "j000003", Key: testKey(2), Attempt: 1, State: JobDone},
			},
			pending: []pending{{id: "j000001", attempt: 2}, {id: "j000002"}},
		},
		{
			name: "cluster",
			file: `{"version":"acbd-cluster-journal/1"}
{"op":"submit","id":"c000001","key":"` + testKey(0) + `","request":{"experiment":"table1","seed":1},"t":"2026-01-01T00:00:00Z"}
{"op":"assign","id":"c000001","worker":"w1","remote_id":"j000001","assigns":1,"t":"0001-01-01T00:00:00Z"}
{"op":"member","worker":"w1","t":"2026-01-01T00:00:01Z"}
{"op":"unassign","id":"c000001","t":"0001-01-01T00:00:00Z"}
{"op":"assign","id":"c000001","worker":"w2","remote_id":"j000009","assigns":2,"stolen":1,"steal":true,"t":"0001-01-01T00:00:00Z"}
{"op":"submit","id":"c000002","key":"` + testKey(1) + `","request":{"experiment":"table1","seed":2},"t":"2026-01-01T00:00:00Z"}
{"op":"assign","id":"c000002","worker":"w2","remote_id":"j000010","assigns":1,"t":"0001-01-01T00:00:00Z"}
{"op":"done","id":"c000002","t":"2026-01-01T00:00:02Z"}
{"op":"submit","id":"c000003","key":"` + testKey(2) + `","request":{"experiment":"table1","seed":3},"t":"2026-01-01T00:00:00Z"}
`,
			want: []ReplayJob{
				{ID: "c000001", Key: testKey(0), Attempt: 2, Worker: "w2", RemoteID: "j000009"},
				{ID: "c000002", Key: testKey(1), Attempt: 1, Worker: "w2", RemoteID: "j000010", State: JobDone},
				{ID: "c000003", Key: testKey(2), Attempt: 0},
			},
			pending: []pending{{id: "c000001", attempt: 2, worker: "w2", remote: "j000009"}, {id: "c000003"}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			j, replay, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			if len(replay) != len(tc.want) {
				t.Fatalf("replayed %d jobs %+v, want %d", len(replay), replay, len(tc.want))
			}
			for i, w := range tc.want {
				got := replay[i]
				if got.ID != w.ID || got.Key != w.Key || got.Attempt != w.Attempt || got.Interrupted != w.Interrupted ||
					got.Worker != w.Worker || got.RemoteID != w.RemoteID || got.State != w.State ||
					got.Request.Seed != int64(i+1) {
					t.Errorf("replay[%d] = %+v, want %+v", i, got, w)
				}
			}

			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			compacted := string(b)
			if !strings.HasPrefix(compacted, `{"version":"`+JournalVersion+`"}`) {
				t.Errorf("compacted journal keeps an old header:\n%s", compacted)
			}
			for _, old := range []string{`"assign"`, `"unassign"`, `"assigns"`, `"steal"`, `"member"`, `"done"`} {
				if strings.Contains(compacted, old) {
					t.Errorf("compacted journal still holds %s:\n%s", old, compacted)
				}
			}

			j, again, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			if len(again) != len(tc.pending) {
				t.Fatalf("second reopen replayed %+v, want %d pending jobs", again, len(tc.pending))
			}
			for i, w := range tc.pending {
				got := again[i]
				if got.ID != w.id || got.Attempt != w.attempt || got.Interrupted != w.interrupted ||
					got.Worker != w.worker || got.RemoteID != w.remote || got.State != "" {
					t.Errorf("second reopen [%d] = %+v, want %+v", i, got, w)
				}
			}
		})
	}
}

// TestJournalTornTail: a partial final line — the write a crash cut off —
// ends replay cleanly instead of failing it; every fsync'd record before
// the tear is recovered.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("j000001", testKey(0), Request{Experiment: "table1"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("j000002", testKey(1), Request{Experiment: "table1", Seed: 2}, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"j0000`); err != nil { // torn mid-record
		t.Fatal(err)
	}
	f.Close()

	_, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("torn-tail replay recovered %d jobs, want 2: %+v", len(pending), pending)
	}
}

// TestJournalVersionMismatch: a journal from another format version
// refuses to replay rather than resurrecting jobs under different rules.
func TestJournalVersionMismatch(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(`{"version":"acbd-journal/0"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("err = %v, want ErrJournalVersion", err)
	}

	// A malformed header is also refused, not silently emptied.
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("malformed header accepted")
	}
}

// TestJournalClosedAppend: appends after Close fail loudly (the
// scheduler counts them) instead of writing to a dead descriptor.
func TestJournalClosedAppend(t *testing.T) {
	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Submit("j000001", testKey(0), Request{Experiment: "table1"}, 0); err == nil {
		t.Fatal("append after Close succeeded")
	}
	// A nil journal is a silent no-op everywhere.
	var nj *Journal
	if err := nj.Submit("x", "", Request{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := nj.Close(); err != nil {
		t.Fatal(err)
	}
}
