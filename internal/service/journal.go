package service

import (
	"encoding/json"
	"sync"
	"time"

	"acb/internal/wal"
)

// JournalVersion is the first line of every journal this build writes.
// Bump it when entry semantics change: a journal under an unknown header
// refuses to replay instead of silently resurrecting jobs under
// different rules.
const JournalVersion = "acbd-journal/2"

// ErrJournalVersion reports a journal written under a header this build
// does not replay. It is the shared wal engine's version error: the
// journal is a thin client over internal/wal, which owns the file
// format, fsync discipline, torn-tail replay and compaction.
var ErrJournalVersion = wal.ErrVersion

// ReadJournal returns the raw records of the journal at path, in append
// order. Besides JournalVersion it accepts the two headers it replaced:
// a node's "acbd-journal/1" and a coordinator's "acbd-cluster-journal/1".
// ReduceJournal reads all three vocabularies.
func ReadJournal(path string) ([]json.RawMessage, error) {
	return wal.Replay(path, JournalVersion, "acbd-journal/1", "acbd-cluster-journal/1")
}

// Journal is the job table's write-ahead log, one for every acbd role:
// an append-only JSONL file, fsync'd per record, holding each job's
// transitions. On open the existing file is replayed and compacted down
// to the jobs still pending, so it never grows across restarts.
//
// Append-path durability is deliberate: a submission is acknowledged
// only after its record is on disk, which is what makes "a 201 response
// means the job survives kill -9" true.
//
// From its first Snapshot on, the journal also mirrors its records in
// memory for GET /v1/journal:stream, which a warm standby tails. A nil
// *Journal is a valid no-op (journaling disabled).
type Journal struct {
	log *wal.Log

	mu      sync.Mutex
	mirror  bool              // Snapshot has been called: keep records
	records []json.RawMessage // the file's records, once mirroring
	updated chan struct{}     // closed and replaced on every mirrored append
}

// journalEntry is one record. Op is submit | start | requeue | done |
// failed | cancelled | member:
//
//	submit     key, request, attempt (0, or the attempts a compacted job has used)
//	start      attempt; worker and remote_id when a post placed the job
//	requeue    attempt, cause
//	done...    err, err_kind
//	member     worker, alive
//
// Older journals also hold assign (a placed start, counted in assigns)
// and unassign (a requeue); their stolen/steal fields are ignored.
type journalEntry struct {
	Op       string   `json:"op"`
	ID       string   `json:"id,omitempty"`
	Key      string   `json:"key,omitempty"`
	Request  *Request `json:"request,omitempty"`
	Attempt  int      `json:"attempt,omitempty"`
	Worker   string   `json:"worker,omitempty"`
	RemoteID string   `json:"remote_id,omitempty"`
	Cause    string   `json:"cause,omitempty"`
	Err      string   `json:"err,omitempty"`
	ErrKind  string   `json:"err_kind,omitempty"`
	Alive    bool     `json:"alive,omitempty"`
	// Assigns is Attempt on an acbd-cluster-journal/1 assign record.
	Assigns int       `json:"assigns,omitempty"`
	Time    time.Time `json:"t"`
}

// ReplayJob is one job recovered from a journal.
type ReplayJob struct {
	ID      string
	Key     string
	Request Request
	// Attempt counts the runs begun and posts landed so far, including
	// a run the crash interrupted.
	Attempt int
	// Interrupted marks a job that was running on this node: its
	// in-flight run counts as an attempt.
	Interrupted bool
	// Worker and RemoteID are a coordinator's last placement of the job,
	// where a restarted coordinator re-attaches instead of re-running.
	Worker   string
	RemoteID string
	// State is "" for a pending job, else the terminal state, with Err
	// and ErrKind as recorded.
	State   JobState
	Err     string
	ErrKind string
}

// OpenJournal opens (creating if needed) the journal at path, replays
// its records into every job in submission order — terminal ones with
// their state, so status queries survive a restart — and compacts the
// file to the pending jobs: one submit each, plus one start when the
// job is placed. The returned journal is open for appending.
//
// A torn final line — the tail of an append cut off by the crash the
// journal exists to survive — ends replay silently; everything before it
// is intact because each record was fsync'd before the next began.
func OpenJournal(path string) (*Journal, []ReplayJob, error) {
	recs, err := ReadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	jobs := ReduceJournal(recs)
	// An interrupted job's in-flight run is already folded into Attempt,
	// so its bare submit record does not bump it again on the next replay.
	var pending []interface{}
	now := time.Now().UTC()
	for _, rj := range jobs {
		if rj.State != "" {
			continue
		}
		req := rj.Request
		pending = append(pending, journalEntry{Op: "submit", ID: rj.ID, Key: rj.Key, Request: &req,
			Attempt: rj.Attempt, Time: now})
		if rj.Worker != "" {
			pending = append(pending, journalEntry{Op: "start", ID: rj.ID, Attempt: rj.Attempt,
				Worker: rj.Worker, RemoteID: rj.RemoteID, Time: now})
		}
	}
	log, err := wal.Create(path, JournalVersion, pending)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, jobs, nil
}

// ReduceJournal folds raw records of any accepted version into per-job
// replay state, in submission order: the last placement wins, and a
// terminal record freezes the job.
func ReduceJournal(recs []json.RawMessage) []ReplayJob {
	byID := make(map[string]*ReplayJob)
	var order []string
	for _, b := range recs {
		var e journalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			break // record from a future vocabulary: stop, like a torn tail
		}
		rj := byID[e.ID]
		if e.Op == "submit" {
			if e.Request == nil || e.ID == "" {
				continue
			}
			if rj == nil {
				order = append(order, e.ID)
			}
			byID[e.ID] = &ReplayJob{ID: e.ID, Key: e.Key, Request: *e.Request, Attempt: e.Attempt}
			continue
		}
		if rj == nil || rj.State != "" {
			continue // unknown or frozen job, or a member record
		}
		switch e.Op {
		case "start", "assign":
			n := e.Attempt + e.Assigns // at most one is set
			if n == 0 {
				n = rj.Attempt + 1 // acbd-journal/1: a start carries no count
			}
			rj.Attempt = n
			rj.Worker, rj.RemoteID = e.Worker, e.RemoteID
			rj.Interrupted = e.Worker == ""
		case "requeue", "unassign":
			if e.Attempt > 0 {
				rj.Attempt = e.Attempt
			}
			rj.Worker, rj.RemoteID = "", ""
			rj.Interrupted = false
		case "done", "failed", "cancelled":
			rj.State, rj.Interrupted = JobState(e.Op), false
			rj.Err, rj.ErrKind = e.Err, e.ErrKind
		}
	}
	out := make([]ReplayJob, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// SetFaults installs the fault-injection hook fired as "journal.append"
// before every record; chaos tests only.
func (j *Journal) SetFaults(f FaultPoints) {
	if j == nil {
		return
	}
	j.log.SetFaults(f, "journal")
}

// append writes one record, stamped with the time, to disk and — once
// mirroring — to the mirror. The mirror takes the record even when the
// disk append fails: a failing journal loses durability, and the standby
// must still see what the primary's table did.
func (j *Journal) append(e journalEntry) error {
	if j == nil {
		return nil
	}
	e.Time = time.Now().UTC()
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	werr := j.log.Append(json.RawMessage(b))
	if j.mirror {
		j.records = append(j.records, b)
		close(j.updated)
		j.updated = make(chan struct{})
	}
	return werr
}

// Submit records a job's acceptance; attempt is the attempts it has
// already used (0 for a fresh submission).
func (j *Journal) Submit(id, key string, req Request, attempt int) error {
	return j.append(journalEntry{Op: "submit", ID: id, Key: key, Request: &req, Attempt: attempt})
}

// Start records attempt number attempt of a job: a run begun here
// (worker "") or a post that placed it on worker as remoteID.
func (j *Journal) Start(id string, attempt int, worker, remoteID string) error {
	return j.append(journalEntry{Op: "start", ID: id, Attempt: attempt, Worker: worker, RemoteID: remoteID})
}

// Requeue records a job put back on the queue after attempt, and why.
func (j *Journal) Requeue(id string, attempt int, cause string) error {
	return j.append(journalEntry{Op: "requeue", ID: id, Attempt: attempt, Cause: cause})
}

// Terminal records a job reaching done, failed or cancelled. Replay
// freezes such jobs, so a restart never re-runs the work.
func (j *Journal) Terminal(id string, state JobState, errMsg, errKind string) error {
	return j.append(journalEntry{Op: string(state), ID: id, Err: errMsg, ErrKind: errKind})
}

// Member records a worker liveness transition.
func (j *Journal) Member(name string, alive bool) error {
	return j.append(journalEntry{Op: "member", Worker: name, Alive: alive})
}

// Snapshot returns the records at or after offset from, the next offset,
// and a channel closed on the next append — everything a stream needs
// to replay and then tail the journal. The first call starts the
// in-memory mirror from the file. A nil journal snapshots empty with a
// never-closing channel.
func (j *Journal) Snapshot(from int) ([]json.RawMessage, int, <-chan struct{}) {
	if j == nil {
		return nil, 0, make(chan struct{})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.mirror {
		// Appends hold j.mu, so the file holds exactly the records so far.
		j.records, _ = wal.Replay(j.log.Path(), JournalVersion)
		j.mirror = true
		j.updated = make(chan struct{})
	}
	from = max(0, min(from, len(j.records)))
	return j.records[from:len(j.records):len(j.records)], len(j.records), j.updated
}

// Close stops the journal; later appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
