package cluster

import (
	"encoding/json"
	"sync"
	"time"

	"acb/internal/service"
	"acb/internal/wal"
)

// JournalVersion is the cluster journal's format-version header line.
const JournalVersion = "acbd-cluster-journal/1"

// centry is one cluster-journal record: a submission, placement,
// completion or membership transition, appended (fsync'd) before the
// in-memory job table mutates. Op is one of submit | assign | unassign
// | done | failed | cancelled | member. Fields a record carries but this
// struct no longer has (older journals' steal counters) are ignored on
// replay.
type centry struct {
	Op      string           `json:"op"`
	ID      string           `json:"id,omitempty"`
	Key     string           `json:"key,omitempty"`
	Request *service.Request `json:"request,omitempty"`
	// Placement payload: assign records the worker, its job ID there,
	// and the post-assignment count (replay takes it verbatim — no
	// re-counting rules to drift).
	Worker   string `json:"worker,omitempty"`
	RemoteID string `json:"remote_id,omitempty"`
	Assigns  int    `json:"assigns,omitempty"`
	// Terminal payload.
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Membership payload ("member" op).
	Alive bool      `json:"alive,omitempty"`
	Time  time.Time `json:"t,omitempty"`
}

// ReplayedJob is one cluster job recovered from a journal. Jobs with no
// terminal record come back with State zero ("" → queued) plus their
// last journaled placement, so a restarted coordinator re-attaches to
// the job on that worker instead of blindly re-running it. Jobs with a
// terminal record come back with that state so clients polling their
// IDs across a coordinator restart or failover still get answers; only
// non-terminal jobs survive compaction on the next open.
type ReplayedJob struct {
	ID       string
	Key      string
	Request  service.Request
	Worker   string
	RemoteID string
	Assigns  int
	State    service.JobState // "" = still pending
	Err      string
	ErrKind  string
}

// Journal is the coordinator's write-ahead log over the cluster job
// table, built on the same internal/wal engine as the single-node job
// journal: JSONL with a version header, fsync per record,
// torn-tail-tolerant replay, compaction-on-open.
//
// On top of the file it keeps an in-memory mirror of every record since
// open, which is what GET /v1/journal:stream serves: a warm standby
// tails the mirror and holds a byte-identical replica it can promote
// from. A nil *Journal is a valid no-op (journaling disabled).
type Journal struct {
	log *wal.Log

	mu      sync.Mutex
	records []json.RawMessage
	updated chan struct{} // closed and replaced on every append
}

// OpenJournal opens (creating if needed) the cluster journal at path,
// replays existing records into ReplayedJobs in submission order, and
// compacts the file down to the non-terminal survivors (re-encoded as
// one submit plus, when placed, one assign record each). The returned
// journal is open for appending.
func OpenJournal(path string) (*Journal, []ReplayedJob, error) {
	recs, err := wal.Replay(path, JournalVersion)
	if err != nil {
		return nil, nil, err
	}
	replay := reduceClusterJournal(recs)
	var survivors []interface{}
	var mirror []json.RawMessage
	now := time.Now().UTC()
	for _, rj := range replay {
		if terminalState(rj.State) {
			continue
		}
		req := rj.Request
		es := []centry{{Op: "submit", ID: rj.ID, Key: rj.Key, Request: &req, Time: now}}
		if rj.Worker != "" {
			es = append(es, centry{Op: "assign", ID: rj.ID, Worker: rj.Worker,
				RemoteID: rj.RemoteID, Assigns: rj.Assigns, Time: now})
		}
		for _, e := range es {
			b, err := json.Marshal(e)
			if err != nil {
				return nil, nil, err
			}
			survivors = append(survivors, json.RawMessage(b))
			mirror = append(mirror, b)
		}
	}
	log, err := wal.Create(path, JournalVersion, survivors)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log, records: mirror, updated: make(chan struct{})}, replay, nil
}

// reduceClusterJournal folds raw records into per-job replay state:
// last placement wins, a terminal record freezes the job.
func reduceClusterJournal(recs []json.RawMessage) []ReplayedJob {
	acc := make(map[string]*ReplayedJob)
	var order []string
	for _, b := range recs {
		var e centry
		if err := json.Unmarshal(b, &e); err != nil {
			break // record from a future vocabulary: stop, like a torn tail
		}
		switch e.Op {
		case "submit":
			if e.Request == nil || e.ID == "" {
				continue
			}
			acc[e.ID] = &ReplayedJob{ID: e.ID, Key: e.Key, Request: *e.Request}
			order = append(order, e.ID)
		case "assign":
			if a := acc[e.ID]; a != nil && !terminalState(a.State) {
				a.Worker, a.RemoteID = e.Worker, e.RemoteID
				a.Assigns = e.Assigns
			}
		case "unassign":
			if a := acc[e.ID]; a != nil && !terminalState(a.State) {
				a.Worker, a.RemoteID = "", ""
			}
		case "done", "failed", "cancelled":
			if a := acc[e.ID]; a != nil {
				a.State = service.JobState(e.Op)
				a.Err, a.ErrKind = e.Err, e.ErrKind
			}
		case "member":
			// Membership is re-probed from scratch on restart; the records
			// exist for the stream and the audit trail, not for replay.
		}
	}
	out := make([]ReplayedJob, 0, len(order))
	for _, id := range order {
		out = append(out, *acc[id])
	}
	return out
}

// SetFaults installs the fault-injection hook fired as "cjournal.append"
// before every record; chaos tests only.
func (j *Journal) SetFaults(f wal.FaultPoints) {
	if j == nil {
		return
	}
	j.log.SetFaults(f, "cjournal")
}

// append writes one record to disk and to the in-memory mirror. The
// mirror (and so the standby's stream) is updated even when the disk
// append fails — the coordinator treats journal errors as durability
// loss, not divergence, and the standby must stay consistent with the
// primary's live state.
func (j *Journal) append(e centry) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	werr := j.log.Append(json.RawMessage(b))
	j.mu.Lock()
	j.records = append(j.records, b)
	close(j.updated)
	j.updated = make(chan struct{})
	j.mu.Unlock()
	return werr
}

// Submit records a job's acceptance into the cluster table.
func (j *Journal) Submit(id, key string, req service.Request) error {
	if j == nil {
		return nil
	}
	return j.append(centry{Op: "submit", ID: id, Key: key, Request: &req, Time: time.Now().UTC()})
}

// Assign records a placement: job id lives on worker as remoteID, after
// assigns posts to workers in total.
func (j *Journal) Assign(id, worker, remoteID string, assigns int) error {
	if j == nil {
		return nil
	}
	return j.append(centry{Op: "assign", ID: id, Worker: worker, RemoteID: remoteID, Assigns: assigns})
}

// Unassign records a job returned to the queue (worker death, a job or
// result the worker lost, an out-of-band cancel).
func (j *Journal) Unassign(id string) error {
	if j == nil {
		return nil
	}
	return j.append(centry{Op: "unassign", ID: id})
}

// Terminal records a job reaching done, failed or cancelled. Replay
// freezes such jobs, so a restart never re-runs the work.
func (j *Journal) Terminal(id string, state service.JobState, errMsg, errKind string) error {
	if j == nil {
		return nil
	}
	return j.append(centry{Op: string(state), ID: id, Err: errMsg, ErrKind: errKind, Time: time.Now().UTC()})
}

// Member records a worker liveness transition.
func (j *Journal) Member(name string, alive bool) error {
	if j == nil {
		return nil
	}
	return j.append(centry{Op: "member", Worker: name, Alive: alive, Time: time.Now().UTC()})
}

// Snapshot returns the records appended at or after offset from, the
// next offset, and a channel closed on the next append — everything a
// stream needs to replay and then tail the journal. A nil journal
// snapshots empty with a never-closing channel.
func (j *Journal) Snapshot(from int) ([]json.RawMessage, int, <-chan struct{}) {
	if j == nil {
		return nil, 0, make(chan struct{})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(j.records) {
		from = len(j.records)
	}
	recs := j.records[from:len(j.records):len(j.records)]
	return recs, len(j.records), j.updated
}

// Close stops the journal; later appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.log.Path()
}
