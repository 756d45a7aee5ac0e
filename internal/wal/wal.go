// Package wal is the shared write-ahead-log engine behind every acbd
// journal: an append-only JSONL file with a version-header first line,
// one fsync per appended record, torn-tail-tolerant replay, and
// atomic compaction (temp file + fsync + rename + directory fsync). The
// compaction's durable replace is exported as WriteFile, which the
// result store and the coordinator's lease write through as well.
//
// The package deliberately knows nothing about what a record means.
// Its caller — the job journal in internal/service, which every acbd
// role writes, and the standby's mirror of it — defines the entry type
// and the replay reduction over the raw records this package returns.
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// ErrVersion reports a log written under a different format version.
// Callers bump their version string when record semantics change, so a
// mismatched file refuses to replay instead of resurrecting state under
// different rules.
var ErrVersion = errors.New("wal: version mismatch")

// FaultPoints is the fault-injection hook (satisfied by
// *faultinject.Injector and by service.FaultPoints implementations);
// chaos tests use it to fail appends deterministically.
type FaultPoints interface {
	Fire(point string) error
}

// header is the version line every log file starts with.
type header struct {
	Version string `json:"version"`
}

// Log is an open write-ahead log. Append marshals one record, writes it
// as a single JSONL line and fsyncs before returning, which is what
// lets callers promise "acknowledged means it survives kill -9". A nil
// *Log is a valid no-op log: Append and Close succeed silently, so
// journaling stays strictly optional for callers.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	faults FaultPoints
	prefix string
}

// Replay reads the log at path and returns its raw records in append
// order. A missing file is an empty log. The header line must carry one
// of versions (ErrVersion otherwise; a malformed header is its own
// error — never silently treated as empty).
//
// A torn final line — the tail of an append cut off by the crash the
// log exists to survive — ends replay silently; everything before it is
// intact because each record was fsync'd before the next began.
func Replay(path string, versions ...string) ([]json.RawMessage, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	if !sc.Scan() {
		return nil, sc.Err() // empty file: fresh log
	}
	var hdr header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Version == "" {
		return nil, fmt.Errorf("wal: %s: malformed header %q", path, sc.Text())
	}
	if !slices.Contains(versions, hdr.Version) {
		return nil, fmt.Errorf("%w: file %q, this build reads %q", ErrVersion, hdr.Version, versions)
	}

	var recs []json.RawMessage
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			break // torn tail from the crash: replay what made it to disk
		}
		recs = append(recs, append(json.RawMessage(nil), sc.Bytes()...))
	}
	return recs, sc.Err()
}

// Create atomically (re)writes the log at path — header plus the given
// records, typically the survivors of a caller-side replay reduction —
// and returns it open for appending. This is compaction-on-open: a
// crash inside Create leaves either the old file or the new one, both
// valid.
func Create(path, version string, records []interface{}) (*Log, error) {
	err := WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(header{Version: version}); err != nil {
			return err
		}
		for _, r := range records {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wal: compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Log{f: f, path: path}, nil
}

// WriteFile replaces the file at path atomically and durably: write
// fills a temp file in the same directory, which is fsync'd, closed and
// renamed over path, and then the directory is fsync'd. A crash leaves
// either the old file or the new one, and once WriteFile returns nil
// the new one survives power loss. The temp file never outlives the
// call. Every durable file in acbd is written this way: compacted logs,
// stored results and the coordinator's lease.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SetFaults installs a fault-injection hook fired as "<prefix>.append"
// before every append; chaos tests only.
func (l *Log) SetFaults(f FaultPoints, prefix string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = f
	l.prefix = prefix
}

// Append writes one record as a JSONL line and fsyncs it. Callers treat
// append failures as durability loss, not fatal errors, so Append only
// reports them for logging/counting.
func (l *Log) Append(v interface{}) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	if l.faults != nil {
		if err := l.faults.Fire(l.prefix + ".append"); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close stops the log; later appends fail.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Path returns the log's file path.
func (l *Log) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}
