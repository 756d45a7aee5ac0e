package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"acb/internal/service"
	"acb/internal/wal"
)

// LeaseVersion is the lease file's format-version field.
const LeaseVersion = "acbd-lease/1"

// Lease is a coordinator's fsync'd epoch record, the anchor of the
// fleet's fencing protocol. Epochs are monotone: every coordinator
// start (and every standby promotion) advances past the highest epoch
// it has ever seen or observed on a primary, writes the new epoch to
// disk before using it, and stamps it on every RPC. Workers remember
// the highest epoch they have been spoken to at and reject anything
// lower, so a network-partitioned old primary — or a zombie left over
// from before a crash-restart — cannot split-brain the job table.
//
// A Lease with an empty path is memory-only: valid for tests and
// single-coordinator setups where fencing across process restarts does
// not matter.
type Lease struct {
	mu     sync.Mutex
	path   string
	node   string
	epoch  uint64
	faults service.FaultPoints
}

// leaseFile is the on-disk shape.
type leaseFile struct {
	Version string    `json:"version"`
	Epoch   uint64    `json:"epoch"`
	Node    string    `json:"node"`
	Time    time.Time `json:"t"`
}

// OpenLease loads the lease at path (missing file → epoch 0; "" →
// memory-only at epoch 0). A corrupt or wrong-version file is an error,
// never silently epoch 0 — restarting at a stale epoch would get this
// coordinator fenced by its own workers.
func OpenLease(path, node string) (*Lease, error) {
	l := &Lease{path: path, node: node}
	if path == "" {
		return l, nil
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: lease: %w", err)
	}
	var lf leaseFile
	if err := json.Unmarshal(b, &lf); err != nil {
		return nil, fmt.Errorf("cluster: lease %s: corrupt: %w", path, err)
	}
	if lf.Version != LeaseVersion {
		return nil, fmt.Errorf("cluster: lease %s: version %q, this build %q", path, lf.Version, LeaseVersion)
	}
	l.epoch = lf.Epoch
	return l, nil
}

// Epoch returns the current epoch (0 = never advanced).
func (l *Lease) Epoch() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// SetFaults installs the fault-injection hook fired as "lease.advance";
// chaos tests only.
func (l *Lease) SetFaults(f service.FaultPoints) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = f
}

// Advance claims epoch `to`, which must exceed the current one, and
// fsyncs it to disk (wal.WriteFile: temp + fsync + rename + dir fsync)
// before it takes effect — a lease is never held at an epoch the disk
// doesn't know about, so a crash-restart can't reuse one.
func (l *Lease) Advance(to uint64) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if to <= l.epoch {
		return fmt.Errorf("cluster: lease epoch %d does not exceed current %d", to, l.epoch)
	}
	if l.faults != nil {
		if err := l.faults.Fire("lease.advance"); err != nil {
			return err
		}
	}
	if l.path != "" {
		b, err := json.MarshalIndent(leaseFile{
			Version: LeaseVersion, Epoch: to, Node: l.node, Time: time.Now().UTC(),
		}, "", "  ")
		if err != nil {
			return err
		}
		err = wal.WriteFile(l.path, func(w io.Writer) error {
			_, err := w.Write(append(b, '\n'))
			return err
		})
		if err != nil {
			return err
		}
	}
	l.epoch = to
	return nil
}
