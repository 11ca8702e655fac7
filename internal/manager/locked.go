package manager

import (
	"errors"
	"fmt"
	"sync"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/store"
	"wsdeploy/internal/workflow"
)

// Locked is a concurrency-safe wrapper around a Manager: every method
// takes one mutex, exactly the synchronization the Manager doc comment
// prescribes. It exists so several controllers — the autopilot's control
// loop, the chaos supervisor's repair path and the HTTP fleet endpoints
// — can share one live fleet without each inventing its own locking
// (and without two lock domains racing over the same state).
//
// With a journal store attached, every committed mutation appends one
// typed record under the same mutex hold, so the log's order is the
// mutation order — the property replay depends on.
type Locked struct {
	mu      sync.Mutex
	m       *Manager
	caps    Caps
	journal *store.Store
}

// Caps bounds how far a Locked fleet may grow: Deploy, Adopt and
// ServerUp refuse to pass them with ErrOverCap. A zero field is
// unlimited.
type Caps struct {
	Workflows int // deployed workflows
	Servers   int // servers, down ones included
}

// ErrOverCap marks a fleet, or a fleet mutation, past the fleet's Caps.
var ErrOverCap = errors.New("over the fleet's cap")

// check refuses a fleet of the given size past c; a zero count passes.
func (c Caps) check(workflows, servers int) error {
	switch {
	case c.Servers > 0 && servers > c.Servers:
		return fmt.Errorf("manager: %w of %d servers", ErrOverCap, c.Servers)
	case c.Workflows > 0 && workflows > c.Workflows:
		return fmt.Errorf("manager: %w of %d deployed workflows", ErrOverCap, c.Workflows)
	}
	return nil
}

// NewLocked builds an uncapped concurrency-safe manager over a network.
func NewLocked(net *network.Network) *Locked { return &Locked{m: New(net)} }

// NewCapped protects m under caps, refusing with ErrOverCap an m
// already past one. The caller must hand over ownership: every
// subsequent access has to go through the wrapper.
func NewCapped(m *Manager, caps Caps) (*Locked, error) {
	if err := caps.check(len(m.order), m.net.N()); err != nil {
		return nil, err
	}
	return Wrap(m, caps), nil
}

// Wrap is NewCapped without the check, for a fleet recovered from its
// journal: it boots as its acknowledged history left it.
func Wrap(m *Manager, caps Caps) *Locked { return &Locked{m: m, caps: caps} }

// AttachJournal starts appending every subsequent mutation to st. A
// nil store detaches. The caller is responsible for having captured the
// current state first (a genesis record or a snapshot): the journal
// only sees mutations from now on.
func (l *Locked) AttachJournal(st *store.Store) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = st
}

// record emits one journal record; the caller holds l.mu and the
// mutation has already been applied. A journal error is returned to the
// caller as a persistence failure wrapping ErrJournal: the in-memory
// state is ahead of the log, so the daemon answers 503 and serves the
// tenant degraded read-only until its recovery probe re-anchors the log
// with a snapshot.
func (l *Locked) record(typ string, data any) error {
	if l.journal == nil {
		return nil
	}
	if _, err := l.journal.Append(typ, data); err != nil {
		return fmt.Errorf("manager: applied %s but %w: %v", typ, ErrJournal, err)
	}
	return nil
}

// Network returns the current fleet.
func (l *Locked) Network() *network.Network {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Network()
}

// Workflows returns the deployed workflow ids in arrival order.
func (l *Locked) Workflows() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Workflows()
}

// Workflow returns the deployed workflow for an id (read-only).
func (l *Locked) Workflow(id string) (*workflow.Workflow, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Workflow(id)
}

// Mapping returns the live mapping of a workflow id.
func (l *Locked) Mapping(id string) (deploy.Mapping, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Mapping(id)
}

// Adopt registers an existing workflow/mapping pair.
func (l *Locked) Adopt(id string, w *workflow.Workflow, mp deploy.Mapping) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.caps.check(len(l.m.order)+1, 0); err != nil {
		return err
	}
	if err := l.m.Adopt(id, w, mp); err != nil {
		return err
	}
	return l.recordPlacement(RecAdopt, id, w)
}

// SetMapping replaces the live mapping of a deployed workflow.
func (l *Locked) SetMapping(id string, mp deploy.Mapping) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.m.SetMapping(id, mp); err != nil {
		return err
	}
	committed, _ := l.m.Mapping(id)
	return l.record(RecSetMapping, recSetMapping{ID: id, Mapping: committed})
}

// Deploy places a new workflow into the valleys of the combined load.
func (l *Locked) Deploy(id string, w *workflow.Workflow) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.caps.check(len(l.m.order)+1, 0); err != nil {
		return err
	}
	if err := l.m.Deploy(id, w); err != nil {
		return err
	}
	return l.recordPlacement(RecDeploy, id, w)
}

// recordPlacement journals a deploy/adopt with the mapping the
// placement committed; the caller holds l.mu.
func (l *Locked) recordPlacement(typ, id string, w *workflow.Workflow) error {
	if l.journal == nil {
		return nil
	}
	wjson, err := encodeWorkflowJSON(w)
	if err != nil {
		return fmt.Errorf("manager: applied %s but %w: encoding its workflow: %v", typ, ErrJournal, err)
	}
	mp, _ := l.m.Mapping(id)
	return l.record(typ, recDeploy{ID: id, Workflow: wjson, Mapping: mp})
}

// MarkDown fails a server in place and re-places its orphans.
func (l *Locked) MarkDown(s int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	moved, err := l.m.MarkDown(s)
	if err != nil {
		return moved, err
	}
	return moved, l.record(RecMarkDown, recIndex{Index: s})
}

// MarkUp rejoins a server previously failed with MarkDown.
func (l *Locked) MarkUp(s int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.m.MarkUp(s); err != nil {
		return err
	}
	return l.record(RecMarkUp, recIndex{Index: s})
}

// IsDown reports whether server s is currently marked down.
func (l *Locked) IsDown(s int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.IsDown(s)
}

// DownServers returns the indices of servers currently marked down.
func (l *Locked) DownServers() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.DownServers()
}

// Remove withdraws a workflow.
func (l *Locked) Remove(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.m.Remove(id); err != nil {
		return err
	}
	return l.record(RecRemove, recID{ID: id})
}

// ServerDown removes a failed server and repairs every mapping.
func (l *Locked) ServerDown(s int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	moved, err := l.m.ServerDown(s)
	if err != nil {
		return moved, err
	}
	return moved, l.record(RecServerDown, recIndex{Index: s})
}

// ServerUp joins a fresh server to a bus fleet.
func (l *Locked) ServerUp(name string, powerHz float64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.caps.check(0, l.m.net.N()+1); err != nil {
		return -1, err
	}
	idx, err := l.m.ServerUp(name, powerHz)
	if err != nil {
		return idx, err
	}
	return idx, l.record(RecServerUp, recServerUp{Name: name, PowerHz: powerHz})
}

// Rebalance redeploys the whole portfolio from scratch.
func (l *Locked) Rebalance() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	moved, err := l.m.Rebalance()
	if err != nil {
		return moved, err
	}
	return moved, l.record(RecRebalance, struct{}{})
}

// Status reports the portfolio's health.
func (l *Locked) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Status()
}

// Snapshot serializes the fleet state.
func (l *Locked) Snapshot() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Snapshot()
}
