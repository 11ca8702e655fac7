package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
)

// Durable state plumbing. A durable tenant journals every state
// mutation — fleet operations (the manager's typed fleet.* records),
// deployment-ledger appends ("deployment.created") and autopilot runs
// ("autopilot.run") — into its own write-ahead log, and periodically
// folds the whole namespace into a composite snapshot so replay stays
// bounded. After a crash the daemon reopens every tenant's store and
// NewHandlerWith replays each snapshot+tail back into that tenant's
// endpoints; one tenant's log never mixes with another's.

// replayBound caps replay: a composite snapshot and WAL compaction
// trigger once this many records accumulate past the last snapshot.
const replayBound = 256

// Record types owned by the HTTP layer (fleet.* belong to manager).
const (
	recDeploymentCreated = "deployment.created"
	recAutopilotRun      = "autopilot.run"
)

var obsSnapErrs = obs.Default().Counter("httpapi.snapshot_errors")

// mutate runs one state mutation, with its journal append, under the
// tenant's lock, then triggers a composite snapshot if the WAL has
// outgrown the replay bound. A handler's fn writes the HTTP response
// itself.
func (ts *tenantState) mutate(fn func()) {
	func() {
		// Deferred so a panicking handler (caught by the ServeHTTP
		// backstop) cannot leak the lock and wedge the tenant.
		ts.mu.Lock()
		defer ts.mu.Unlock()
		fn()
	}()
	ts.maybeSnapshot()
}

// journal appends one record for a mutation the caller applies only
// once it is durable; the caller holds ts.mu. It is a no-op without a
// store. A failed append wraps manager.ErrJournal, which every route
// answers with 503 (see writeMutationErr); what names the mutation that
// did not happen.
func (ts *tenantState) journal(what, typ string, rec any) error {
	if ts.store == nil {
		return nil
	}
	if _, err := ts.store.Append(typ, rec); err != nil {
		return fmt.Errorf("httpapi: %s: %w: %v", what, manager.ErrJournal, err)
	}
	return nil
}

// maybeSnapshot compacts once the log holds replayBound records past
// the last snapshot. Failures are recorded (metrics + /v1/store/status) but
// do not fail the request that tripped the threshold: the WAL itself
// is intact, only replay stays long.
func (ts *tenantState) maybeSnapshot() {
	if ts.store == nil || ts.store.Failed() != nil {
		// A fail-stopped store rejects snapshots anyway; skipping here
		// keeps degraded reads from churning snapshot errors.
		return
	}
	if !ts.pastReplayBound() {
		return
	}
	ts.snapIOMu.Lock()
	defer ts.snapIOMu.Unlock()
	// Every request that crossed the bound while another snapshot ran
	// waited here; that snapshot may already cover its record.
	if !ts.pastReplayBound() {
		return
	}
	if err := ts.snapshotLocked(); err != nil {
		obsSnapErrs.Inc()
		msg := err.Error()
		ts.snapErr.Store(&msg)
	}
}

// composite is the durable image of one tenant's stateful endpoints,
// stored as the opaque payload of a store snapshot: a sequence of JSON
// values, the composite without its ledger and then one value per
// ledger entry. A snapshot from before the ledger streamed is one
// composite object with the ledger inside, a sequence of one. Older
// snapshots also carry the ledger's "nextDepId" counter; the decoder
// ignores it, since an auto id is the entry's position.
type composite struct {
	Fleet       json.RawMessage       `json:"fleet,omitempty"`
	Deployments []deployEntry         `json:"deployments,omitempty"`
	Autopilot   *apRunRecord          `json:"autopilot,omitempty"`
	Specs       []reconcile.Versioned `json:"specs,omitempty"`
}

// encode writes c's value sequence, one ledger entry at a time, so no
// buffer ever holds the encoded ledger. It is the encoder
// store.SnapshotTo runs; decodeComposite reads its output back.
func (c *composite) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	head := *c
	head.Deployments = nil
	err := enc.Encode(&head)
	for i := 0; err == nil && i < len(c.Deployments); i++ {
		err = enc.Encode(&c.Deployments[i])
	}
	return err
}

// decodeComposite reads a composite snapshot payload: the first value
// of the sequence, then every ledger entry after it.
func decodeComposite(data []byte) (*composite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	c := &composite{}
	if err := dec.Decode(c); err != nil {
		return nil, err
	}
	for {
		var e deployEntry
		if err := dec.Decode(&e); err == io.EOF {
			return c, nil
		} else if err != nil {
			return nil, err
		}
		c.Deployments = append(c.Deployments, e)
	}
}

// pastReplayBound reports whether the log holds replayBound records
// past the last snapshot.
func (ts *tenantState) pastReplayBound() bool {
	return ts.store.LastSeq()-ts.store.SnapshotSeq() >= replayBound
}

// SnapshotNow captures a quiesced composite snapshot of the tenant's
// fleet, deployment ledger, autopilot and spec state and streams it to
// the tenant's store, which compacts the WAL down to the uncovered
// tail. No-op without a store.
func (ts *tenantState) SnapshotNow() error {
	if ts.store == nil {
		return nil
	}
	ts.snapIOMu.Lock()
	defer ts.snapIOMu.Unlock()
	return ts.snapshotLocked()
}

// snapshotLocked is SnapshotNow with snapIOMu already held.
func (ts *tenantState) snapshotLocked() error {
	c, covered, err := ts.captureComposite()
	if err != nil {
		return err
	}
	return ts.store.SnapshotTo(covered, c.encode)
}

// captureComposite images every durable domain under the tenant's
// lock, together with the last sequence number the image covers: every
// append runs under the same lock, so the image is exactly the log up
// to that sequence.
func (ts *tenantState) captureComposite() (*composite, uint64, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	c := &composite{}
	if ts.fleet.l != nil {
		var err error
		if c.Fleet, err = ts.fleet.l.Snapshot(); err != nil {
			return nil, 0, fmt.Errorf("httpapi: snapshotting fleet: %w", err)
		}
	}
	// The ledger only ever appends, so its first n entries never change
	// again: a capped view of them is a stable image without a copy.
	n := len(ts.deps.entries)
	c.Deployments = ts.deps.entries[:n:n]
	if ts.pilot.last != nil {
		rec := apRunRecord{Summary: ts.pilot.last}
		if ts.pilot.det != nil {
			rec.Detector = *ts.pilot.det
		}
		c.Autopilot = &rec
	}
	c.Specs = ts.specs.set.Image()
	return c, ts.store.LastSeq(), nil
}

// SnapshotNow snapshots every durable tenant (deterministically, in
// name order). The daemon calls this on graceful shutdown so the next
// boot replays (almost) nothing for any tenant.
func (h *Handler) SnapshotNow() error {
	h.tmu.RLock()
	states := make([]*tenantState, 0, len(h.states))
	for _, ts := range h.states {
		states = append(states, ts)
	}
	h.tmu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].t.Name() < states[j].t.Name() })
	var errs []error
	for _, ts := range states {
		if err := ts.SnapshotNow(); err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", ts.t.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// restoreFromRecovery replays a store's recovered state — composite
// snapshot first, then the log tail record by record — into the
// tenant's stateful endpoints, and attaches the journal so subsequent
// mutations keep the log current. The tenant is not yet published, so
// nothing else can reach its state.
func (ts *tenantState) restoreFromRecovery(rec *store.Recovery) error {
	var m *manager.Manager
	if rec.Snapshot != nil {
		c, err := decodeComposite(rec.Snapshot)
		if err != nil {
			return fmt.Errorf("httpapi: decoding composite snapshot: %w", err)
		}
		if len(c.Fleet) > 0 {
			var err error
			if m, err = manager.Restore(c.Fleet); err != nil {
				return fmt.Errorf("httpapi: restoring fleet snapshot: %w", err)
			}
		}
		ts.deps.restore(c.Deployments)
		if c.Autopilot != nil {
			ts.pilot.set(*c.Autopilot)
		}
		ts.specs.set.RestoreImage(c.Specs)
	}
	for _, r := range rec.Records {
		switch {
		case manager.IsFleetRecord(r.Type):
			var err error
			if m, err = manager.ApplyRecord(m, r.Type, r.Data); err != nil {
				return fmt.Errorf("httpapi: replaying seq %d: %w", r.Seq, err)
			}
		case r.Type == recDeploymentCreated:
			var e deployEntry
			if err := json.Unmarshal(r.Data, &e); err != nil {
				return fmt.Errorf("httpapi: replaying seq %d (%s): %w", r.Seq, r.Type, err)
			}
			ts.deps.add(e)
		case reconcile.IsSpecRecord(r.Type):
			if err := ts.specs.replaySpecRecord(r); err != nil {
				return err
			}
		case r.Type == recAutopilotRun:
			var ar apRunRecord
			if err := json.Unmarshal(r.Data, &ar); err != nil {
				return fmt.Errorf("httpapi: replaying seq %d (%s): %w", r.Seq, r.Type, err)
			}
			ts.pilot.set(ar)
		default:
			return fmt.Errorf("httpapi: replaying seq %d: unknown record type %q", r.Seq, r.Type)
		}
	}
	if m != nil {
		fleet := manager.Wrap(m, ts.caps())
		fleet.AttachJournal(ts.store)
		ts.fleet.l = fleet
	}
	return nil
}

// createFleet builds a fresh fleet over n under the tenant's caps,
// journals its genesis record and attaches the journal; the caller
// holds ts.mu and installs the fleet. PUT /v1/fleet and the reconciler
// both create fleets here.
func (ts *tenantState) createFleet(n *network.Network) (*manager.Locked, error) {
	fleet, err := manager.NewCapped(manager.New(n), ts.caps())
	if err != nil {
		return nil, err
	}
	genesis, err := manager.CreateRecord(fleet)
	if err != nil {
		return nil, err
	}
	if err := ts.journal("fleet not created", manager.RecFleetCreate, genesis); err != nil {
		return nil, err
	}
	fleet.AttachJournal(ts.store)
	return fleet, nil
}

// caps are the fleet caps of the tenant's quota.
func (ts *tenantState) caps() manager.Caps {
	q := ts.t.Quota()
	return manager.Caps{Workflows: q.MaxWorkflows, Servers: q.MaxServers}
}

// apRunRecord is the durable image of one autopilot run: the response
// summary GET replays, plus the drift detector's hysteresis state so a
// restarted controller resumes its cooldowns (see autopilot.DetectorState).
type apRunRecord struct {
	Summary  json.RawMessage         `json:"summary"`
	Detector autopilot.DetectorState `json:"detector"`
}

// storeStatus serves GET /v1/store/status for the request's tenant:
// durability off/on, the store's counters, and the last
// composite-snapshot error if any.
func (ts *tenantState) storeStatus(w http.ResponseWriter, _ *http.Request) {
	if ts.store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"durable": false, "tenant": ts.t.Name()})
		return
	}
	out := map[string]any{
		"durable":       true,
		"tenant":        ts.t.Name(),
		"snapshotEvery": replayBound,
		"store":         ts.store.Status(),
	}
	if snapErr := ts.snapErr.Load(); snapErr != nil {
		out["lastSnapshotError"] = *snapErr
	}
	writeJSON(w, http.StatusOK, out)
}
