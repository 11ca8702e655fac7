package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"

	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
)

// Declarative deployment endpoints. A client POSTs a named
// DeploymentSpec — fleet network, workflow portfolio, SLO target,
// placement hints — and the per-tenant reconciler converges the live
// fleet onto it through the same journaled mutation paths the
// imperative /v1/fleet endpoints use. Status reports the spec's
// generation against the last generation a pass fully converged. Every
// pass compares a spec's maxTimePenalty with the fleet's current Time
// Penalty.
//
//	GET    /v1/specs                 — list specs with convergence status
//	POST   /v1/specs                 — create or revise {name, spec}
//	GET    /v1/specs/{name}          — one spec, full desired state
//	DELETE /v1/specs/{name}          — withdraw a spec
//	GET    /v1/specs/{name}/status   — generation / observedGeneration
//	POST   /v1/reconcile             — run reconcile passes now
//
// Every accepted revision is journaled *before* it is acknowledged and
// every observed-generation advance is journaled *before* status can
// report it, so after kill -9 the recovered status never claims a
// generation the log does not hold (the chaos sweep proves this at
// every byte offset).

// specState is one tenant's declarative-deployment domain: the
// versioned spec set, the reconciler over it, and the executor that
// bridges reconcile steps onto the tenant's fleet. The tenant's lock
// serializes spec mutations, reconcile passes and the fleet calls a
// pass makes (see tenantState).
type specState struct {
	ts   *tenantState
	set  *reconcile.Set
	exec *reconcile.FleetExecutor
	rec  *reconcile.Reconciler
}

// newSpecState wires the reconciler for one tenant: fleet creation
// goes through the genesis journal path, observed-generation advances
// journal before they apply.
func newSpecState(ts *tenantState) *specState {
	ss := &specState{ts: ts, set: reconcile.NewSet()}
	ss.exec = &reconcile.FleetExecutor{CreateFleet: ts.createFleet}
	ss.rec = reconcile.New(ss.set, ss.exec, reconcile.Config{
		OnObserved: func(name string, gen uint64) error {
			return ts.journal("generation not observed", reconcile.RecObserved, reconcile.ObservedRecord{Name: name, Generation: gen})
		},
		Tracer: ts.h.tracer,
	})
	return ss
}

// specFn adapts a specState method to the tenant wrapper shape.
func specFn(fn func(*specState, http.ResponseWriter, *http.Request)) tenantHandlerFunc {
	return func(ts *tenantState, w http.ResponseWriter, r *http.Request) { fn(ts.specs, w, r) }
}

// registerSpecs wires the declarative endpoints onto the mux.
func (h *Handler) registerSpecs() {
	h.mux.HandleFunc("GET /v1/specs", h.withTenant(specFn((*specState).list)))
	h.mux.HandleFunc("POST /v1/specs", h.admit(requireDurable(specFn((*specState).put))))
	h.mux.HandleFunc("GET /v1/specs/{name}", h.withTenant(specFn((*specState).get)))
	h.mux.HandleFunc("DELETE /v1/specs/{name}", h.admit(requireDurable(specFn((*specState).delete))))
	h.mux.HandleFunc("GET /v1/specs/{name}/status", h.withTenant(specFn((*specState).status)))
	h.mux.HandleFunc("POST /v1/reconcile", h.admit(requireDurable(specFn((*specState).reconcile))))
}

// specStatus is the convergence row every read endpoint reports.
type specStatus struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Observed   uint64 `json:"observedGeneration"`
	Converged  bool   `json:"converged"`
	Lag        uint64 `json:"lag"`
	Paused     bool   `json:"paused,omitempty"`
}

func statusOf(v reconcile.Versioned) specStatus {
	return specStatus{
		Name:       v.Name,
		Generation: v.Generation,
		Observed:   v.Observed,
		Converged:  v.Converged(),
		Lag:        v.Lag(),
		Paused:     v.Spec.Paused,
	}
}

func (ss *specState) list(w http.ResponseWriter, _ *http.Request) {
	ss.ts.mu.Lock()
	specs := ss.set.List()
	ss.ts.mu.Unlock()
	rows := make([]specStatus, 0, len(specs))
	for _, v := range specs {
		rows = append(rows, statusOf(v))
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rows), "specs": rows})
}

// put accepts one spec revision: validate (Compile is the single
// gate), journal the record with its assigned generation, then apply
// that record as replay does — never the other way round.
func (ss *specState) put(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string         `json:"name"`
		Spec reconcile.Spec `json:"spec"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("spec needs a name"))
		return
	}
	if _, err := req.Spec.Compile(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ss.ts.mutate(func() {
		rec := reconcile.SpecRecord{Name: req.Name, Generation: ss.set.NextGeneration(req.Name), Spec: req.Spec}
		if err := ss.ts.journal("spec not accepted", reconcile.RecSpecUpdate, rec); err != nil {
			writeMutationErr(w, err, http.StatusInternalServerError)
			return
		}
		if err := ss.set.ReplaySpec(rec); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		v, _ := ss.set.Get(req.Name)
		writeJSON(w, http.StatusOK, statusOf(v))
	})
}

func (ss *specState) get(w http.ResponseWriter, r *http.Request) {
	ss.ts.mu.Lock()
	v, ok := ss.set.Get(r.PathValue("name"))
	ss.ts.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown spec %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":               v.Name,
		"generation":         v.Generation,
		"observedGeneration": v.Observed,
		"converged":          v.Converged(),
		"spec":               v.Spec,
	})
}

func (ss *specState) delete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ss.ts.mutate(func() {
		if _, ok := ss.set.Get(name); !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown spec %q", name))
			return
		}
		rec := reconcile.DeleteRecord{Name: name}
		if err := ss.ts.journal("spec not deleted", reconcile.RecSpecDelete, rec); err != nil {
			writeMutationErr(w, err, http.StatusInternalServerError)
			return
		}
		ss.set.ReplayDelete(rec)
		writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
	})
}

func (ss *specState) status(w http.ResponseWriter, r *http.Request) {
	ss.ts.mu.Lock()
	v, ok := ss.set.Get(r.PathValue("name"))
	passes := ss.rec.Passes()
	ss.ts.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown spec %q", r.PathValue("name")))
		return
	}
	out := statusOf(v)
	resp := map[string]any{
		"name":               out.Name,
		"generation":         out.Generation,
		"observedGeneration": out.Observed,
		"converged":          out.Converged,
		"lag":                out.Lag,
		"paused":             out.Paused,
		"passes":             passes,
	}
	writeJSON(w, http.StatusOK, resp)
}

// reconcile runs a bounded burst of passes synchronously — the driver
// the smoke scripts and tests use; the daemon's background loop calls
// the same RunReconcilePass.
func (ss *specState) reconcile(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Passes int     `json:"passes,omitempty"`
		Time   float64 `json:"time,omitempty"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	passes := req.Passes
	if passes <= 0 {
		passes = 1
	}
	if passes > 64 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("passes %d exceeds the burst bound of 64", passes))
		return
	}
	// Each pass is one mutation: reads and other mutations of the
	// tenant may run between the passes of a burst.
	var last reconcile.PassResult
	for i := 0; i < passes && !last.Converged; i++ {
		ss.ts.mutate(func() { last = ss.runPassLocked(req.Time) })
	}
	var lines []string
	for _, a := range last.Actions {
		lines = append(lines, a.String())
	}
	out := map[string]any{
		"converged": last.Converged,
		"lag":       last.Lag,
		"actions":   lines,
	}
	if last.Held {
		out["held"] = true
	}
	writeJSON(w, http.StatusOK, out)
}

// runPassLocked runs one reconcile pass against the tenant's live
// fleet. The caller holds the tenant's lock (ts.mutate), so spec
// mutations and imperative fleet calls cannot interleave with the pass.
func (ss *specState) runPassLocked(t float64) reconcile.PassResult {
	// A degraded tenant holds its loop: every reconcile action journals
	// before it acknowledges, so passes against a fail-stopped store
	// would only burn 503s. The hold lifts on the pass after the
	// recovery probe reopens the journal.
	ss.rec.SetHold(ss.ts.degradedErr() != nil)
	ss.exec.Fleet = ss.ts.fleet.l
	res := ss.rec.RunPass(t)
	ss.ts.fleet.l = ss.exec.Fleet
	return res
}

// RunReconcilePass runs one reconcile pass for every tenant at virtual
// time t and reports the total remaining generation lag. The daemon's
// -reconcile loop drives this on a ticker; tests call it directly.
func (h *Handler) RunReconcilePass(t float64) uint64 {
	h.tmu.RLock()
	states := make([]*tenantState, 0, len(h.states))
	for _, ts := range h.states {
		states = append(states, ts)
	}
	h.tmu.RUnlock()
	var lag uint64
	for _, ts := range states {
		ts.mutate(func() {
			res := ts.specs.runPassLocked(t)
			lag += res.Lag
		})
	}
	return lag
}

// replaySpecRecord applies one recovered reconcile.* record during
// restore (see restoreFromRecovery), before the tenant is published.
func (ss *specState) replaySpecRecord(r store.Record) error {
	switch r.Type {
	case reconcile.RecSpecUpdate:
		var sr reconcile.SpecRecord
		if err := unmarshalRecord(r, &sr); err != nil {
			return err
		}
		return ss.set.ReplaySpec(sr)
	case reconcile.RecObserved:
		var or reconcile.ObservedRecord
		if err := unmarshalRecord(r, &or); err != nil {
			return err
		}
		return ss.set.ReplayObserved(or)
	case reconcile.RecSpecDelete:
		var dr reconcile.DeleteRecord
		if err := unmarshalRecord(r, &dr); err != nil {
			return err
		}
		ss.set.ReplayDelete(dr)
		return nil
	}
	return fmt.Errorf("httpapi: unknown reconcile record type %q", r.Type)
}

// unmarshalRecord decodes one WAL record payload with a replay-context
// error.
func unmarshalRecord(r store.Record, v any) error {
	if err := json.Unmarshal(r.Data, v); err != nil {
		return fmt.Errorf("httpapi: replaying seq %d (%s): %w", r.Seq, r.Type, err)
	}
	return nil
}
