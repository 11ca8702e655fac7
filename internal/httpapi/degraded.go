package httpapi

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/store"
)

// Degraded read-only mode. When a tenant's journal fail-stops (EIO or a
// failed fsync on the WAL — see store.ErrDegraded), the tenant does not
// go dark: everything that needs no new durability keeps serving — reads,
// pure compute (portfolio/simulate), status, metrics — while
// every mutation that would have to journal before acknowledging is
// rejected with 503 + Retry-After. GET /v1/readyz names the degraded
// tenants so orchestrators can see the partial outage, the tenant's
// reconciler holds its passes (acting would only burn 503s), and the
// daemon's recovery probe calls ProbeDegraded until store.Reopen
// succeeds, at which point the tenant resumes transparently.

var (
	obsDegradedRejects = obs.Default().Counter("httpapi.degraded_rejects")
	obsPanics          = obs.Default().Counter("httpapi.panics")
)

// degradedErr reports why the tenant's journal is fail-stopped, or nil
// for healthy and in-memory tenants.
func (ts *tenantState) degradedErr() error {
	if ts.store == nil {
		return nil
	}
	return ts.store.Failed()
}

// requireDurable gates a mutating handler on the tenant's journal
// health: a degraded tenant answers 503 with a Retry-After hint sized
// to the recovery probe's cadence, before any planning or state work
// happens. Read and compute paths never pass through here.
func requireDurable(fn tenantHandlerFunc) tenantHandlerFunc {
	return func(ts *tenantState, w http.ResponseWriter, r *http.Request) {
		if err := ts.degradedErr(); err != nil {
			obsDegradedRejects.Inc()
			writeRetry(w, http.StatusServiceUnavailable, store.RetryAfter,
				fmt.Errorf("tenant %s is degraded read-only (mutations rejected until the journal recovers): %v", ts.t.Name(), err))
			return
		}
		fn(ts, w, r)
	}
}

// DegradedTenants lists the tenants whose journals are fail-stopped,
// sorted by name. Empty when all tenants are healthy.
func (h *Handler) DegradedTenants() []string {
	h.tmu.RLock()
	var out []string
	for name, ts := range h.states {
		if ts.degradedErr() != nil {
			out = append(out, name)
		}
	}
	h.tmu.RUnlock()
	sort.Strings(out)
	return out
}

// ProbeDegraded attempts recovery for every degraded tenant: one
// store.Reopen each (quarantine the dirty tail, verify the surviving
// log, prove an fsync), then a fresh composite snapshot. The snapshot
// is load-bearing, not an optimization: a fleet mutation applies in
// memory before it journals, so the request that tripped the fault may
// have left live state ahead of the log — its client got a 503, which
// for a durability fault means indeterminate, exactly like any
// distributed write timeout. Snapshotting the live state immediately
// after the journal reopens re-anchors durability to everything
// clients could have observed, closing the window where a crash would
// silently roll back visible state. Tenants whose probe succeeds leave
// degraded mode immediately; the rest stay read-only until the next
// probe. The daemon's -faultprobe loop drives this on a backoff
// schedule.
func (h *Handler) ProbeDegraded() (recovered, degraded []string) {
	h.tmu.RLock()
	states := make([]*tenantState, 0, len(h.states))
	for _, ts := range h.states {
		if ts.degradedErr() != nil {
			states = append(states, ts)
		}
	}
	h.tmu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].t.Name() < states[j].t.Name() })
	for _, ts := range states {
		if err := ts.store.Reopen(); err != nil {
			degraded = append(degraded, ts.t.Name())
			continue
		}
		if err := ts.SnapshotNow(); err != nil {
			// The disk relapsed mid-snapshot; the store has fail-stopped
			// again (or will on the next append) and the tenant stays
			// degraded for the next probe.
			degraded = append(degraded, ts.t.Name())
			continue
		}
		recovered = append(recovered, ts.t.Name())
	}
	return recovered, degraded
}

// registerDiskFault wires the fault-injection debug surface, only when
// the daemon was started with an injector (-faultinject). POST arms or
// clears a fault in the injector backing every tenant store; GET
// inspects it. The smoke script drives a live daemon through
// degraded mode and back with these.
func (h *Handler) registerDiskFault(in *faultfs.Injector) {
	h.mux.HandleFunc("POST /v1/debug/diskfault", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Clear   bool   `json:"clear,omitempty"`
			Kind    string `json:"kind,omitempty"`
			At      *int   `json:"at,omitempty"` // default -1: the next matching op
			Sticky  bool   `json:"sticky,omitempty"`
			DelayMs int    `json:"delayMs,omitempty"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Clear {
			in.Clear()
			writeJSON(w, http.StatusOK, map[string]any{"cleared": true, "fired": in.Fired()})
			return
		}
		kind, err := faultfs.ParseKind(req.Kind)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		at := -1
		if req.At != nil {
			at = *req.At
		}
		f := faultfs.Fault{Kind: kind, At: at, Sticky: req.Sticky, Delay: time.Duration(req.DelayMs) * time.Millisecond}
		in.Arm(f)
		writeJSON(w, http.StatusOK, map[string]any{"armed": f})
	})
	h.mux.HandleFunc("GET /v1/debug/diskfault", func(w http.ResponseWriter, _ *http.Request) {
		out := map[string]any{"fired": in.Fired(), "ops": in.Counts(), "degraded": h.DegradedTenants()}
		if f := in.Armed(); f != nil {
			out["armed"] = *f
		}
		writeJSON(w, http.StatusOK, out)
	})
}
