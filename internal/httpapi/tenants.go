package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsdeploy/internal/obs"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// Tenancy layer. Every stateful endpoint is namespaced: a request
// addresses a tenant either with the X-Tenant header or the
// /v1/tenants/{tenant}/... path prefix (the prefix is rewritten onto
// the ordinary route with the header set, so both forms share one
// implementation). Requests that name neither land on the "default"
// tenant, which always exists — the whole pre-tenancy API surface
// keeps working unchanged.
//
//	GET    /v1/tenants                   — list tenants (name, quota)
//	POST   /v1/tenants                   — create {name, quota}
//	GET    /v1/tenants/{name}            — one tenant's status
//	DELETE /v1/tenants/{name}            — delete tenant and its namespace
//	ANY    /v1/tenants/{tenant}/{rest...}— tenant-scoped alias of /v1/{rest}
//
// Mutating and planning routes pass through admission first: the
// tenant's plans/sec token bucket (over-quota → 429 + Retry-After)
// sheds load before any planning work happens. Every tenant then plans
// on the handler's one engine and one ingest pipeline.

// TenantHeader names the tenant a request addresses.
const TenantHeader = "X-Tenant"

// obsTenantRequests times admitted tenant-scoped requests, so /metrics
// shows per-request plan latency next to the admission counters.
var obsTenantRequests = obs.Default().Histogram("tenant.plan_seconds")

// tenantState is everything the handler holds for one tenant: its
// durable store, its snapshot coordination and its stateful domains
// (fleet, autopilot, deployment ledger, specs). One tenant's state
// never touches another's; the only shared pieces are the handler's
// engine and ingest pipeline (keyed by request content, so no state
// leaks) and the process-wide obs registry.
type tenantState struct {
	h *Handler
	t *tenant.Tenant

	// store is the tenant's journal (see durable.go), nil for an
	// in-memory tenant.
	store *store.Store

	// mu is the tenant's one lock: every mutation of a durable domain
	// runs under it together with its journal append (see mutate), every
	// read of one takes it briefly, and captureComposite images all four
	// with the covered sequence under it. The domains hold no lock of
	// their own. Lock order: snapIOMu → mu → manager.Locked's mutex → the
	// store's mutexes.
	mu sync.Mutex
	// snapIOMu serializes whole snapshots, which stream to the store
	// outside mu.
	snapIOMu sync.Mutex
	// snapErr is the last composite snapshot's error, if any.
	snapErr atomic.Pointer[string]

	fleet *fleetState
	pilot *autopilotState
	deps  *deployLedger
	specs *specState
}

// newTenantState wires a fresh per-tenant namespace: its store (when
// durable), tracing into the handler's tracer, and empty domains. The
// caller publishes the state only after this returns, so the store's
// tracer is set before any request can reach it.
func (h *Handler) newTenantState(t *tenant.Tenant) *tenantState {
	ts := &tenantState{h: h, t: t, store: t.Store()}
	if ts.store != nil {
		ts.store.SetTracer(h.tracer)
	}
	ts.fleet = &fleetState{ts: ts}
	ts.pilot = &autopilotState{}
	ts.deps = &deployLedger{}
	ts.specs = newSpecState(ts)
	return ts
}

// tenantHandlerFunc is a request handler bound to a resolved tenant.
type tenantHandlerFunc func(ts *tenantState, w http.ResponseWriter, r *http.Request)

// stateless adapts a tenant-agnostic handler to the tenant wrapper
// shape (the request still pays admission against its tenant).
func stateless(fn http.HandlerFunc) tenantHandlerFunc {
	return func(_ *tenantState, w http.ResponseWriter, r *http.Request) { fn(w, r) }
}

// tenantFor resolves the request's tenant or writes a 404.
func (h *Handler) tenantFor(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		name = tenant.DefaultName
	}
	h.tmu.RLock()
	ts := h.states[name]
	h.tmu.RUnlock()
	if ts == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w %q; POST /v1/tenants first", tenant.ErrNotFound, name))
		return nil, false
	}
	return ts, true
}

// withTenant wraps a read-only tenant-scoped handler: resolution only,
// no admission.
func (h *Handler) withTenant(fn tenantHandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ts, ok := h.tenantFor(w, r); ok {
			fn(ts, w, r)
		}
	}
}

// admit wraps a mutating or planning handler: tenant resolution, then
// admission (the quota bucket), then the handler. Rejections answer
// before any planning work happens.
func (h *Handler) admit(fn tenantHandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ts, ok := h.tenantFor(w, r)
		if !ok {
			return
		}
		if d := h.reg.Admit(ts.t); !d.OK {
			writeDecision(w, d)
			return
		}
		start := time.Now()
		fn(ts, w, r)
		obsTenantRequests.ObserveDuration(time.Since(start))
	}
}

// writeDecision sheds a request per an admission decision: the status
// it carries (429/503), a Retry-After hint in whole seconds, and the
// standard JSON error envelope.
func writeDecision(w http.ResponseWriter, d tenant.Decision) {
	writeRetry(w, d.Status, d.RetryAfter, errors.New(d.Reason))
}

// registerTenants wires the tenant CRUD and the path-prefix alias.
func (h *Handler) registerTenants() {
	h.mux.HandleFunc("GET /v1/tenants", h.listTenants)
	h.mux.HandleFunc("POST /v1/tenants", h.createTenant)
	h.mux.HandleFunc("GET /v1/tenants/{name}", h.getTenant)
	h.mux.HandleFunc("DELETE /v1/tenants/{name}", h.deleteTenant)
	h.mux.HandleFunc("/v1/tenants/{tenant}/{rest...}", h.tenantPrefix)
}

// tenantPrefix serves /v1/tenants/{tenant}/{rest...} by rewriting it to
// /v1/{rest} with the X-Tenant header set and re-dispatching, so every
// route gains a tenant-scoped alias without a second registration.
func (h *Handler) tenantPrefix(w http.ResponseWriter, r *http.Request) {
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/" + r.PathValue("rest")
	r2.Header.Set(TenantHeader, r.PathValue("tenant"))
	h.mux.ServeHTTP(w, r2)
}

// tenantInfo is one tenant's directory row.
type tenantInfo struct {
	Name  string       `json:"name"`
	Quota tenant.Quota `json:"quota"`
}

func (h *Handler) listTenants(w http.ResponseWriter, _ *http.Request) {
	tenants := h.reg.List()
	rows := make([]tenantInfo, 0, len(tenants))
	for _, t := range tenants {
		rows = append(rows, tenantInfo{Name: t.Name(), Quota: t.Quota()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rows), "tenants": rows})
}

func (h *Handler) createTenant(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name  string       `json:"name"`
		Quota tenant.Quota `json:"quota"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	h.tmu.Lock()
	defer h.tmu.Unlock()
	t, err := h.reg.Create(req.Name, req.Quota)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, tenant.ErrExists) {
			code = http.StatusConflict
		}
		writeErr(w, code, err)
		return
	}
	h.states[t.Name()] = h.newTenantState(t)
	writeJSON(w, http.StatusCreated, tenantInfo{Name: t.Name(), Quota: t.Quota()})
}

func (h *Handler) getTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h.tmu.RLock()
	ts := h.states[name]
	h.tmu.RUnlock()
	if ts == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w %q", tenant.ErrNotFound, name))
		return
	}
	out := map[string]any{
		"name":    ts.t.Name(),
		"quota":   ts.t.Quota(),
		"durable": ts.store != nil,
	}
	ts.mu.Lock()
	if ts.fleet.l != nil {
		st := ts.fleet.l.Status()
		out["fleet"] = map[string]any{"servers": st.Servers, "workflows": st.Workflows}
	}
	out["deployments"] = len(ts.deps.entries)
	ts.mu.Unlock()
	if ts.store != nil {
		out["store"] = ts.store.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *Handler) deleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h.tmu.Lock()
	defer h.tmu.Unlock()
	if err := h.reg.Delete(name); err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, tenant.ErrNotFound):
			code = http.StatusNotFound
		case errors.Is(err, tenant.ErrDefaultUndeletable):
			code = http.StatusForbidden
		}
		writeErr(w, code, err)
		return
	}
	delete(h.states, name)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// requestTenant names the tenant a request addresses, for the request
// span: the header when set, else the path-prefix segment, else the
// default.
func requestTenant(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/tenants/"); ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			return rest[:i]
		}
	}
	return tenant.DefaultName
}
