// Package httpapi exposes the deployment planner as a JSON-over-HTTP
// service: clients POST a workflow and a network (the wfio JSON schema)
// and receive a mapping with its cost metrics.
//
// The service is a multi-tenant control plane: every stateful endpoint
// is namespaced by tenant (X-Tenant header or the
// /v1/tenants/{tenant}/... path prefix; neither means the "default"
// tenant, so the pre-tenancy surface works unchanged). Each tenant owns
// its own fleet, deployment ledger, autopilot state and — on a durable
// handler — its own WAL segment and snapshot lineage; every tenant
// plans on the handler's one engine and one ingest pipeline. Mutating
// and planning requests pass an admission layer first: a per-tenant
// token-bucket quota (over-quota → 429 + Retry-After) sheds load before
// any planning work happens.
//
// Endpoints:
//
//	GET  /healthz        — liveness (also GET /v1/healthz)
//	GET  /v1/readyz      — readiness: 503 until recovery has replayed
//	                       and the daemon's background loops are up
//	GET  /v1/algorithms  — registry keys accepted by deploy requests
//	POST /v1/deploy      — plan one deployment (workflow JSON or WDL);
//	                       algorithm "portfolio" races the whole registry
//	POST /v1/portfolio   — race a portfolio (default: every registry
//	                       algorithm), report the leaderboard; an
//	                       inapplicable algorithm's row carries "error"
//	POST /v1/simulate    — Monte-Carlo simulate a given mapping
//	POST /v1/failover    — recover a mapping from a server failure
//	POST /v1/chaos       — chaos study: simulate a mapping under a fault
//	                       plan with self-healing, report availability
//	POST /v1/convert     — translate a workflow between JSON, WDL and DOT
//	POST /v1/autopilot   — closed-loop drift study: seeded traffic over
//	                       a fleet with the autopilot on or off
//	GET  /v1/autopilot   — controller defaults and the last run summary
//	GET  /v1/tenants     — tenant directory; POST creates, GET/DELETE
//	                       /v1/tenants/{name} inspect and remove
//	GET  /metrics        — Prometheus text exposition of the obs registry
//	GET  /debug/trace    — recent spans from the flight recorder (JSON)
//
// plus the stateful fleet-manager endpoints under /v1/fleet (see
// fleet.go): create/status, workflow arrival/departure, server
// join/failure, rebalance, and snapshot/restore — all tenant-scoped —
// and the declarative /v1/specs + /v1/reconcile surface (see specs.go),
// where a posted DeploymentSpec is converged onto the live fleet by the
// per-tenant reconciler.
//
// Deploys and portfolio races are planned by the concurrent portfolio
// engine (internal/engine), whose plans carry their cost metrics,
// through the ingest pipeline in front of it: each plan takes one of
// Options.Ingest's MaxQueue slots on arrival, runs under the request's
// context, and sheds with 503 while every slot is held. Repeated plans
// of an identical spec hit the engine's LRU plan cache, whichever
// tenant sent them and, when no named algorithm reads it, whatever seed
// they carry. An optional timeoutMs field bounds planning latency — on
// expiry the best mapping found so far is returned with "truncated"
// set.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/engine"
	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/ingest"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/sim"
	"wsdeploy/internal/tenant"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// obsRequests times every API request; one histogram per process, so
// the daemon's /metrics shows end-to-end service latency next to the
// engine's per-algorithm planning series.
var obsRequests = obs.Default().Histogram("httpapi.request_seconds")

// MaxRequestBytes bounds request bodies; workflows and networks are
// small, so anything bigger is a client error (or abuse).
const MaxRequestBytes = 4 << 20

// PortfolioAlgorithm is the deploy-request algorithm value that races the
// whole registry through the portfolio engine instead of running a single
// algorithm.
const PortfolioAlgorithm = "portfolio"

// Handler serves the planning API. Construct with NewHandler (purely
// in-memory, default tenant only) or NewHandlerWith (durable and/or
// multi-tenant, backed by a tenant registry).
type Handler struct {
	mux    *http.ServeMux
	tracer *obs.Tracer
	flight *obs.FlightRecorder

	// pipe is the ingest pipeline in front of the one planner engine
	// every tenant plans on: every deploy and portfolio plan takes one of
	// its slots. The engine's LRU plan cache is keyed by request content,
	// so sharing it leaks no state between tenants.
	pipe *ingest.Pipeline

	// Tenancy. reg owns the namespace directory (quotas, per-tenant
	// stores); states maps tenant name → its in-process state, guarded
	// by tmu (create/delete swap entries, requests only read).
	reg    *tenant.Registry
	tmu    sync.RWMutex
	states map[string]*tenantState

	// ready gates GET /v1/readyz. A handler is born ready unless
	// Options.HoldReady defers it to the caller (the daemon flips it
	// after durable recovery has replayed and its background loops —
	// autopilot, reconciler — are running).
	ready atomic.Bool
}

// Options configures a durable or multi-tenant handler. The zero value
// yields the same in-memory behavior as NewHandler.
type Options struct {
	// Tenants namespaces the handler: every tenant in the registry gets
	// its own fleet/ledger/autopilot state and its own store when the
	// registry is durable. The handler does not own the registry: the
	// caller closes it after the server drains. When nil the handler
	// builds a private in-memory registry holding just the default
	// tenant.
	Tenants *tenant.Registry
	// HoldReady starts the handler not-ready: GET /v1/readyz answers 503
	// until the caller invokes SetReady(true). The daemon uses it to
	// withhold traffic until recovery and its background loops are up.
	HoldReady bool
	// Ingest bounds the deploy and portfolio plans in flight in the
	// pipeline in front of the engine. Nil uses the ingest default.
	Ingest *ingest.Config
	// FaultInjector, when set, exposes the disk-fault debug surface
	// (POST/GET /v1/debug/diskfault) over the injector that backs the
	// tenant stores. Chaos and smoke tooling only — never set it in a
	// deployment that isn't deliberately hurting its own disks.
	FaultInjector *faultfs.Injector
}

// NewHandler builds an in-memory API handler. It owns a tracer backed
// by a flight recorder: every request becomes an "http.request" span
// whose children (engine runs, chaos episodes) land in the recorder,
// and GET /debug/trace serves the retained window.
func NewHandler() *Handler {
	h, err := NewHandlerWith(Options{})
	if err != nil {
		// Unreachable: only recovery replay can fail, and there is none.
		panic(err)
	}
	return h
}

// NewHandlerWith builds the API handler: the planner engine and its
// ingest pipeline, one namespace per registry tenant (replaying each
// tenant's recovered state and journaling every subsequent mutation
// when durable), and the routes.
func NewHandlerWith(opts Options) (*Handler, error) {
	flight := obs.NewFlightRecorder(obs.DefaultFlightSize)
	tracer := obs.NewTracer(flight)
	reg := opts.Tenants
	if reg == nil {
		var err error
		// Private registry: just the default tenant, no quotas — the
		// pre-tenancy handler behavior.
		if reg, err = tenant.Open(tenant.Config{}); err != nil {
			return nil, err
		}
	}
	h := &Handler{
		mux:    http.NewServeMux(),
		tracer: tracer,
		flight: flight,
		reg:    reg,
		states: make(map[string]*tenantState),
	}
	var icfg ingest.Config
	if opts.Ingest != nil {
		icfg = *opts.Ingest
	}
	h.pipe = ingest.New(engine.New(engine.Options{Tracer: tracer}), icfg)
	for _, t := range reg.List() {
		ts := h.newTenantState(t)
		if rec := t.TakeRecovery(); rec != nil {
			if err := ts.restoreFromRecovery(rec); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", t.Name(), err)
			}
		}
		h.states[t.Name()] = ts
	}
	h.ready.Store(!opts.HoldReady)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	h.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	h.mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !h.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
			return
		}
		// Ready but possibly wounded: a degraded tenant serves reads and
		// compute, so the process stays ready — the response names the
		// tenants currently rejecting mutations so probes can see the
		// partial outage.
		out := map[string]any{"ready": true}
		if deg := h.DegradedTenants(); len(deg) > 0 {
			out["degraded"] = deg
		}
		writeJSON(w, http.StatusOK, out)
	})
	h.mux.HandleFunc("GET /v1/algorithms", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"algorithms": append(core.KnownAlgorithms(), PortfolioAlgorithm)})
	})
	h.mux.HandleFunc("POST /v1/deploy", h.admit(requireDurable((*tenantState).deploy)))
	h.mux.HandleFunc("POST /v1/portfolio", h.admit(stateless(h.portfolio)))
	h.mux.HandleFunc("POST /v1/simulate", h.admit(stateless(h.simulate)))
	h.mux.HandleFunc("POST /v1/failover", h.admit(stateless(h.failover)))
	h.mux.HandleFunc("POST /v1/chaos", h.admit(stateless(h.chaos)))
	h.mux.HandleFunc("GET /v1/store/status", h.withTenant((*tenantState).storeStatus))
	h.mux.Handle("GET /metrics", obs.MetricsHandler(obs.Default()))
	h.mux.Handle("GET /debug/trace", obs.TraceHandler(flight))
	h.registerFleet()
	h.registerConvert()
	h.registerAutopilot()
	h.registerDeployments()
	h.registerTenants()
	h.registerSpecs()
	if opts.FaultInjector != nil {
		h.registerDiskFault(opts.FaultInjector)
	}
	return h, nil
}

// SetReady flips the /v1/readyz gate (see Options.HoldReady).
func (h *Handler) SetReady(ready bool) { h.ready.Store(ready) }

// Close stops the ingest pipeline: running plans are cancelled and
// their requests answer 503. Call after the HTTP server has drained;
// safe to call more than once.
func (h *Handler) Close() { h.pipe.Close() }

// IngestStats returns the ingest pipeline's counters, for tests and
// operational introspection.
func (h *Handler) IngestStats() ingest.Stats { return h.pipe.Stats() }

// Ready reports whether the handler is accepting traffic.
func (h *Handler) Ready() bool { return h.ready.Load() }

// Tracer returns the handler's tracer, for callers that want to attach
// extra exporters or inspect the flight recorder in tests.
func (h *Handler) Tracer() *obs.Tracer { return h.tracer }

// statusWriter captures the response code for the request span and
// whether anything reached the wire yet — the panic recovery needs to
// know if a 500 envelope can still be written coherently.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// recoverPanic is the deferred backstop under every request: a handler
// panic becomes the standard 500 JSON envelope (when no response bytes
// have gone out yet; a half-written response stays as-is — the broken
// body is the client's signal) instead of tearing down the connection
// with an opaque EOF. http.ErrAbortHandler keeps its net/http meaning
// and re-panics. Every recovery is counted and logged with the stack.
func (h *Handler) recoverPanic(sw *statusWriter, r *http.Request) {
	rec := recover()
	if rec == nil {
		return
	}
	if rec == http.ErrAbortHandler {
		panic(rec)
	}
	obsPanics.Inc()
	log.Printf("httpapi: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
	if !sw.wrote {
		writeErr(sw, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
	}
}

// ServeHTTP implements http.Handler. Every request is timed into the
// "httpapi.request_seconds" histogram and traced as an "http.request"
// span (metrics/debug endpoints excluded — scrapers would drown the
// flight recorder's window of actual planning work), and every request
// runs under the panic backstop.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	if r.Method == http.MethodGet {
		defer h.recoverPanic(sw, r)
		h.mux.ServeHTTP(sw, r)
		return
	}
	start := time.Now()
	sp := h.tracer.StartSpan("http.request")
	sp.SetAttr("method", r.Method)
	sp.SetAttr("path", r.URL.Path)
	sp.SetAttr("tenant", requestTenant(r))
	// Span end and latency run after the panic recovery (defers are
	// LIFO), so a recovered panic's 500 lands in the span status.
	defer func() {
		sp.SetInt("status", int64(sw.code))
		sp.End()
		obsRequests.ObserveDuration(time.Since(start))
	}()
	defer h.recoverPanic(sw, r)
	h.mux.ServeHTTP(sw, r)
}

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}

// maxPooledBuf is the largest buffer a pool keeps: a large body or
// response is read or encoded once and left to the GC, so one 4 MiB
// request does not stay resident.
const maxPooledBuf = 64 << 10

// jsonWriter is writeJSON's reusable encoding state: the encoder writes
// compact JSON into compact, which is indented into out.
type jsonWriter struct {
	compact, out bytes.Buffer
	enc          *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.compact)
	return jw
}}

// writeJSON answers v as two-space-indented JSON with a trailing
// newline, byte for byte what a json.Encoder with SetIndent("", "  ")
// writes: that encoder indents its compact output the same way. As with
// that encoder, a value that fails to encode gets an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	jw := jsonWriters.Get().(*jsonWriter)
	jw.compact.Reset()
	jw.out.Reset()
	if jw.enc.Encode(v) == nil && json.Indent(&jw.out, jw.compact.Bytes(), "", "  ") == nil {
		// Writing to a live ResponseWriter can only fail on connection
		// errors, which the client observes anyway.
		_, _ = w.Write(jw.out.Bytes())
	}
	if jw.compact.Cap() <= maxPooledBuf && jw.out.Cap() <= maxPooledBuf {
		jsonWriters.Put(jw)
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// writeRetry sheds a request: code, a Retry-After hint of after in
// whole seconds, rounded up (none when after is not positive), and the
// standard JSON error envelope.
func writeRetry(w http.ResponseWriter, code int, after time.Duration, err error) {
	if after > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(after.Seconds()))))
	}
	writeErr(w, code, err)
}

// decodeBody decodes a bounded JSON body into v, rejecting unknown
// fields. On failure it writes the error response itself — 413 with
// the standard JSON envelope when the body exceeds MaxRequestBytes,
// 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, MaxRequestBytes), v)
}

// decodeFrom is decodeBody over a body already bounded by
// MaxRequestBytes.
func decodeFrom(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// pair decodes the workflow and network specs shared by every request.
type pairSpec struct {
	Workflow json.RawMessage `json:"workflow"`
	Network  json.RawMessage `json:"network"`
}

func (p pairSpec) build() (*workflow.Workflow, *network.Network, error) {
	if len(p.Workflow) == 0 || len(p.Network) == 0 {
		return nil, nil, fmt.Errorf("request needs both workflow and network")
	}
	w, err := wfio.Workflow(p.Workflow)
	if err != nil {
		return nil, nil, err
	}
	n, err := wfio.Network(p.Network)
	if err != nil {
		return nil, nil, err
	}
	return w, n, nil
}

// Metrics is the cost report attached to planned mappings.
type Metrics struct {
	ExecTime    float64   `json:"execTime"`
	TimePenalty float64   `json:"timePenalty"`
	Combined    float64   `json:"combined"`
	Makespan    float64   `json:"makespanEstimate"`
	Loads       []float64 `json:"loads"`
}

// metricsOf reports the metrics the engine computed for plan p.
func metricsOf(p *engine.Plan) Metrics {
	return Metrics{
		ExecTime:    p.ExecTime,
		TimePenalty: p.TimePenalty,
		Combined:    p.Combined,
		Makespan:    p.Makespan,
		Loads:       p.Loads,
	}
}

// decodeInstance builds the workflow, from its JSON spec or WDL
// source, and the network a planning request carries.
func decodeInstance(spec json.RawMessage, wdlSrc string, net []byte) (*workflow.Workflow, *network.Network, error) {
	wf, err := decodeWorkflowField(spec, wdlSrc)
	if err != nil {
		return nil, nil, err
	}
	if len(net) == 0 {
		return nil, nil, fmt.Errorf("request needs a network")
	}
	n, err := wfio.Network(net)
	if err != nil {
		return nil, nil, err
	}
	return wf, n, nil
}

// plan runs req through the ingest pipeline under the request's
// context, bounded by timeoutMs when positive, and returns its result
// with a nil error or engine.ErrDeadline. On any other error it answers
// 503 (shed or closed) or 400 itself and returns a nil result.
func (h *Handler) plan(w http.ResponseWriter, r *http.Request, req engine.Request, timeoutMs int64) (*engine.Result, error) {
	ctx := r.Context()
	if timeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := h.pipe.Submit(ctx, req)
	switch {
	case err == nil || errors.Is(err, engine.ErrDeadline):
		return res, err
	case errors.Is(err, ingest.ErrBacklog):
		writeRetry(w, http.StatusServiceUnavailable, ingest.RetryAfter, err)
	case errors.Is(err, ingest.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
	return nil, err
}

// deployRequest plans one deployment. The workflow arrives either as the
// wfio JSON spec (workflow) or as workflow definition language source
// (workflowWdl). Algorithm "portfolio" races every registry algorithm
// and returns the winner. TimeoutMs, when positive, bounds planning time:
// on expiry the best mapping found so far is returned with truncated
// set. Its JSON names are deployKeys, which the in-place decode accepts
// (see envelope.go).
type deployRequest struct {
	// Workflow and Network alias the request body (see inPlace).
	Workflow inPlace `json:"workflow"`
	Network  inPlace `json:"network"`
	// ID names the deployment in the durable ledger (GET
	// /v1/deployments). Empty auto-assigns "dep-<n>", a form no client
	// may name (reservedID).
	ID          string  `json:"id,omitempty"`
	WorkflowWDL string  `json:"workflowWdl,omitempty"`
	Algorithm   string  `json:"algorithm"`
	Seed        uint64  `json:"seed"`
	TimeoutMs   int64   `json:"timeoutMs,omitempty"`
	MaxExecTime float64 `json:"maxExecTime,omitempty"`
	MaxPenalty  float64 `json:"maxTimePenalty,omitempty"`
	MaxLoad     float64 `json:"maxServerLoad,omitempty"`
	MaxMakespan float64 `json:"maxMakespan,omitempty"`
}

// deployResponse is the planning result.
type deployResponse struct {
	ID        string  `json:"id,omitempty"`
	Algorithm string  `json:"algorithm"`
	Mapping   []int   `json:"mapping"`
	Metrics   Metrics `json:"metrics"`
	Cached    bool    `json:"cached,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
}

func (ts *tenantState) deploy(w http.ResponseWriter, r *http.Request) {
	var req deployRequest
	wf, n, ok := req.decode(w, r)
	if !ok {
		return
	}
	if reservedID(req.ID) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("id %q has the form dep-<n>, which only auto-assigned deployments take", req.ID))
		return
	}
	name := req.Algorithm
	if name == "" {
		name = "holm"
	}
	ereq := engine.Request{Workflow: wf, Network: n, Seed: req.Seed}
	if name != PortfolioAlgorithm {
		// Single algorithm, still through the engine for caching,
		// metrics and deadline support.
		ereq.Algorithms = []string{name}
	}
	res, err := ts.h.plan(w, r, ereq, req.TimeoutMs)
	if res == nil {
		return
	}
	if res.Best == nil {
		if errors.Is(err, engine.ErrDeadline) {
			writeErr(w, http.StatusGatewayTimeout, fmt.Errorf("deadline expired before any algorithm produced a mapping"))
			return
		}
		if name == PortfolioAlgorithm {
			writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("no algorithm produced a mapping for this configuration"))
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("%s", res.Plans[0].Err))
		return
	}
	best := res.Best
	cons := cost.Constraints{
		MaxExecTime:    req.MaxExecTime,
		MaxTimePenalty: req.MaxPenalty,
		MaxServerLoad:  req.MaxLoad,
		MaxMakespan:    req.MaxMakespan,
	}
	if !cons.Unconstrained() {
		if err := cons.Check(cost.NewModel(wf, n), best.Mapping); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
	}
	resp := deployResponse{
		Algorithm: best.Name,
		Mapping:   best.Mapping,
		Metrics:   metricsOf(best),
		Cached:    best.FromCache,
		Truncated: res.Truncated,
	}
	id, err := ts.commitDeployment(req.ID, resp)
	if err != nil {
		// commitDeployment fails on a journal error (503) or a named id the
		// ledger already holds (409).
		writeMutationErr(w, err, http.StatusConflict)
		return
	}
	resp.ID = id
	writeJSON(w, http.StatusOK, resp)
}

// portfolioRequest races a portfolio of algorithms and reports the full
// leaderboard. Algorithms defaults to the whole registry.
type portfolioRequest struct {
	pairSpec
	WorkflowWDL string   `json:"workflowWdl,omitempty"`
	Algorithms  []string `json:"algorithms,omitempty"`
	Seed        uint64   `json:"seed"`
	TimeoutMs   int64    `json:"timeoutMs,omitempty"`
}

// portfolioRow is one leaderboard entry.
type portfolioRow struct {
	Algorithm string   `json:"algorithm"`
	Key       string   `json:"key"`
	Mapping   []int    `json:"mapping,omitempty"`
	Metrics   *Metrics `json:"metrics,omitempty"`
	ElapsedMs float64  `json:"elapsedMs"`
	Cached    bool     `json:"cached,omitempty"`
	Truncated bool     `json:"truncated,omitempty"`
	Error     string   `json:"error,omitempty"`
}

func (h *Handler) portfolio(w http.ResponseWriter, r *http.Request) {
	var req portfolioRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wf, n, err := decodeInstance(req.Workflow, req.WorkflowWDL, req.Network)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := h.plan(w, r, engine.Request{
		Workflow:   wf,
		Network:    n,
		Algorithms: req.Algorithms,
		Seed:       req.Seed,
	}, req.TimeoutMs)
	if res == nil {
		return
	}
	board := make([]portfolioRow, 0, len(res.Plans))
	for _, p := range res.Leaderboard() {
		row := portfolioRow{
			Algorithm: p.Name,
			Key:       p.Key,
			ElapsedMs: float64(p.Elapsed) / float64(time.Millisecond),
			Cached:    p.FromCache,
			Truncated: p.Truncated,
			Error:     p.Err,
		}
		if p.Mapping != nil {
			m := metricsOf(&p)
			row.Mapping = p.Mapping
			row.Metrics = &m
		}
		board = append(board, row)
	}
	out := map[string]any{
		"leaderboard": board,
		"cacheHits":   res.CacheHits,
		"cacheMisses": res.CacheMisses,
		"truncated":   res.Truncated,
	}
	if res.Best != nil {
		out["best"] = deployResponse{
			Algorithm: res.Best.Name,
			Mapping:   res.Best.Mapping,
			Metrics:   metricsOf(res.Best),
			Cached:    res.Best.FromCache,
			Truncated: res.Best.Truncated,
		}
	}
	code := http.StatusOK
	if res.Best == nil && errors.Is(err, engine.ErrDeadline) {
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, out)
}

// These bound the work one request may ask for. sim.Simulate sizes two
// slices by the run count, so a huge count exhausts memory, a fatal
// error no panic backstop catches, and takes every tenant down; the
// chaos study loops once per episode; an autopilot run keeps one
// window record per window and simulates every arrival (its peak rate
// times its horizon).
const (
	maxSimulateRuns      = 100_000
	maxChaosEpisodes     = 10_000
	maxAutopilotWindows  = 100_000
	maxAutopilotArrivals = 1_000_000
)

// simulateRequest Monte-Carlo simulates a mapping.
type simulateRequest struct {
	pairSpec
	Mapping       []int  `json:"mapping"`
	Runs          int    `json:"runs"`
	Seed          uint64 `json:"seed"`
	BusContention bool   `json:"busContention"`
}

func (h *Handler) simulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Runs > maxSimulateRuns {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("runs %d exceeds the limit of %d", req.Runs, maxSimulateRuns))
		return
	}
	wf, n, err := req.build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := sim.Simulate(wf, n, deploy.Mapping(req.Mapping), sim.Config{
		Runs:          req.Runs,
		Seed:          req.Seed,
		BusContention: req.BusContention,
	})
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"runs":           res.Runs,
		"makespanMean":   res.Makespan.Mean,
		"makespanP95":    res.Makespan.P95,
		"serialTimeMean": res.SerialTime.Mean,
		"meanBusy":       res.MeanBusy,
		"meanBitsSent":   res.MeanBits,
		"meanMessages":   res.MeanMessages,
	})
}

// failoverRequest recovers from a server failure.
type failoverRequest struct {
	pairSpec
	Mapping []int  `json:"mapping"`
	Failed  int    `json:"failed"`
	Mode    string `json:"mode"` // "repair" (default) or "redeploy"
	Seed    uint64 `json:"seed"`
}

func (h *Handler) failover(w http.ResponseWriter, r *http.Request) {
	var req failoverRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wf, n, err := req.build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mode := core.RepairOrphans
	switch req.Mode {
	case "", "repair":
	case "redeploy":
		mode = core.FullRedeploy
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (repair|redeploy)", req.Mode))
		return
	}
	res, err := core.Failover(wf, n, deploy.Mapping(req.Mapping), req.Failed, mode, core.HOLM{})
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":      mode.String(),
		"mapping":   res.Mapping,
		"orphans":   res.Orphans,
		"moved":     res.Moved,
		"scaleUp":   res.ScaleUp,
		"survivors": res.Network.N(),
		"before":    Metrics{ExecTime: res.Before.ExecTime, TimePenalty: res.Before.TimePenalty, Combined: res.Before.Combined, Loads: res.Before.Loads},
		"after":     Metrics{ExecTime: res.After.ExecTime, TimePenalty: res.After.TimePenalty, Combined: res.After.Combined, Loads: res.After.Loads},
	})
}
