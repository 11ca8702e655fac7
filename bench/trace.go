package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/engine"
	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/httpapi"
	"wsdeploy/internal/ingest"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
	"wsdeploy/internal/wfio"
)

// The traced run gives the per-layer numbers. It changes nothing inside
// the program: it builds the stack in-process from public constructors
// and times the calls into each layer from here. Spans are kept in
// memory and written out when the run ends.

// span is one timed call. Spans of one operation share Req; Parent is the
// span that made the call.
type span struct {
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Req      int64  `json:"req,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the traced run began
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"` // duration minus the time child spans cover
	Bytes    int64  `json:"bytes,omitempty"`
}

// recorder collects spans in memory.
type recorder struct {
	workload string
	t0       time.Time
	ids      atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

// add records a finished span under a pre-allocated id.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time, bytes int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Workload: r.workload, ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Bytes: bytes,
	})
	r.mu.Unlock()
}

// timed runs fn as a root span and returns its duration.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(r.newID(), 0, 0, name, start, end, 0)
	return end.Sub(start)
}

// withSelf returns the spans with self time filled in.
func (r *recorder) withSelf() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range out {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range out {
		out[i].Self = (out[i].End - out[i].Start) - covered(out[i], kids[out[i].ID])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// covered is how much of p's interval the union of its children covers.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// opAcc accumulates the store activity of one traced request.
type opAcc struct {
	fsyncs, snapshots int
	bytes             int64
}

// inflight is the traced request the single sender has in flight: its
// handler span, so store calls nest under it, and its accumulator.
type inflight struct {
	span, req int64
	acc       *opAcc
}

// timingFS times the store's filesystem calls and charges them to the
// traced request in flight. One sender means one request at a time, so
// every write and fsync belongs to exactly that request.
type timingFS struct {
	faultfs.FS
	rec       *recorder
	cur       atomic.Pointer[inflight]
	snapStart atomic.Int64 // unix ns of the open snapshot temp file, 0: none
	fsyncs    []float64    // ms, traced requests only
	mu        sync.Mutex
	snapMs    []float64
}

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	// A store snapshot writes snap-<seq>.bin.tmp first and ends by
	// swapping the compacted wal.log into place (see internal/store).
	if base := filepath.Base(name); strings.HasPrefix(base, "snap-") && strings.HasSuffix(base, ".tmp") {
		f.snapStart.Store(time.Now().UnixNano())
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if filepath.Base(newpath) == "wal.log" {
		if start := f.snapStart.Swap(0); start != 0 {
			begun, end := time.Unix(0, start), time.Now()
			var parent, req int64
			if c := f.cur.Load(); c != nil {
				parent, req = c.span, c.req
				c.acc.snapshots++
			}
			f.rec.add(f.rec.newID(), parent, req, "store.snapshot", begun, end, 0)
			f.mu.Lock()
			f.snapMs = append(f.snapMs, ms(end.Sub(begun)))
			f.mu.Unlock()
		}
	}
	return err
}

type timingFile struct {
	faultfs.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	c := t.fs.cur.Load()
	if c == nil {
		return t.File.Write(p)
	}
	start := time.Now()
	n, err := t.File.Write(p)
	t.fs.rec.add(t.fs.rec.newID(), c.span, c.req, "store.write", start, time.Now(), int64(n))
	c.acc.bytes += int64(n)
	return n, err
}

func (t *timingFile) Sync() error {
	c := t.fs.cur.Load()
	if c == nil {
		return t.File.Sync()
	}
	start := time.Now()
	err := t.File.Sync()
	end := time.Now()
	t.fs.rec.add(t.fs.rec.newID(), c.span, c.req, "store.fsync", start, end, 0)
	c.acc.fsyncs++
	t.fs.mu.Lock()
	t.fs.fsyncs = append(t.fs.fsyncs, ms(end.Sub(start)))
	t.fs.mu.Unlock()
	return err
}

// Request headers that carry a traced operation from the client wrapper
// to the handler wrapper.
const (
	hdrOp     = "X-Bench-Op"     // operation id; absent: untraced
	hdrParent = "X-Bench-Parent" // client request span id
	hdrCall   = "X-Bench-Call"   // HTTP call id, unique per request
)

// timedHandler wraps the API handler in an "httpapi.handler" span for
// traced requests and points the filesystem timer at it.
type timedHandler struct {
	h   http.Handler
	fs  *timingFS
	rec *recorder
	// durs maps a call id to its handler duration and store activity.
	durs sync.Map
}

type handled struct {
	dur time.Duration
	acc opAcc
}

func (th *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := r.Header.Get(hdrOp)
	if op == "" {
		th.h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(op, 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	c := &inflight{span: th.rec.newID(), req: req, acc: &opAcc{}}
	start := time.Now()
	th.fs.cur.Store(c)
	th.h.ServeHTTP(w, r)
	th.fs.cur.Store(nil)
	end := time.Now()
	th.rec.add(c.span, parent, req, "httpapi.handler", start, end, 0)
	th.durs.Store(r.Header.Get(hdrCall), handled{dur: end.Sub(start), acc: *c.acc})
}

// opKey carries a traced operation's identity in its context.
type opKey struct{}

type opInfo struct {
	id, span int64 // operation id and its client.op span
	calls    *[]call
}

// call is one HTTP request of a traced operation, as the client saw it.
type call struct {
	rtt time.Duration
	handled
}

// timedTransport stamps traced requests with their ids, times each
// round trip until the body is closed, and collects the handler's side.
type timedTransport struct {
	base  http.RoundTripper
	th    *timedHandler
	rec   *recorder
	calls atomic.Int64
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, ok := req.Context().Value(opKey{}).(*opInfo)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	callID := strconv.FormatInt(tt.calls.Add(1), 10)
	spanID := tt.rec.newID()
	req = req.Clone(req.Context())
	req.Header.Set(hdrOp, strconv.FormatInt(op.id, 10))
	req.Header.Set(hdrParent, strconv.FormatInt(spanID, 10))
	req.Header.Set(hdrCall, callID)
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		tt.rec.add(spanID, op.span, op.id, "client.request", start, end, 0)
		c := call{rtt: end.Sub(start)}
		if v, ok := tt.th.durs.LoadAndDelete(callID); ok {
			c.handled = v.(handled)
		}
		*op.calls = append(*op.calls, c)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// layerDefs are the per-layer metrics the traced run reports, in print
// order, with their units.
func layerDefs() []metricDef {
	var defs []metricDef
	for _, k := range core.RegistryOrder() {
		defs = append(defs, metricDef{"core." + k + ".ms", "ms"})
	}
	defs = append(defs,
		metricDef{"cost.evaluate_ns", "ns"},
		metricDef{"cost.evaluate_allocs", "allocs"},
		metricDef{"engine.run_ms", "ms"},
		metricDef{"engine.alloc_mb_per_run", "MiB"},
	)
	for _, k := range core.RegistryOrder() {
		defs = append(defs, metricDef{"engine.win_share." + k, "ratio"})
	}
	return append(defs,
		metricDef{"engine.cache_hit_ratio", "ratio"},
		metricDef{"engine.cached_run_us", "us"},
		metricDef{"ingest.wait_ms_p50", "ms"},
		metricDef{"ingest.wait_ms_p95", "ms"},
		metricDef{"ingest.batch_size_mean", "requests"},
		metricDef{"ingest.coalesce_ratio", "ratio"},
		metricDef{"httpapi.handler_us_p50", "us"},
		metricDef{"httpapi.handler_us_p95", "us"},
		metricDef{"httpapi.decode_us", "us"},
		metricDef{"httpapi.transport_us", "us"},
		metricDef{"store.fsync_ms_p50", "ms"},
		metricDef{"store.fsync_ms_p95", "ms"},
		metricDef{"store.fsyncs_per_op", "count"},
		metricDef{"store.bytes_per_op", "bytes"},
		metricDef{"store.snapshot_ms_p50", "ms"},
		metricDef{"store.snapshots_per_1k_ops", "count"},
		metricDef{"reconcile.pass_ms_p50", "ms"},
		metricDef{"reconcile.passes_per_revision", "count"},
		metricDef{"reconcile.actions_per_revision", "count"},
		metricDef{"manager.deploy_us", "us"},
		metricDef{"manager.status_us", "us"},
		metricDef{"bench.gen_late_ms_p99", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}

// traceResult is one workload's traced run.
type traceResult struct {
	Layers    map[string]float64 `json:"layers"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	spans     []span
}

// runTrace runs the traced probes for one workload in about dur: the
// HTTP stack for half of it, the ingest pipeline for a fifth, then
// bounded direct calls into core, cost, engine, reconcile and manager.
func runTrace(ctx context.Context, tmp string, wl *workload, seed uint64, dur time.Duration) (*traceResult, error) {
	in, err := newInputs(seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(wl.name)
	res := &traceResult{Layers: map[string]float64{}}
	rng := stats.NewRNG(seed ^ 0x7ace)

	stopPacer := pacer(ctx, seed^0x9ace)
	err = httpProbe(ctx, tmp, rec, wl, in, rng, dur/2, res)
	if err == nil {
		err = ingestProbe(ctx, rec, wl, in, rng, dur/5, res)
	}
	late := stopPacer()
	if err != nil {
		return nil, err
	}
	if res.Layers["bench.gen_late_ms_p99"], err = percentile(late, 0.99); err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	if err := directProbes(rec, wl, in, seed, res); err != nil {
		return nil, err
	}
	res.spans = rec.withSelf()
	for _, def := range layerDefs() {
		v, ok := res.Layers[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("traced run of %s produced no value for %s", wl.name, def.name)
		}
	}
	return res, nil
}

// httpProbe serves the workload's schedule from one sender through the
// durable API handler in-process: tenant.Open with per-record fsync over
// a timing filesystem, httpapi.NewHandlerWith, a timing handler, served
// over httptest. A seeded coin traces half the operations; the untraced
// half gives the tracing overhead. A coin, not alternation, because
// snapshots recur every 256 records and would always land on the same
// half.
func httpProbe(ctx context.Context, tmp string, rec *recorder, wl *workload, in *inputs, rng *stats.RNG, dur time.Duration, res *traceResult) error {
	dir, err := os.MkdirTemp(tmp, "trace-"+wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tfs := &timingFS{FS: faultfs.OS(), rec: rec}
	reg, err := tenant.Open(tenant.Config{DataDir: dir, Store: store.Options{Sync: store.SyncAlways, FS: tfs}})
	if err != nil {
		return err
	}
	defer reg.Close()
	api, err := httpapi.NewHandlerWith(httpapi.Options{Tenants: reg})
	if err != nil {
		return err
	}
	defer api.Close()
	th := &timedHandler{h: api, fs: tfs, rec: rec}
	srv := httptest.NewServer(th)
	defer srv.Close()
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer base.CloseIdleConnections()
	cl := &http.Client{Transport: &timedTransport{base: base, th: th, rec: rec}, Timeout: time.Minute}
	s := newSession(in, srv.URL, cl, 1)
	if err := wl.loadFixture(ctx, s); err != nil {
		return fmt.Errorf("loading the %s fixture in-process: %w", wl.name, err)
	}
	run := func(ctx context.Context, stream, seq int) error { return wl.streams[stream].run(ctx, s, seq) }
	for _, smp := range runOpen(ctx, schedule(rng, wl.rates(), time.Second), 1, run).samples {
		if smp.err != nil {
			return fmt.Errorf("%s warm-up in-process: %w", wl.name, smp.err)
		}
	}

	type opRecord struct {
		stream int
		traced bool
		sent   time.Duration // from send to return
		calls  []call
	}
	var ops []opRecord
	var mu sync.Mutex
	arrivals := schedule(rng, wl.rates(), dur)
	traced := make([]bool, len(arrivals))
	for i := range traced {
		traced[i] = rng.Bool(0.5)
	}
	hits0, misses0 := engine.M.CacheHits.Value(), engine.M.CacheMisses.Value()
	out := runOpen(ctx, arrivals, 1, func(ctx context.Context, stream, seq int) error {
		o := opRecord{stream: stream, traced: traced[seq]}
		info := &opInfo{id: int64(seq + 1), span: rec.newID(), calls: &o.calls}
		if o.traced {
			ctx = context.WithValue(ctx, opKey{}, info)
		}
		start := time.Now()
		err := run(ctx, stream, seq)
		end := time.Now()
		if o.traced {
			rec.add(info.span, 0, info.id, "client.op", start, end, 0)
		}
		o.sent = end.Sub(start)
		mu.Lock()
		ops = append(ops, o)
		mu.Unlock()
		return err
	})
	hits, misses := float64(engine.M.CacheHits.Value()-hits0), float64(engine.M.CacheMisses.Value()-misses0)
	for _, smp := range out.samples {
		res.Attempted++
		if smp.err != nil {
			res.Failed++
			var ce *checkError
			if errors.As(smp.err, &ce) {
				res.Checks = append(res.Checks, smp.err.Error())
			}
		}
	}
	// Every workload times at least one snapshot, even one too short to
	// reach the snapshot threshold.
	if err := api.SnapshotNow(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}

	var handlerUs, transportUs, tracedMs, plainMs []float64
	var acc opAcc
	primaries := 0
	for _, o := range ops {
		if o.stream != 0 {
			continue
		}
		if !o.traced {
			plainMs = append(plainMs, ms(o.sent))
			continue
		}
		primaries++
		tracedMs = append(tracedMs, ms(o.sent))
		var h time.Duration
		for _, c := range o.calls {
			h += c.dur
			transportUs = append(transportUs, us(c.rtt-c.dur))
			acc.fsyncs += c.acc.fsyncs
			acc.bytes += c.acc.bytes
			acc.snapshots += c.acc.snapshots
		}
		handlerUs = append(handlerUs, us(h))
	}
	if primaries == 0 {
		return fmt.Errorf("traced run of %s completed no traced primary operation", wl.name)
	}
	L := res.Layers
	L["engine.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		L["engine.cache_hit_ratio"] = hits / (hits + misses)
	}
	L["httpapi.handler_us_p50"] = quantile(handlerUs, 0.50)
	L["httpapi.handler_us_p95"] = quantile(handlerUs, 0.95)
	L["httpapi.transport_us"] = median(transportUs)
	L["store.fsync_ms_p50"] = quantile(tfs.fsyncs, 0.50)
	L["store.fsync_ms_p95"] = quantile(tfs.fsyncs, 0.95)
	L["store.fsyncs_per_op"] = float64(acc.fsyncs) / float64(primaries)
	L["store.bytes_per_op"] = float64(acc.bytes) / float64(primaries)
	L["store.snapshot_ms_p50"] = quantile(tfs.snapMs, 0.50)
	L["store.snapshots_per_1k_ops"] = 1000 * float64(acc.snapshots) / float64(primaries)
	L["bench.trace_overhead_pct"] = 100 * (median(tracedMs)/median(plainMs) - 1)
	return nil
}

// timedPlanner times the engine runs the ingest pipeline makes, keyed by
// the result each run hands to its waiters.
type timedPlanner struct {
	*engine.Engine
	rec  *recorder
	mu   sync.Mutex
	runs map[*engine.Result]time.Duration
}

func (p *timedPlanner) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	start := time.Now()
	res, err := p.Engine.Run(ctx, req)
	end := time.Now()
	p.rec.add(p.rec.newID(), 0, 0, "engine.run", start, end, 0)
	p.mu.Lock()
	p.runs[res] = end.Sub(start)
	p.mu.Unlock()
	return res, err
}

// ingestProbe drives an ingest pipeline over a timed planner with two
// submitters on the workload's planning schedule. A request's wait is
// its Submit time minus the engine run that served it.
func ingestProbe(ctx context.Context, rec *recorder, wl *workload, in *inputs, rng *stats.RNG, dur time.Duration, res *traceResult) error {
	tp := &timedPlanner{Engine: engine.MustNew(engine.Options{}), rec: rec, runs: map[*engine.Result]time.Duration{}}
	pipe := ingest.New(tp, ingest.Config{})
	defer pipe.Close()
	var (
		mu    sync.Mutex
		waits []float64
		seeds atomic.Uint64
	)
	out := runOpen(ctx, schedule(rng, wl.rates(), dur), 2, func(ctx context.Context, stream, seq int) error {
		st := wl.streams[stream]
		if st.set == nil {
			return nil
		}
		req := st.set(in).request(seq, seeds.Add(1))
		start := time.Now()
		r, err := pipe.Submit(ctx, req)
		end := time.Now()
		if err != nil {
			return err
		}
		rec.add(rec.newID(), 0, int64(seq+1), "ingest.submit", start, end, 0)
		tp.mu.Lock()
		run := tp.runs[r]
		tp.mu.Unlock()
		mu.Lock()
		waits = append(waits, ms(end.Sub(start)-run))
		mu.Unlock()
		return nil
	})
	for _, smp := range out.samples {
		if smp.err != nil {
			return fmt.Errorf("ingest probe: %w", smp.err)
		}
	}
	st := pipe.Stats()
	if st.Submitted == 0 || st.Batches == 0 {
		return fmt.Errorf("ingest probe of %s submitted nothing", wl.name)
	}
	L := res.Layers
	L["ingest.wait_ms_p50"] = quantile(waits, 0.50)
	L["ingest.wait_ms_p95"] = quantile(waits, 0.95)
	L["ingest.batch_size_mean"] = float64(st.Submitted) / float64(st.Batches)
	L["ingest.coalesce_ratio"] = float64(st.Coalesced) / float64(st.Submitted)
	return nil
}

// request builds an engine request for one class of the set.
func (set *deploySet) request(seq int, seed uint64) engine.Request {
	req := engine.Request{Workflow: set.ws[seq%len(set.ws)], Network: set.n, Seed: seed}
	if set.algorithm != httpapi.PortfolioAlgorithm {
		req.Algorithms = []string{set.algorithm}
	}
	return req
}

var sink float64

// directProbes times bounded direct calls into core, cost, engine,
// reconcile, manager and the request decoders, on the workload's
// primary planning instance.
func directProbes(rec *recorder, wl *workload, in *inputs, seed uint64, res *traceResult) error {
	set := wl.streams[0].set(in)
	L := res.Layers

	// Every registry algorithm, sequentially, three rounds over classes.
	perKey := map[string][]float64{}
	for round := 0; round < 3; round++ {
		w := set.ws[round%len(set.ws)]
		for _, k := range core.RegistryOrder() {
			alg, err := core.NewByName(k, seed+uint64(round))
			if err != nil {
				return err
			}
			d := rec.timed("core."+k, func() { _, _ = alg.Deploy(w, set.n) })
			perKey[k] = append(perKey[k], ms(d))
		}
	}
	for k, v := range perKey {
		L["core."+k+".ms"] = median(v)
	}

	w := set.ws[0]
	model := cost.NewModel(w, set.n)
	mp, err := (core.FairLoad{}).Deploy(w, set.n)
	if err != nil {
		return err
	}
	const evals = 20000
	d := rec.timed("cost.evaluate", func() {
		for i := 0; i < evals; i++ {
			sink += model.Evaluate(mp).Combined
		}
	})
	L["cost.evaluate_ns"] = float64(d.Nanoseconds()) / evals
	L["cost.evaluate_allocs"] = testing.AllocsPerRun(200, func() { sink += model.Evaluate(mp).Combined })

	// The whole portfolio, uncached, on three classes.
	eng := engine.MustNew(engine.Options{CacheSize: -1})
	wins := map[string]int{}
	var runMs []float64
	var m0, m1 runtime.MemStats
	const runs = 3
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		var r *engine.Result
		var err error
		d := rec.timed("engine.run", func() {
			r, err = eng.Run(context.Background(), engine.Request{Workflow: set.ws[i%len(set.ws)], Network: set.n, Seed: seed + uint64(i)})
		})
		if err != nil {
			return err
		}
		if r.Best == nil {
			return fmt.Errorf("portfolio found no mapping for %s", wl.name)
		}
		wins[r.Best.Key]++
		runMs = append(runMs, ms(d))
	}
	runtime.ReadMemStats(&m1)
	L["engine.run_ms"] = median(runMs)
	L["engine.alloc_mb_per_run"] = float64(m1.TotalAlloc-m0.TotalAlloc) / runs / (1 << 20)
	for _, k := range core.RegistryOrder() {
		L["engine.win_share."+k] = float64(wins[k]) / runs
	}

	// The workload's own request against a warm plan cache.
	cached := engine.MustNew(engine.Options{})
	req := set.request(0, 1)
	if _, err := cached.Run(context.Background(), req); err != nil {
		return err
	}
	var cachedUs []float64
	for i := 0; i < 300; i++ {
		d := rec.timed("engine.run.cached", func() { _, err = cached.Run(context.Background(), req) })
		if err != nil {
			return err
		}
		cachedUs = append(cachedUs, us(d))
	}
	L["engine.cached_run_us"] = median(cachedUs)

	if err := reconcileProbe(rec, set, L); err != nil {
		return err
	}
	managerProbe(rec, set, L)
	return decodeProbe(rec, wl, in, L)
}

// reconcileProbe converges a spec over the set's workflows, then revises
// it, one workflow swapped per revision, reconciling each to convergence.
func reconcileProbe(rec *recorder, set *deploySet, L map[string]float64) error {
	slots := min(len(set.ws), specSlots)
	ids := make([]string, slots)
	pick := make([]int, slots)
	for i := range ids {
		ids[i], pick[i] = fmt.Sprintf("w%d", i), i
	}
	specOf := func() reconcile.Spec {
		sp := reconcile.Spec{Network: set.netJSON}
		for i := range ids {
			sp.Workflows = append(sp.Workflows, reconcile.WorkflowSpec{ID: ids[i], Workflow: set.wfJSON[pick[i]]})
		}
		return sp
	}
	sset := reconcile.NewSet()
	exec := &reconcile.FleetExecutor{CreateFleet: func(n *network.Network) (*manager.Locked, error) {
		return manager.NewLocked(n), nil
	}}
	r := reconcile.New(sset, exec, reconcile.Config{})
	var passMs []float64
	converge := func() (passes, actions int, err error) {
		for passes < 16 {
			var pr reconcile.PassResult
			d := rec.timed("reconcile.pass", func() { pr = r.RunPass(0) })
			passes++
			actions += len(pr.Actions)
			passMs = append(passMs, ms(d))
			for _, a := range pr.Actions {
				if a.Err != "" {
					return passes, actions, fmt.Errorf("reconcile action %s", a)
				}
			}
			if pr.Converged {
				return passes, actions, nil
			}
		}
		return passes, actions, fmt.Errorf("spec did not converge in 16 passes")
	}
	sset.Put("app", specOf())
	if _, _, err := converge(); err != nil {
		return err
	}
	const revisions = 24
	var passes, actions []float64
	for rev := 0; rev < revisions; rev++ {
		slot := rev % slots
		ids[slot] = fmt.Sprintf("w%d-r%d", slot, rev)
		pick[slot] = (pick[slot] + 1 + rev) % len(set.ws)
		sset.Put("app", specOf())
		p, a, err := converge()
		if err != nil {
			return err
		}
		passes = append(passes, float64(p))
		actions = append(actions, float64(a))
	}
	L["reconcile.pass_ms_p50"] = median(passMs)
	L["reconcile.passes_per_revision"] = mean(passes)
	L["reconcile.actions_per_revision"] = mean(actions)
	return nil
}

// managerProbe times manager.Locked placement and status on the set.
func managerProbe(rec *recorder, set *deploySet, L map[string]float64) {
	fleet := manager.NewLocked(set.n)
	var deployUs, statusUs []float64
	for i := 0; i < 120; i++ {
		id := fmt.Sprintf("m%d", i)
		w := set.ws[i%len(set.ws)]
		var err error
		deployUs = append(deployUs, us(rec.timed("manager.deploy", func() { err = fleet.Deploy(id, w) })))
		if err != nil {
			continue
		}
		statusUs = append(statusUs, us(rec.timed("manager.status", func() { _ = fleet.Status() })))
		if i >= len(set.ws) {
			_ = fleet.Remove(fmt.Sprintf("m%d", i-len(set.ws)))
		}
	}
	L["manager.deploy_us"] = median(deployUs)
	L["manager.status_us"] = median(statusUs)
}

// decodeProbe times decoding the primary operation's request payload
// with the decoders the handler uses: wfio for a deploy, spec
// compilation for a spec revision.
func decodeProbe(rec *recorder, wl *workload, in *inputs, L map[string]float64) error {
	var decode func() error
	if st := wl.streams[0]; st.op == nil {
		ds := st.set(in)
		decode = func() error {
			if _, err := wfio.DecodeWorkflow(bytes.NewReader(ds.wfJSON[0])); err != nil {
				return err
			}
			_, err := wfio.DecodeNetwork(bytes.NewReader(ds.netJSON))
			return err
		}
	} else {
		s := newSession(in, "", nil, 0)
		body, err := s.specBody(true)
		if err != nil {
			return err
		}
		decode = func() error {
			var req struct {
				Name string         `json:"name"`
				Spec reconcile.Spec `json:"spec"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			_, err := req.Spec.Compile()
			return err
		}
	}
	var decodeUs []float64
	for i := 0; i < 200; i++ {
		var err error
		decodeUs = append(decodeUs, us(rec.timed("decode", func() { err = decode() })))
		if err != nil {
			return err
		}
	}
	L["httpapi.decode_us"] = median(decodeUs)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
