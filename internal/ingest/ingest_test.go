package ingest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsdeploy/internal/engine"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// fixture returns k distinct small workflows over a shared 4-server bus.
func fixture(t testing.TB, k int) ([]*workflow.Workflow, *network.Network) {
	t.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(11)
	n, err := cfg.BusNetworkWithSpeed(r, 4, 100*gen.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*workflow.Workflow, k)
	for i := range ws {
		w, err := cfg.LinearWorkflow(r, 5+i%4)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws, n
}

// fakePlanner is a deterministic Planner whose Run blocks until released,
// giving the tests full control over when plans finish.
type fakePlanner struct {
	mu     sync.Mutex
	runs   int
	active int           // plans running now
	gate   chan struct{} // nil: run completes immediately
	hold   string        // when set, only this workflow's plans wait at gate
}

func (f *fakePlanner) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	f.mu.Lock()
	f.runs++
	f.active++
	gate := f.gate
	if f.hold != "" && req.Workflow.Name != f.hold {
		gate = nil
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.active--
		f.mu.Unlock()
	}()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &engine.Result{Best: &engine.Plan{Key: "fake", Combined: float64(req.Seed)}}, nil
}

func (f *fakePlanner) ranRuns() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

func (f *fakePlanner) activeRuns() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.active
}

// TestSubmitMatchesDirect: a lone Submit returns exactly what a direct
// engine.Run of the same request returns.
func TestSubmitMatchesDirect(t *testing.T) {
	ws, n := fixture(t, 1)
	eng := engine.New(engine.Options{CacheSize: -1})
	p := New(eng, Config{})
	defer p.Close()

	req := engine.Request{Workflow: ws[0], Network: n, Algorithms: []string{"holm", "fairload"}, Seed: 99}
	got, err := p.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best == nil || want.Best == nil {
		t.Fatal("no best plan")
	}
	if got.Best.Key != want.Best.Key || got.Best.Combined != want.Best.Combined {
		t.Fatalf("submit best (%s, %g) != direct best (%s, %g)",
			got.Best.Key, got.Best.Combined, want.Best.Key, want.Best.Combined)
	}
	if len(got.Best.Mapping) != len(want.Best.Mapping) {
		t.Fatalf("mapping length %d != %d", len(got.Best.Mapping), len(want.Best.Mapping))
	}
	for i := range got.Best.Mapping {
		if got.Best.Mapping[i] != want.Best.Mapping[i] {
			t.Fatalf("mapping[%d] = %d, want %d", i, got.Best.Mapping[i], want.Best.Mapping[i])
		}
	}
}

// TestBatchEquivalence: N distinct workflows submitted concurrently
// through the pipeline produce the same winning plans as N sequential
// engine runs. Run with -race this also exercises the pipeline's
// synchronization.
func TestBatchEquivalence(t *testing.T) {
	const nReq = 24
	ws, n := fixture(t, nReq)
	// Separate engines so the sequential baseline cannot warm the
	// pipeline's cache (or vice versa).
	engA := engine.New(engine.Options{})
	engB := engine.New(engine.Options{})
	p := New(engA, Config{})
	defer p.Close()

	type res struct {
		key      string
		combined float64
		mapping  []int
	}
	got := make([]res, nReq)
	algos := []string{"holm", "localsearch"}
	var wg sync.WaitGroup
	var subErr atomic.Value
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := p.Submit(context.Background(), engine.Request{Workflow: ws[i], Network: n, Algorithms: algos, Seed: uint64(i + 1)})
			if err != nil {
				subErr.Store(err)
				return
			}
			got[i] = res{key: r.Best.Key, combined: r.Best.Combined, mapping: append([]int(nil), r.Best.Mapping...)}
		}()
	}
	wg.Wait()
	if err := subErr.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nReq; i++ {
		want, err := engB.Run(context.Background(), engine.Request{Workflow: ws[i], Network: n, Algorithms: algos, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if got[i].key != want.Best.Key || got[i].combined != want.Best.Combined {
			t.Fatalf("req %d: batched best (%s, %g) != sequential best (%s, %g)",
				i, got[i].key, got[i].combined, want.Best.Key, want.Best.Combined)
		}
		for j := range want.Best.Mapping {
			if got[i].mapping[j] != want.Best.Mapping[j] {
				t.Fatalf("req %d: mapping[%d] = %d, want %d", i, j, got[i].mapping[j], want.Best.Mapping[j])
			}
		}
	}
	if s := p.Stats(); s.Submitted != nReq {
		t.Fatalf("submitted = %d, want %d", s.Submitted, nReq)
	}
}

// TestHeldPlanDoesNotDelayOthers: while one workflow's plan is held at
// the gate, requests for other workflows plan and complete, with a
// deadline and without one.
func TestHeldPlanDoesNotDelayOthers(t *testing.T) {
	ws, _ := fixture(t, 3)
	n := mustBus(t)
	fp := &fakePlanner{gate: make(chan struct{}), hold: ws[0].Name}
	p := New(fp, Config{})
	defer p.Close()

	var wg sync.WaitGroup
	occupy(t, p, fp, engine.Request{Workflow: ws[0], Network: n}, &wg)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := p.Submit(ctx, engine.Request{Workflow: ws[1], Network: n}); err != nil {
		t.Fatalf("request with a deadline: %v", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer time.AfterFunc(2*time.Second, cancel).Stop()
	if _, err := p.Submit(ctx, engine.Request{Workflow: ws[2], Network: n}); err != nil {
		t.Fatalf("request without a deadline: %v", err)
	}
	close(fp.gate)
	wg.Wait()
}

// TestBackpressure: with the single slot held by a plan at the gate, a
// submit sheds with ErrBacklog. Cancelling the held request stops its
// plan and frees the slot, and the next submit plans.
func TestBackpressure(t *testing.T) {
	ws, _ := fixture(t, 1)
	n := mustBus(t)
	fp := &fakePlanner{gate: make(chan struct{})}
	p := New(fp, Config{MaxQueue: 1})
	defer p.Close()
	req := engine.Request{Workflow: ws[0], Network: n}

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, req)
		errs <- err
	}()
	waitFor(t, func() bool { return fp.ranRuns() == 1 })

	if _, err := p.Submit(context.Background(), req); !errors.Is(err, ErrBacklog) {
		t.Fatalf("err = %v, want ErrBacklog", err)
	}
	if s := p.Stats(); s.Shed != 1 || s.Depth != 1 {
		t.Fatalf("shed/depth = %d/%d, want 1/1", s.Shed, s.Depth)
	}

	cancel() // the gate is still shut
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
	if active, depth := fp.activeRuns(), p.Stats().Depth; active != 0 || depth != 0 {
		t.Fatalf("active plans/depth = %d/%d once the cancelled request returned, want 0/0", active, depth)
	}
	close(fp.gate)
	if _, err := p.Submit(context.Background(), req); err != nil {
		t.Fatalf("submit after the cancelled plan stopped: %v", err)
	}
	if s := p.Stats(); s.Submitted != 2 || s.Shed != 1 || s.Depth != 0 {
		t.Fatalf("submitted/shed/depth = %d/%d/%d, want 2/1/0", s.Submitted, s.Shed, s.Depth)
	}
}

// TestClose: Close cancels the running plans, one per request even for
// identical requests, their requests fail with ErrClosed, every plan
// has ended when it returns, and Submit after Close rejects without
// planning.
func TestClose(t *testing.T) {
	ws, _ := fixture(t, 2)
	n := mustBus(t)
	fp := &fakePlanner{gate: make(chan struct{})}
	p := New(fp, Config{MaxQueue: 4})

	reqs := []engine.Request{
		{Workflow: ws[0], Network: n},
		{Workflow: ws[0], Network: n},
		{Workflow: ws[1], Network: n},
	}
	errs := make(chan error, len(reqs))
	for _, req := range reqs {
		go func() {
			_, err := p.Submit(context.Background(), req)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return p.Stats().Depth == len(reqs) && fp.ranRuns() == len(reqs) })

	// The gate stays shut: only Close can end these plans.
	p.Close()
	if active := fp.activeRuns(); active != 0 {
		t.Fatalf("%d plans still running after Close", active)
	}
	for range reqs {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("request: err = %v, want ErrClosed", err)
		}
	}
	if _, err := p.Submit(context.Background(), reqs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	if s := p.Stats(); s.Batches != 3 || s.Depth != 0 || fp.ranRuns() != 3 {
		t.Fatalf("batches/depth/runs = %d/%d/%d, want 3/0/3", s.Batches, s.Depth, fp.ranRuns())
	}
}

// gatedEngine is the real engine with every plan held at gate.
type gatedEngine struct {
	*engine.Engine
	gate chan struct{}
	runs atomic.Int32
}

func (g *gatedEngine) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	g.runs.Add(1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Engine.Run(ctx, req)
}

// TestCancelledWaiterReturns: a request cancelled mid-plan returns
// context.Canceled, its plan stops with it, and it leaves nothing in
// the engine's cache.
func TestCancelledWaiterReturns(t *testing.T) {
	ws, n := fixture(t, 1)
	ge := &gatedEngine{
		Engine: engine.New(engine.Options{}),
		gate:   make(chan struct{}),
	}
	p := New(ge, Config{})
	defer p.Close()
	req := engine.Request{Workflow: ws[0], Network: n, Algorithms: []string{"holm"}}

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, req)
		errs <- err
	}()
	waitFor(t, func() bool { return ge.runs.Load() == 1 })

	cancel() // the gate is still shut
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
	if s := p.Stats(); s.Depth != 0 {
		t.Fatalf("depth = %d after the cancelled request returned, want 0", s.Depth)
	}
	// Had the plan run on, opening the gate would let it warm the cache.
	close(ge.gate)
	direct, err := ge.Engine.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Best.FromCache {
		t.Fatal("the cancelled request's plan reached the cache")
	}
	if runs := ge.runs.Load(); runs != 1 {
		t.Fatalf("planner ran %d times, want 1", runs)
	}
}

// unwindPlanner plans until its context ends, then takes unwind to
// return a best-so-far with engine.ErrDeadline, like an engine whose
// searches stop at the deadline.
type unwindPlanner struct {
	fakePlanner
	unwind time.Duration
}

func (u *unwindPlanner) Run(ctx context.Context, _ engine.Request) (*engine.Result, error) {
	<-ctx.Done()
	time.Sleep(u.unwind)
	return &engine.Result{Best: &engine.Plan{Key: "best-so-far"}, Truncated: true}, engine.ErrDeadline
}

// TestDeadlineMidPlanReturnsBestSoFar: a request whose deadline passes
// while it plans receives the plan's best-so-far, not its context
// error, even though the planner returns after the deadline. A request
// cancelled while it plans receives its context's error instead.
func TestDeadlineMidPlanReturnsBestSoFar(t *testing.T) {
	ws, _ := fixture(t, 1)
	up := &unwindPlanner{unwind: 50 * time.Millisecond}
	p := New(up, Config{})
	defer p.Close()
	req := engine.Request{Workflow: ws[0], Network: mustBus(t)}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := p.Submit(ctx, req)
	if !errors.Is(err, engine.ErrDeadline) {
		t.Fatalf("err = %v, want engine.ErrDeadline", err)
	}
	if res == nil || res.Best == nil || res.Best.Key != "best-so-far" || !res.Truncated {
		t.Fatalf("result = %+v, want the truncated best-so-far", res)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer time.AfterFunc(20*time.Millisecond, cancel).Stop()
	if res, err := p.Submit(ctx, req); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: result %+v, err %v; want nil, context.Canceled", res, err)
	}
}

// TestInvalidRequest: nil workflow/network rejected without planning.
func TestInvalidRequest(t *testing.T) {
	p := New(&fakePlanner{}, Config{})
	defer p.Close()
	if _, err := p.Submit(context.Background(), engine.Request{}); err == nil {
		t.Fatal("want error for empty request")
	}
	if s := p.Stats(); s.Submitted != 0 {
		t.Fatalf("submitted = %d, want 0", s.Submitted)
	}
}

func mustBus(t testing.TB) *network.Network {
	t.Helper()
	n, err := network.NewBus("bus", []float64{1e9, 2e9, 2e9, 3e9}, 100*gen.Mbps, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// occupy submits req and returns once its plan is held in the fake's
// gate; wg waits for the submit.
func occupy(t *testing.T, p *Pipeline, fp *fakePlanner, req engine.Request, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Submit(context.Background(), req); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { return fp.ranRuns() == 1 })
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkIngestBatched measures pipeline throughput for the overload
// mix — few workflow classes, per-client unique seeds over a
// deterministic portfolio — where the engine's plan cache carries the
// load. BenchmarkIngestUnbatched is the same traffic without the
// pipeline, so the two differ by the pipeline's own cost.
func BenchmarkIngestBatched(b *testing.B) {
	ws, n := fixture(b, 4)
	eng := engine.New(engine.Options{})
	p := New(eng, Config{MaxQueue: 4096})
	defer p.Close()
	algos := []string{"localsearch"}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := seed.Add(1)
			if _, err := p.Submit(context.Background(), engine.Request{
				Workflow: ws[int(s)%len(ws)], Network: n, Algorithms: algos, Seed: s,
			}); err != nil && !errors.Is(err, ErrBacklog) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngestUnbatched plans the same traffic with direct
// engine.Run calls. Run keys a deterministic portfolio under seed zero
// too, so the unique seeds hit the same cache entries.
func BenchmarkIngestUnbatched(b *testing.B) {
	ws, n := fixture(b, 4)
	eng := engine.New(engine.Options{})
	algos := []string{"localsearch"}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := seed.Add(1)
			if _, err := eng.Run(context.Background(), engine.Request{
				Workflow: ws[int(s)%len(ws)], Network: n, Algorithms: algos, Seed: s,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
