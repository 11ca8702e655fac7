package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// fig1Pair returns the paper's Fig. 1 workflow over the 5-server ministry
// bus — the repo-wide smoke instance. Exhaustive exceeds its enumeration
// limit here (5^15), which doubles as coverage for error rows.
func fig1Pair(t *testing.T) (*workflow.Workflow, *network.Network) {
	t.Helper()
	w := gen.MotivatingExample()
	n, err := network.NewBus("ministry", []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 100*gen.Mbps, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	return w, n
}

// smallPair returns an instance small enough for Exhaustive (3^6 = 729).
func smallPair(t *testing.T) (*workflow.Workflow, *network.Network) {
	t.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(5)
	w, err := cfg.LinearWorkflow(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 3, 100*gen.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	return w, n
}

// TestPortfolioMatchesSequential is the golden test: the concurrent
// portfolio over the full registry must return exactly the winning
// combined cost of running every algorithm sequentially.
func TestPortfolioMatchesSequential(t *testing.T) {
	w, n := fig1Pair(t)
	const seed = 7

	// Sequential baseline with the engine's tie-break (registry order).
	model := cost.NewModel(w, n)
	bestName, bestCombined := "", 0.0
	for _, name := range core.RegistryOrder() {
		algo, err := core.NewByName(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := algo.Deploy(w, n)
		if err != nil {
			continue
		}
		if c := model.Combined(mp); bestName == "" || c < bestCombined {
			bestName, bestCombined = name, c
		}
	}
	if bestName == "" {
		t.Fatal("sequential baseline found no applicable algorithm")
	}

	e := New(Options{Parallelism: 8, CacheSize: -1})
	res, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("portfolio produced no winner")
	}
	if res.Best.Key != bestName || res.Best.Combined != bestCombined {
		t.Fatalf("portfolio winner %s (%.9f), sequential winner %s (%.9f)",
			res.Best.Key, res.Best.Combined, bestName, bestCombined)
	}
	if len(res.Plans) != len(core.RegistryOrder()) {
		t.Fatalf("got %d plans, want %d", len(res.Plans), len(core.RegistryOrder()))
	}
	if err := res.Best.Mapping.Validate(w, n); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicWinner runs the same seeded portfolio repeatedly under
// full parallelism and requires the identical winner every time.
func TestDeterministicWinner(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 8, CacheSize: -1})
	var wantKey string
	var wantCombined float64
	for i := 0; i < 5; i++ {
		res, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatal("no winner")
		}
		if i == 0 {
			wantKey, wantCombined = res.Best.Key, res.Best.Combined
			continue
		}
		if res.Best.Key != wantKey || res.Best.Combined != wantCombined {
			t.Fatalf("run %d: winner %s (%.9f), want %s (%.9f)",
				i, res.Best.Key, res.Best.Combined, wantKey, wantCombined)
		}
	}
}

// TestTieBreakByPortfolioOrder pins winner selection on a degenerate
// single-server network where every algorithm that runs returns the same
// (only) mapping: the earliest algorithm in portfolio order must win.
func TestTieBreakByPortfolioOrder(t *testing.T) {
	cfg := gen.ClassC()
	w, err := cfg.LinearWorkflow(stats.NewRNG(9), 6)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("solo", []float64{2e9}, 100*gen.Mbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Parallelism: 4, CacheSize: -1})

	res, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Key != core.RegistryOrder()[0] {
		t.Fatalf("tie should go to %s, got %+v", core.RegistryOrder()[0], res.Best)
	}

	res, err = e.Run(context.Background(), Request{
		Workflow: w, Network: n, Seed: 1,
		Algorithms: []string{"holm", "fairload", "exhaustive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Key != "holm" {
		t.Fatalf("tie should go to first requested algorithm, got %+v", res.Best)
	}
}

// TestLeaderboardRanksMappingsFirst checks the leaderboard ordering:
// plans with mappings ascend by combined cost and failures sink to the
// bottom.
func TestLeaderboardRanksMappingsFirst(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 4, CacheSize: -1})
	res, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	board := res.Leaderboard()
	if len(board) != len(res.Plans) {
		t.Fatalf("leaderboard has %d rows, want %d", len(board), len(res.Plans))
	}
	if board[0].Key != res.Best.Key {
		t.Fatalf("leaderboard head %s != winner %s", board[0].Key, res.Best.Key)
	}
	seenErr := false
	var prev float64
	for i, p := range board {
		if p.Mapping == nil {
			seenErr = true
			if p.Err == "" {
				t.Fatalf("row %d has neither mapping nor error", i)
			}
			continue
		}
		if seenErr {
			t.Fatalf("mapping row %s after error rows", p.Key)
		}
		if p.Combined < prev {
			t.Fatalf("leaderboard not sorted at %d: %.9f < %.9f", i, p.Combined, prev)
		}
		prev = p.Combined
	}
	// Fig. 1 is a bus: the line family must appear as error rows.
	if !seenErr {
		t.Fatal("expected inapplicable algorithms to produce error rows")
	}
}

// countdownCtx is a deterministic stand-in for a deadline: Err reports
// the context as expired from the limit-th poll on, without any timer
// involved. Done never becomes ready, so the engine's workers always
// start and the cut happens inside the algorithms' cooperative polls.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	limit int
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineReturnsBestSoFar cuts a sampling search after its first
// poll window and requires ErrDeadline together with the truncated
// search's best-so-far mapping.
func TestDeadlineReturnsBestSoFar(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 1, CacheSize: -1})
	// Err call 1: core.DeployContext's entry check. Call 2: sampling's
	// poll at i=0. Call 3 (i=1024) reports expiry, after 1024 candidates
	// have been scored.
	ctx := &countdownCtx{Context: context.Background(), limit: 2}
	res, err := e.Run(ctx, Request{Workflow: w, Network: n, Seed: 11, Algorithms: []string{"sampling"}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || !res.Truncated {
		t.Fatalf("result = %+v, want truncated", res)
	}
	if res.Best == nil || res.Best.Mapping == nil {
		t.Fatal("expected a best-so-far mapping from the truncated search")
	}
	if !res.Best.Truncated {
		t.Fatal("winning plan should be marked truncated")
	}
	if err := res.Best.Mapping.Validate(w, n); err != nil {
		t.Fatalf("best-so-far mapping invalid: %v", err)
	}
}

// TestExpiredContextDoesNotBlock runs the whole portfolio under an
// already-cancelled context: Run must return immediately with ErrDeadline
// and no plan may claim success.
func TestExpiredContextDoesNotBlock(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 4, CacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Run(ctx, Request{Workflow: w, Network: n, Seed: 1})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !res.Truncated {
		t.Fatal("result should be truncated")
	}
	for _, p := range res.Plans {
		if p.Mapping != nil && !p.Truncated {
			t.Fatalf("plan %s claims an untruncated mapping under a dead context", p.Key)
		}
	}
}

// TestSearchAlgorithmsHonorCancellation exercises each cancellable
// algorithm directly through core.DeployContext on an instance where all
// of them run, verifying best-so-far semantics end to end.
func TestSearchAlgorithmsHonorCancellation(t *testing.T) {
	w, n := smallPair(t)
	for _, name := range []string{"exhaustive", "sampling", "localsearch", "anneal"} {
		algo, err := core.NewByName(name, 13)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := algo.(core.ContextAlgorithm); !ok {
			t.Fatalf("%s does not implement ContextAlgorithm", name)
		}
		// Generous limit so every algorithm gets past its setup polls but
		// none finishes its full search budget untruncated on this
		// instance... except the fast ones, which is fine: either a clean
		// finish or best-so-far + context error is acceptable, never a
		// hang and never nil-with-nil.
		ctx := &countdownCtx{Context: context.Background(), limit: 3}
		mp, err := core.DeployContext(ctx, algo, w, n)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
		if mp == nil && err == nil {
			t.Fatalf("%s: nil mapping with nil error", name)
		}
		if mp != nil {
			if vErr := mp.Validate(w, n); vErr != nil {
				t.Fatalf("%s: %v", name, vErr)
			}
		}
	}
}

// TestRunRejectsUnknownAlgorithm checks request validation.
func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{})
	if _, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Algorithms: []string{"nope"}}); err == nil {
		t.Fatal("expected an error for an unknown algorithm")
	}
	if _, err := e.Run(context.Background(), Request{Workflow: w}); err == nil {
		t.Fatal("expected an error for a missing network")
	}
}
