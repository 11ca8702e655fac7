package engine

import (
	"context"
	"slices"
	"testing"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
)

// TestCacheServesRepeatedRequests plans the same request twice and
// requires the second run to be answered entirely from the LRU cache,
// with the hit visible on the engine.cache_hits counter.
func TestCacheServesRepeatedRequests(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 4, CacheSize: 64})
	req := Request{Workflow: w, Network: n, Seed: 21, Algorithms: []string{"holm", "fairload", "flmme"}}

	first, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != 3 {
		t.Fatalf("first run: hits=%d misses=%d", first.CacheHits, first.CacheMisses)
	}

	hitsBefore := M.CacheHits.Value()
	second, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 3 || second.CacheMisses != 0 {
		t.Fatalf("second run: hits=%d misses=%d", second.CacheHits, second.CacheMisses)
	}
	if got := M.CacheHits.Value(); got != hitsBefore+3 {
		t.Fatalf("engine.cache_hits = %d, want %d", got, hitsBefore+3)
	}
	for i, p := range second.Plans {
		if !p.FromCache {
			t.Fatalf("plan %d (%s) not served from cache", i, p.Key)
		}
		if p.Combined != first.Plans[i].Combined {
			t.Fatalf("cached plan %s differs: %.9f vs %.9f", p.Key, p.Combined, first.Plans[i].Combined)
		}
	}
	if second.Best.Key != first.Best.Key {
		t.Fatalf("cached winner %s != computed winner %s", second.Best.Key, first.Best.Key)
	}
}

// TestRunCanonicalizesSeeds: a run whose algorithms all ignore the seed
// keys its plans under seed zero, so a repeat with a new seed is all
// hits and plans the same mappings; a run naming a seeded algorithm
// keeps its seed in every plan key, deterministic ones included.
func TestRunCanonicalizesSeeds(t *testing.T) {
	w, n := fig1Pair(t)
	for _, tc := range []struct {
		algos []string
		hits  int // on the repeat under seed 2
	}{
		{[]string{"holm", "fairload"}, 2},
		{[]string{"anneal"}, 0},
		{[]string{"holm", "anneal"}, 0},
	} {
		e := New(Options{Parallelism: 2, CacheSize: 64})
		req := Request{Workflow: w, Network: n, Algorithms: tc.algos, Seed: 1}
		first, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		req.Seed = 2
		second, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if second.CacheHits != tc.hits || second.CacheMisses != len(tc.algos)-tc.hits {
			t.Errorf("%v: seed 2 after seed 1: hits/misses = %d/%d, want %d/%d",
				tc.algos, second.CacheHits, second.CacheMisses, tc.hits, len(tc.algos)-tc.hits)
		}
		if tc.hits == 0 {
			continue
		}
		for i, p := range second.Plans {
			if p.Combined != first.Plans[i].Combined || !slices.Equal(p.Mapping, first.Plans[i].Mapping) {
				t.Errorf("%v: %s planned differently under seed 2", tc.algos, p.Key)
			}
		}
	}
}

// TestCacheKeyDiscriminates: a different seed, algorithm or instance must
// miss; renaming the workflow must still hit (the key hashes content, not
// names).
func TestCacheKeyDiscriminates(t *testing.T) {
	w, n := fig1Pair(t)
	k := planKey(w, n, "flmme", 1)
	if k == planKey(w, n, "flmme", 2) {
		t.Fatal("seed not part of the key")
	}
	if k == planKey(w, n, "fltr", 1) {
		t.Fatal("algorithm not part of the key")
	}
	n2, err := network.NewBus("other-name", []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 100*gen.Mbps, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if k != planKey(w, n2, "flmme", 1) {
		t.Fatal("renaming the network should not change the key")
	}
	n3, err := network.NewBus("ministry", []float64{1e9, 2e9, 2e9, 3e9, 2e9}, 100*gen.Mbps, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if k == planKey(w, n3, "flmme", 1) {
		t.Fatal("changing a server power must change the key")
	}
}

// TestCacheLRUEviction fills a tiny cache past capacity and checks the
// oldest entry is gone while the freshest survive.
func TestCacheLRUEviction(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 2, CacheSize: 2})
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: seed, Algorithms: []string{"flmme"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.cache.Len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	if _, ok := e.cache.Get(planKey(w, n, "flmme", 1)); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, ok := e.cache.Get(planKey(w, n, "flmme", seed)); !ok {
			t.Fatalf("entry for seed %d missing", seed)
		}
	}
}

// TestCacheIsolation pins the read-only contract: the plan a miss
// computes is stored as it is returned, and every hit hands out that
// stored plan's mapping and loads themselves (the same backing arrays,
// never copies), equal to a fresh evaluation. A negative plan (an
// algorithm that does not apply) is stored and served as it was
// computed; a truncated one is never stored
// (TestTruncatedPlansAreNotCached).
func TestCacheIsolation(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 1, CacheSize: 8})
	req := Request{Workflow: w, Network: n, Seed: 5, Algorithms: []string{"holm", "lineline"}}
	first, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	computed, refused := first.Plans[0], first.Plans[1]
	want := cost.NewModel(w, n).Evaluate(computed.Mapping).Loads
	if !slices.Equal(computed.Loads, want) {
		t.Fatalf("plan loads %v, want %v", computed.Loads, want)
	}
	if refused.Mapping != nil || refused.Err == "" {
		t.Fatalf("lineline on a bus: mapping %v, err %q; want a negative plan", refused.Mapping, refused.Err)
	}
	stored, ok := e.cache.Get(planKey(w, n, "holm", 0))
	if !ok {
		t.Fatal("the computed plan was not stored")
	}
	if &stored.Mapping[0] != &computed.Mapping[0] || &stored.Loads[0] != &computed.Loads[0] {
		t.Fatal("the stored plan is a copy of the computed one")
	}
	for i := 0; i < 2; i++ {
		next, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		p, neg := next.Plans[0], next.Plans[1]
		if !p.FromCache || !neg.FromCache || next.CacheHits != 2 {
			t.Fatalf("repeat %d: %d hits, holm cached %v, lineline cached %v", i+1, next.CacheHits, p.FromCache, neg.FromCache)
		}
		if &p.Mapping[0] != &stored.Mapping[0] || &p.Loads[0] != &stored.Loads[0] {
			t.Fatalf("repeat %d: a hit copied the stored mapping or loads", i+1)
		}
		if !slices.Equal(p.Mapping, computed.Mapping) || !slices.Equal(p.Loads, want) || p.Combined != computed.Combined {
			t.Fatalf("repeat %d: hit differs from the computed plan", i+1)
		}
		if p.Elapsed != 0 || neg.Elapsed != 0 {
			t.Fatalf("repeat %d: hits report elapsed %v and %v, want 0", i+1, p.Elapsed, neg.Elapsed)
		}
		if neg.Mapping != nil || neg.Err != refused.Err || neg.Key != refused.Key {
			t.Fatalf("repeat %d: negative plan served as %+v, computed as %+v", i+1, neg, refused)
		}
		if err := p.Mapping.Validate(w, n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTruncatedPlansAreNotCached: a best-so-far answer depends on the
// deadline that produced it and must never be served to later callers.
func TestTruncatedPlansAreNotCached(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 1, CacheSize: 8})
	ctx := &countdownCtx{Context: context.Background(), limit: 2}
	res, err := e.Run(ctx, Request{Workflow: w, Network: n, Seed: 31, Algorithms: []string{"sampling"}})
	if err == nil || res.Best == nil {
		t.Fatalf("expected a truncated run, got res=%+v err=%v", res, err)
	}
	if e.cache.Len() != 0 {
		t.Fatal("truncated plan leaked into the cache")
	}
}

// TestLatencyMetricsPublished checks that completed plans show up in the
// latency histogram under their registry key and on the plan counters.
func TestLatencyMetricsPublished(t *testing.T) {
	w, n := fig1Pair(t)
	e := New(Options{Parallelism: 2, CacheSize: -1})
	h := obs.Default().Histogram(latencyPrefix + "fairload")
	before := h.Snapshot().Count
	if _, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: 77, Algorithms: []string{"fairload"}}); err != nil {
		t.Fatal(err)
	}
	if got := h.Snapshot().Count; got != before+1 {
		t.Fatalf("fairload latency observations = %d, want %d", got, before+1)
	}
	if started, completed := M.PlansStarted.Value(), M.PlansCompleted.Value(); started == 0 || completed == 0 {
		t.Fatalf("plan counters not moving: started=%d completed=%d", started, completed)
	}
}
