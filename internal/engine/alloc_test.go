package engine

import (
	"context"
	"runtime"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/stats"
)

// maxAllHitRunBytes bounds the heap bytes of one run whose every plan
// is a cache hit, on an 82-operation workflow over 12 servers. Such a
// run needs no cost model, whose execution probabilities alone take
// ~1.4 KB here, and copies no cached mapping or loads; it allocates
// ~0.6 KB.
const maxAllHitRunBytes = 2000

// TestAllHitRunAllocs fills the plan cache with one run, then requires
// repeats of it, served wholly from the cache, to stay under
// maxAllHitRunBytes each.
func TestAllHitRunAllocs(t *testing.T) {
	cfg := gen.ClassC()
	r := stats.NewRNG(82)
	w, err := cfg.LinearWorkflow(r, 82)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 12, 100*gen.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	req := Request{Workflow: w, Network: n, Algorithms: []string{"holm"}, Seed: 7}
	hits := 0
	run := func() {
		res, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		hits += res.CacheHits
	}
	run() // plans and fills the cache
	run()

	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if hits != runs+1 {
		t.Fatalf("%d cache hits over %d repeats", hits, runs+1)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("all-hit run: %.0f bytes", perRun)
	if perRun > maxAllHitRunBytes {
		t.Fatalf("an all-hit run allocates %.0f bytes, over %d", perRun, maxAllHitRunBytes)
	}
}
