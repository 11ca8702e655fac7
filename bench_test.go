package wsdeploy

// One benchmark per reproduced table/figure of the paper's evaluation
// (§4), plus micro-benchmarks for every algorithm and the simulator. The
// figure benchmarks time one full instance of the experiment's inner loop
// (draw a Class-C instance, run the whole algorithm suite); the experiment
// binary (cmd/experiment) prints the actual rows/series.

import (
	"context"
	"fmt"
	"testing"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/engine"
	"wsdeploy/internal/exp"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/sim"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/wdl"
	"wsdeploy/internal/workflow"
)

// benchInstance draws one Fig. 6-style Line–Bus instance: 19 operations,
// 5 servers, pinned bus speed.
func benchInstance(b *testing.B, busMbps float64, seed uint64) (*workflow.Workflow, *network.Network) {
	b.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(seed)
	w, err := cfg.LinearWorkflow(r, 19)
	if err != nil {
		b.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 5, busMbps*gen.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	return w, n
}

// benchGraphInstance draws one Fig. 7/8-style Graph–Bus instance.
func benchGraphInstance(b *testing.B, s gen.Structure, busMbps float64, seed uint64) (*workflow.Workflow, *network.Network) {
	b.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(seed)
	w, err := cfg.GraphWorkflow(r, 19, s)
	if err != nil {
		b.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 5, busMbps*gen.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	return w, n
}

// runSuite deploys the whole bus suite once and folds the combined costs
// so the compiler cannot elide the work.
func runSuite(b *testing.B, w *workflow.Workflow, n *network.Network, seed uint64) float64 {
	b.Helper()
	model := cost.NewModel(w, n)
	var sink float64
	for _, a := range core.BusSuite(seed) {
		mp, err := a.Deploy(w, n)
		if err != nil {
			b.Fatal(err)
		}
		sink += model.Combined(mp)
	}
	return sink
}

// BenchmarkFig6LineBus times one Fig. 6 inner-loop instance per bus
// speed: the Line–Bus suite on a 19-operation workflow over 5 servers.
func BenchmarkFig6LineBus(b *testing.B) {
	for _, mbps := range []float64{1, 100} {
		b.Run(fmt.Sprintf("bus=%gMbps", mbps), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				w, n := benchInstance(b, mbps, uint64(i))
				sink += runSuite(b, w, n, uint64(i))
			}
			_ = sink
		})
	}
}

// BenchmarkFig7GraphBus times one Fig. 7 instance: the suite on a random
// graph workflow (structures rotating) over a bus.
func BenchmarkFig7GraphBus(b *testing.B) {
	for _, mbps := range []float64{1, 100} {
		b.Run(fmt.Sprintf("bus=%gMbps", mbps), func(b *testing.B) {
			structures := gen.Structures()
			var sink float64
			for i := 0; i < b.N; i++ {
				w, n := benchGraphInstance(b, structures[i%3], mbps, uint64(i))
				sink += runSuite(b, w, n, uint64(i))
			}
			_ = sink
		})
	}
}

// BenchmarkFig8PerStructure times one Fig. 8 instance per graph
// structure.
func BenchmarkFig8PerStructure(b *testing.B) {
	for _, s := range gen.Structures() {
		b.Run(s.String(), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				w, n := benchGraphInstance(b, s, 1, uint64(i))
				sink += runSuite(b, w, n, uint64(i))
			}
			_ = sink
		})
	}
}

// BenchmarkQualitySampling times the §4.2 quality methodology's dominant
// cost: a full 32 000-mapping random sample of one instance's search
// space.
func BenchmarkQualitySampling(b *testing.B) {
	w, n := benchInstance(b, 1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (core.Sampling{Samples: 32000, Seed: uint64(i)}).Search(w, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Generator times drawing one full Class-C instance
// (workflow + network) from the Table 6 distributions.
func BenchmarkTable6Generator(b *testing.B) {
	cfg := gen.ClassC()
	r := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.LinearWorkflow(r, 19); err != nil {
			b.Fatal(err)
		}
		if _, err := cfg.BusNetwork(r, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineLine times the §3.2 Line–Line variants on a line network.
func BenchmarkLineLine(b *testing.B) {
	cfg := gen.ClassC()
	r := stats.NewRNG(3)
	w, err := cfg.LinearWorkflow(r, 19)
	if err != nil {
		b.Fatal(err)
	}
	n, err := cfg.LineNetwork(r, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.LineLineBest{}).Deploy(w, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithms micro-benchmarks each suite algorithm on one pinned
// Fig. 6 instance, exposing the paper's complexity gaps (FairLoad's
// O(M log M) vs the tie resolvers' O(M²·...)).
func BenchmarkAlgorithms(b *testing.B) {
	w, n := benchInstance(b, 1, 11)
	for _, a := range append(core.BusSuite(11), core.Sampling{Samples: 1000, Seed: 11}) {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Deploy(w, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExhaustiveTiny times the §3.1 exhaustive search on a small
// instance (3^6 = 729 configurations).
func BenchmarkExhaustiveTiny(b *testing.B) {
	cfg := gen.ClassC()
	r := stats.NewRNG(5)
	w, err := cfg.LinearWorkflow(r, 6)
	if err != nil {
		b.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 3, 100*gen.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (core.Exhaustive{}).Search(w, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator times one discrete-event execution of the deployed
// Fig. 1 motivating example.
func BenchmarkSimulator(b *testing.B) {
	w := gen.MotivatingExample()
	n, err := network.NewBus("b", []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 100*gen.Mbps, 0)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := (core.HOLM{}).Deploy(w, n)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunOnce(w, n, mp, r, sim.Config{})
	}
}

// BenchmarkMultiDeploy times the §6 multi-workflow extension on three
// workflows.
func BenchmarkMultiDeploy(b *testing.B) {
	cfg := gen.ClassC()
	w1 := gen.MotivatingExample()
	w2, err := cfg.LinearWorkflow(stats.NewRNG(1), 12)
	if err != nil {
		b.Fatal(err)
	}
	w3, err := cfg.GraphWorkflow(stats.NewRNG(2), 16, gen.Hybrid)
	if err != nil {
		b.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(stats.NewRNG(3), 5, 100*gen.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	ws := []*workflow.Workflow{w1, w2, w3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MultiDeploy(ws, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostEvaluate times a single mapping evaluation — the unit of
// work every search and experiment multiplies.
func BenchmarkCostEvaluate(b *testing.B) {
	w, n := benchInstance(b, 1, 13)
	model := cost.NewModel(w, n)
	mp, err := (core.FairLoad{}).Deploy(w, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Evaluate(mp)
	}
}

// BenchmarkExperimentFig6Small times a reduced-runs end-to-end Fig. 6
// regeneration, the granularity a CI would track.
func BenchmarkExperimentFig6Small(b *testing.B) {
	o := exp.Options{Runs: 3, Operations: 19, Servers: []int{5}, BusSpeedsMbps: []float64{1}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefiners times the search-based extensions against the greedy
// suite's cost on one pinned instance.
func BenchmarkRefiners(b *testing.B) {
	w, n := benchInstance(b, 1, 17)
	for _, a := range []core.Algorithm{
		core.Partition{},
		core.LocalSearch{},
		core.Anneal{Seed: 17, Steps: 2000},
	} {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Deploy(w, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// portfolioInstance draws the portfolio benchmark's class: a 25-operation
// Line–Bus workflow over 5 servers — big enough that the search-based
// algorithms dominate and the worker pool has something to overlap.
func portfolioInstance(b *testing.B) (*workflow.Workflow, *network.Network) {
	b.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(29)
	w, err := cfg.LinearWorkflow(r, 25)
	if err != nil {
		b.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 5, 100*gen.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	return w, n
}

// BenchmarkPortfolio races the whole registry through the concurrent
// engine on the 25-operation/5-server class; compare against
// BenchmarkPortfolioSequential to read off the worker pool's speedup.
func BenchmarkPortfolio(b *testing.B) {
	w, n := portfolioInstance(b)
	eng := engine.New(engine.Options{CacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), engine.Request{Workflow: w, Network: n, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Best == nil {
			b.Fatal("no winner")
		}
	}
}

// BenchmarkPortfolioSequential is the baseline the engine replaces: every
// registry algorithm run one after another on one goroutine, keeping the
// best mapping.
func BenchmarkPortfolioSequential(b *testing.B) {
	w, n := portfolioInstance(b)
	model := cost.NewModel(w, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestSeen := false
		var best float64
		for _, name := range core.RegistryOrder() {
			algo, err := core.NewByName(name, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			mp, err := algo.Deploy(w, n)
			if err != nil {
				continue // inapplicable on this class, same as the engine's error rows
			}
			if c := model.Combined(mp); !bestSeen || c < best {
				bestSeen, best = true, c
			}
		}
		if !bestSeen {
			b.Fatal("no winner")
		}
	}
}

// BenchmarkPortfolioCached times the LRU plan-cache hit path: the same
// request replayed against a warm engine, the shape repeated HTTP deploys
// of one spec take.
func BenchmarkPortfolioCached(b *testing.B) {
	w, n := portfolioInstance(b)
	eng := engine.New(engine.Options{})
	req := engine.Request{Workflow: w, Network: n, Seed: 1}
	if _, err := eng.Run(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheMisses != 0 {
			b.Fatal("expected pure cache hits")
		}
	}
}

// BenchmarkGreedyPlace times the online manager's incremental placement
// primitive with a preloaded fleet.
func BenchmarkGreedyPlace(b *testing.B) {
	w, n := benchInstance(b, 100, 19)
	existing := []float64{100e6, 0, 50e6, 200e6, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyPlace(w, n, existing); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailover times the §2.1 failure-repair path.
func BenchmarkFailover(b *testing.B) {
	w, n := benchInstance(b, 100, 23)
	mp, err := (core.HOLM{}).Deploy(w, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Failover(w, n, mp, 1, core.RepairOrphans, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWDL times parsing and decompiling the Fig. 1 workflow.
func BenchmarkWDL(b *testing.B) {
	src, err := wdl.Format(gen.MotivatingExample())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wdl.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("format", func(b *testing.B) {
		w := gen.MotivatingExample()
		for i := 0; i < b.N; i++ {
			if _, err := wdl.Format(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManagerLifecycle times one arrival + failure + rebalance round
// of the online controller.
func BenchmarkManagerLifecycle(b *testing.B) {
	cfg := gen.ClassC()
	for i := 0; i < b.N; i++ {
		n, err := network.NewBus("fleet", []float64{1e9, 2e9, 2e9, 3e9}, 100*gen.Mbps, 0)
		if err != nil {
			b.Fatal(err)
		}
		m := manager.New(n)
		w1, err := cfg.LinearWorkflow(stats.NewRNG(1), 14)
		if err != nil {
			b.Fatal(err)
		}
		w2, err := cfg.GraphWorkflow(stats.NewRNG(2), 16, gen.Hybrid)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Deploy("a", w1); err != nil {
			b.Fatal(err)
		}
		if err := m.Deploy("b", w2); err != nil {
			b.Fatal(err)
		}
		if _, err := m.ServerDown(0); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}
