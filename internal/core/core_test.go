package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

const mbps = 1e6

// lineWF builds a deterministic linear workflow with m operations.
func lineWF(t testing.TB, m int, seed uint64) *workflow.Workflow {
	t.Helper()
	r := stats.NewRNG(seed)
	cyc := stats.MustDiscrete([]float64{10e6, 20e6, 30e6}, []float64{1, 2, 1})
	msg := stats.MustDiscrete([]float64{0.00666e6, 0.057838e6, 0.163208e6}, []float64{1, 2, 1})
	cycles := make([]float64, m)
	for i := range cycles {
		cycles[i] = cyc.Sample(r)
	}
	msgs := make([]float64, m-1)
	for i := range msgs {
		msgs[i] = msg.Sample(r)
	}
	w, err := workflow.NewLine("line", cycles, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// graphWF builds a small well-formed random-graph workflow by hand:
// src -> AND( XOR(a|b) , c ) -> sink.
func graphWF(t testing.TB) *workflow.Workflow {
	t.Helper()
	b := workflow.NewBuilder("graph")
	src := b.Op("src", 10e6)
	and := b.Split(workflow.AndSplit, "and", 1e6)
	xor := b.Split(workflow.XorSplit, "xor", 1e6)
	a := b.Op("a", 30e6)
	bb := b.Op("b", 20e6)
	xj := b.Join(workflow.XorSplit, "/xor", 1e6)
	c := b.Op("c", 25e6)
	aj := b.Join(workflow.AndSplit, "/and", 1e6)
	snk := b.Op("snk", 10e6)
	b.Link(src, and, 0.05e6)
	b.Link(and, xor, 0.01e6)
	b.LinkWeighted(xor, a, 0.16e6, 3)
	b.LinkWeighted(xor, bb, 0.06e6, 1)
	b.Link(a, xj, 0.05e6)
	b.Link(bb, xj, 0.05e6)
	b.Link(xj, aj, 0.01e6)
	b.Link(and, c, 0.16e6)
	b.Link(c, aj, 0.05e6)
	b.Link(aj, snk, 0.06e6)
	return b.MustBuild()
}

func bus(t testing.TB, powers []float64, speed float64) *network.Network {
	t.Helper()
	n, err := network.NewBus("bus", powers, speed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// allBusAlgorithms returns every algorithm applicable to bus networks.
func allBusAlgorithms() []Algorithm {
	return append(BusSuite(7), Sampling{Samples: 500, Seed: 7})
}

func TestBusSuiteProducesValidMappings(t *testing.T) {
	w := lineWF(t, 19, 1)
	n := bus(t, []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 100*mbps)
	for _, a := range allBusAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			mp, err := a.Deploy(w, n)
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			if err := mp.Validate(w, n); err != nil {
				t.Fatalf("invalid mapping: %v", err)
			}
		})
	}
}

func TestBusSuiteOnGraphWorkflow(t *testing.T) {
	w := graphWF(t)
	n := bus(t, []float64{1e9, 2e9, 3e9}, 10*mbps)
	for _, a := range allBusAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			mp, err := a.Deploy(w, n)
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			if err := mp.Validate(w, n); err != nil {
				t.Fatalf("invalid mapping: %v", err)
			}
		})
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	w := lineWF(t, 12, 2)
	n := bus(t, []float64{1e9, 2e9, 3e9}, 100*mbps)
	for _, a := range allBusAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			m1, err1 := a.Deploy(w, n)
			m2, err2 := a.Deploy(w, n)
			if err1 != nil || err2 != nil {
				t.Fatalf("Deploy errors: %v %v", err1, err2)
			}
			for op := range m1 {
				if m1[op] != m2[op] {
					t.Fatalf("non-deterministic at op %d: %d vs %d", op, m1[op], m2[op])
				}
			}
		})
	}
}

func TestFairLoadBalancesEqualServers(t *testing.T) {
	// 4 equal ops over 2 equal servers must split the cycles exactly.
	w, err := workflow.NewLine("w", []float64{10e6, 10e6, 10e6, 10e6}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	n := bus(t, []float64{1e9, 1e9}, 100*mbps)
	mp, err := FairLoad{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(w, n)
	if p := model.TimePenalty(mp); p > 1e-12 {
		t.Fatalf("FairLoad penalty = %v on a perfectly divisible instance", p)
	}
}

func TestFairLoadProportionalToPower(t *testing.T) {
	// Server powers 1:3; 4 equal ops: expect a 1:3 op split.
	w, err := workflow.NewLine("w", []float64{10e6, 10e6, 10e6, 10e6}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	n := bus(t, []float64{1e9, 3e9}, 100*mbps)
	mp, err := FairLoad{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	per := mp.OpsOn(2)
	if len(per[0]) != 1 || len(per[1]) != 3 {
		t.Fatalf("FairLoad split %d/%d, want 1/3", len(per[0]), len(per[1]))
	}
}

func TestFairLoadNearOptimalPenaltyProperty(t *testing.T) {
	// Property: FairLoad's penalty never exceeds that of any single-server
	// mapping (worst-fit beats "dump everything on one box").
	check := func(seed uint64) bool {
		w := lineWF(t, 10, seed)
		n := bus(t, []float64{1e9, 2e9, 3e9}, 100*mbps)
		mp, err := FairLoad{}.Deploy(w, n)
		if err != nil {
			return false
		}
		model := cost.NewModel(w, n)
		worst := model.TimePenalty(deploy.Uniform(w.M(), 0))
		return model.TimePenalty(mp) <= worst+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTieResolversImproveCommunication(t *testing.T) {
	// All ops cost the same, so FairLoad's choice is arbitrary while the
	// tie resolvers chase message savings; their communication volume must
	// not exceed FairLoad's on average.
	var flBits, trBits float64
	for seed := uint64(0); seed < 20; seed++ {
		cycles := make([]float64, 12)
		for i := range cycles {
			cycles[i] = 20e6
		}
		msgs := make([]float64, 11)
		r := stats.NewRNG(seed)
		for i := range msgs {
			msgs[i] = r.Float64() * 1e6
		}
		w, err := workflow.NewLine("w", cycles, msgs)
		if err != nil {
			t.Fatal(err)
		}
		n := bus(t, []float64{1e9, 1e9, 1e9}, 100*mbps)
		model := cost.NewModel(w, n)
		mpFL, err := FairLoad{}.Deploy(w, n)
		if err != nil {
			t.Fatal(err)
		}
		mpTR, err := FLTR2{Seed: seed}.Deploy(w, n)
		if err != nil {
			t.Fatal(err)
		}
		flBits += model.BitsOnNetwork(mpFL)
		trBits += model.BitsOnNetwork(mpTR)
	}
	if trBits > flBits {
		t.Fatalf("FLTR2 put more bits on the bus than FairLoad: %v > %v", trBits, flBits)
	}
}

func TestExhaustiveOptimalOnTinyInstances(t *testing.T) {
	w := lineWF(t, 6, 3)
	n := bus(t, []float64{1e9, 2e9}, 10*mbps)
	model := cost.NewModel(w, n)
	best, st, err := Exhaustive{}.Search(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enumerated != 64 { // 2^6
		t.Fatalf("enumerated %d configurations, want 64", st.Enumerated)
	}
	optCost := model.Combined(best)
	if math.Abs(optCost-st.BestCombined) > 1e-12 {
		t.Fatalf("stats/mapping mismatch: %v vs %v", optCost, st.BestCombined)
	}
	for _, a := range allBusAlgorithms() {
		mp, err := a.Deploy(w, n)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if c := model.Combined(mp); c < optCost-1e-12 {
			t.Fatalf("%s beat the exhaustive optimum: %v < %v", a.Name(), c, optCost)
		}
	}
	if st.BestExecTime > optCost*2+1e-9 && st.BestExecTime > st.BestCombined*2 {
		t.Fatalf("per-metric minimum inconsistent: bestExec %v", st.BestExecTime)
	}
	if st.BestPenalty < 0 || st.WorstCombined < st.BestCombined {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestExhaustiveRespectsLimit(t *testing.T) {
	w := lineWF(t, 19, 1)
	n := bus(t, []float64{1e9, 1e9, 1e9, 1e9, 1e9}, 100*mbps)
	_, err := Exhaustive{}.Deploy(w, n) // 5^19 > DefaultExhaustiveLimit
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized search accepted: %v", err)
	}
}

func TestSamplingFindsDecentSolutions(t *testing.T) {
	w := lineWF(t, 8, 4)
	n := bus(t, []float64{1e9, 2e9, 3e9}, 100*mbps)
	model := cost.NewModel(w, n)
	_, exact, err := Exhaustive{}.Search(w, n)
	if err != nil {
		t.Fatal(err)
	}
	mp, st, err := Sampling{Samples: 6561, Seed: 5}.Search(w, n) // == 3^8 draws
	if err != nil {
		t.Fatal(err)
	}
	got := model.Combined(mp)
	if got < exact.BestCombined-1e-12 {
		t.Fatalf("sampling beat the optimum: %v < %v", got, exact.BestCombined)
	}
	// Drawing as many samples as the space has configurations should land
	// within 25% of the optimum on this small instance.
	if got > exact.BestCombined*1.25 {
		t.Fatalf("sampling far from optimum: %v vs %v", got, exact.BestCombined)
	}
	if st.Enumerated != 6561 {
		t.Fatalf("sampled %d, want 6561", st.Enumerated)
	}
}

func TestSamplingSeedDetermines(t *testing.T) {
	w := lineWF(t, 10, 6)
	n := bus(t, []float64{1e9, 2e9}, 100*mbps)
	a := Sampling{Samples: 100, Seed: 1}
	m1, _ := a.Deploy(w, n)
	m2, _ := a.Deploy(w, n)
	for op := range m1 {
		if m1[op] != m2[op] {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
}

// TestSamplingAllocationsDoNotGrowWithSamples pins Sampling to one
// reused draw buffer: doubling the samples adds only the clones of the
// few draws that improve a statistic, not allocations per draw.
func TestSamplingAllocationsDoNotGrowWithSamples(t *testing.T) {
	w := lineWF(t, 25, 3)
	n := bus(t, []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 100*mbps)
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := (Sampling{Samples: samples, Seed: 9}).Search(w, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1000, a2000 := allocs(1000), allocs(2000)
	t.Logf("allocations: %v at 1000 samples, %v at 2000", a1000, a2000)
	if a2000-a1000 > 10 {
		t.Fatalf("1000 more samples cost %v more allocations (%v -> %v), want at most 10",
			a2000-a1000, a1000, a2000)
	}
}

func TestHOLMCoLocatesLargeMessageEnds(t *testing.T) {
	// One gigantic message in the middle; HOLM must keep its ends on the
	// same server even though fairness alone would separate them.
	w, err := workflow.NewLine("w",
		[]float64{10e6, 10e6, 10e6, 10e6},
		[]float64{1e3, 1e9, 1e3}) // O2->O3 is a 1 Gbit message
	if err != nil {
		t.Fatal(err)
	}
	n := bus(t, []float64{1e9, 1e9}, 10*mbps)
	mp, err := HOLM{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if mp[1] != mp[2] {
		t.Fatalf("HOLM separated the 1 Gbit message ends: %v", mp)
	}
}

func TestHOLMFallsBackToFairnessWithTinyMessages(t *testing.T) {
	// All messages are negligible: HOLM should produce a fair split, not a
	// single-server dump.
	w, err := workflow.NewLine("w",
		[]float64{50e6, 50e6, 50e6, 50e6},
		[]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	n := bus(t, []float64{1e9, 1e9}, 1000*mbps)
	mp, err := HOLM{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if mp.ServersUsed() != 2 {
		t.Fatalf("HOLM used %d servers, want 2: %v", mp.ServersUsed(), mp)
	}
	model := cost.NewModel(w, n)
	if p := model.TimePenalty(mp); p > 1e-9 {
		t.Fatalf("HOLM penalty %v with negligible messages", p)
	}
}

func TestHOLMSlowBusClusters(t *testing.T) {
	// On a 0.1 Mbps bus even medium messages dwarf processing, so HOLM
	// should cluster nearly everything together.
	w := lineWF(t, 10, 7)
	n := bus(t, []float64{1e9, 1e9, 1e9}, 0.1*mbps)
	mp, err := HOLM{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(w, n)
	fl, err := FairLoad{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if model.ExecutionTime(mp) > model.ExecutionTime(fl) {
		t.Fatalf("HOLM exec %v worse than FairLoad %v on slow bus",
			model.ExecutionTime(mp), model.ExecutionTime(fl))
	}
}

func TestFLMMEMergesLargeMessageEnds(t *testing.T) {
	// The one message in the top decile must end up co-located.
	cycles := make([]float64, 11)
	for i := range cycles {
		cycles[i] = float64(10+i) * 1e6 // all distinct: no ties, pure constraint path
	}
	msgs := make([]float64, 10)
	for i := range msgs {
		msgs[i] = 1e3
	}
	msgs[5] = 1e8 // the large message O6->O7
	w, err := workflow.NewLine("w", cycles, msgs)
	if err != nil {
		t.Fatal(err)
	}
	n := bus(t, []float64{1e9, 1e9, 1e9}, 10*mbps)
	mp, err := FLMME{Seed: 3}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if mp[5] != mp[6] {
		t.Fatalf("FLMME separated large-message ends: %v", mp)
	}
}

func TestLineLineBasicFill(t *testing.T) {
	w, err := workflow.NewLine("w",
		[]float64{10e6, 10e6, 10e6, 10e6, 10e6, 10e6},
		[]float64{1e4, 1e4, 1e4, 1e4, 1e4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewLine("n", []float64{1e9, 1e9, 1e9},
		[]float64{10 * mbps, 10 * mbps}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := LineLine{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	// Equal powers, equal ops: 2 ops per server, contiguous.
	per := mp.OpsOn(3)
	for s, ops := range per {
		if len(ops) != 2 {
			t.Fatalf("server %d hosts %d ops: %v", s, len(ops), mp)
		}
	}
	// Contiguity: assignments must be non-decreasing along the line.
	for i := 1; i < w.M(); i++ {
		if mp[i] < mp[i-1] {
			t.Fatalf("non-contiguous fill: %v", mp)
		}
	}
}

func TestLineLineEveryServerNonEmpty(t *testing.T) {
	check := func(seed uint64) bool {
		w := lineWF(t, 9, seed)
		n, err := network.NewLine("n", []float64{1e9, 2e9, 3e9},
			[]float64{10 * mbps, 100 * mbps}, []float64{0, 0})
		if err != nil {
			return false
		}
		for _, a := range []Algorithm{LineLine{}, LineLine{Reverse: true}, LineLine{SkipFix: true}, LineLineBest{}} {
			mp, err := a.Deploy(w, n)
			if err != nil || mp.Validate(w, n) != nil {
				return false
			}
			used := map[int]bool{}
			for _, s := range mp {
				used[s] = true
			}
			if len(used) != n.N() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLineLineRejectsNonLinearInputs(t *testing.T) {
	g := graphWF(t)
	n, err := network.NewLine("n", []float64{1e9, 1e9}, []float64{10 * mbps}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (LineLine{}).Deploy(g, n); err == nil {
		t.Fatal("graph workflow accepted by LineLine")
	}
	w := lineWF(t, 6, 1)
	b := bus(t, []float64{1e9, 1e9, 1e9}, 10*mbps)
	if _, err := (LineLine{}).Deploy(w, b); err == nil {
		t.Fatal("bus network accepted by LineLine")
	}
	tiny := lineWF(t, 2, 1)
	big, err := network.NewLine("n", []float64{1e9, 1e9, 1e9},
		[]float64{10 * mbps, 10 * mbps}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (LineLine{}).Deploy(tiny, big); err == nil {
		t.Fatal("M < N accepted by LineLine")
	}
}

func TestLineLineBestNoWorseThanVariants(t *testing.T) {
	check := func(seed uint64) bool {
		w := lineWF(t, 12, seed)
		n, err := network.NewLine("n", []float64{1e9, 2e9, 1e9},
			[]float64{1 * mbps, 100 * mbps}, []float64{0.001, 0.001})
		if err != nil {
			return false
		}
		model := cost.NewModel(w, n)
		best, err := LineLineBest{}.Deploy(w, n)
		if err != nil {
			return false
		}
		bc := model.Combined(best)
		for _, v := range []LineLine{{}, {SkipFix: true}, {Reverse: true}, {Reverse: true, SkipFix: true}} {
			mp, err := v.Deploy(w, n)
			if err != nil {
				return false
			}
			if model.Combined(mp) < bc-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFixBadBridgesMovesLargeMessageOffSlowLink(t *testing.T) {
	// Construct a fill where the crossing message over the slow first link
	// is huge while the internal neighbour message is tiny: the fix must
	// shift an operation across the bridge and reduce execution time.
	w, err := workflow.NewLine("w",
		[]float64{10e6, 10e6, 10e6, 10e6, 10e6, 10e6},
		[]float64{1e3, 1e8, 1e3, 1e3, 1e3}) // O2->O3 crossing is 100 Mbit
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewLine("n", []float64{1e9, 1e9, 1e9},
		[]float64{1 * mbps, 100 * mbps}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(w, n)
	noFix, err := LineLine{SkipFix: true}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	withFix, err := LineLine{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if model.ExecutionTime(withFix) > model.ExecutionTime(noFix) {
		t.Fatalf("bridge fix worsened exec time: %v > %v",
			model.ExecutionTime(withFix), model.ExecutionTime(noFix))
	}
}

func TestNewByNameRegistry(t *testing.T) {
	for _, name := range KnownAlgorithms() {
		a, err := NewByName(name, 42)
		if err != nil {
			t.Fatalf("NewByName(%q): %v", name, err)
		}
		if a.Name() == "" {
			t.Fatalf("algorithm %q has empty display name", name)
		}
	}
	if _, err := NewByName("nope", 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBusSuiteComposition(t *testing.T) {
	suite := BusSuite(1)
	if len(suite) != 5 {
		t.Fatalf("BusSuite has %d algorithms, want 5", len(suite))
	}
	names := map[string]bool{}
	for _, a := range suite {
		names[a.Name()] = true
	}
	for _, want := range []string{"FairLoad", "FL-TieResolver", "FL-TieResolver2", "FL-MergeMsgEnds", "HeavyOps-LargeMsgs"} {
		if !names[want] {
			t.Fatalf("BusSuite missing %q", want)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	w := lineWF(t, 4, 1)
	n := bus(t, []float64{1e9}, 10*mbps)
	// Single-server network is legal: everything lands on server 0.
	mp, err := FairLoad{}.Deploy(w, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mp {
		if s != 0 {
			t.Fatal("single-server deployment missed server 0")
		}
	}
}

func TestMultiDeployTwoWorkflows(t *testing.T) {
	w1 := lineWF(t, 8, 1)
	w2 := lineWF(t, 6, 2)
	n := bus(t, []float64{1e9, 2e9, 3e9}, 100*mbps)
	md, err := MultiDeploy([]*workflow.Workflow{w1, w2}, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.Mappings[0].Validate(w1, n); err != nil {
		t.Fatalf("workflow 1 mapping: %v", err)
	}
	if err := md.Mappings[1].Validate(w2, n); err != nil {
		t.Fatalf("workflow 2 mapping: %v", err)
	}
	if md.TotalExec <= 0 || md.TimePenalty < 0 {
		t.Fatalf("bad metrics: %+v", md)
	}
	if md.MaxLoad() <= 0 {
		t.Fatal("MaxLoad not positive")
	}
}

func TestMultiDeployFairerThanIndependent(t *testing.T) {
	// Two identical workflows: the combined-budget greedy must balance
	// their joint load at least as well as deploying both independently
	// with FairLoad (which would double-load the same servers in the same
	// pattern only if powers differ — with equal powers both are near 0).
	w1 := lineWF(t, 10, 3)
	w2 := lineWF(t, 10, 3)
	n := bus(t, []float64{1e9, 2e9}, 100*mbps)
	md, err := MultiDeploy([]*workflow.Workflow{w1, w2}, n)
	if err != nil {
		t.Fatal(err)
	}
	// Independent deployment baseline.
	var indLoads []float64 = make([]float64, n.N())
	for _, w := range []*workflow.Workflow{w1, w2} {
		mp, err := FairLoad{}.Deploy(w, n)
		if err != nil {
			t.Fatal(err)
		}
		for s, l := range cost.NewModel(w, n).Loads(mp) {
			indLoads[s] += l
		}
	}
	indPenalty := cost.PenaltyOfLoads(indLoads)
	if md.TimePenalty > indPenalty+1e-9 {
		t.Fatalf("multi-deploy penalty %v worse than independent %v", md.TimePenalty, indPenalty)
	}
}

func TestMultiDeployValidation(t *testing.T) {
	n := bus(t, []float64{1e9}, 10*mbps)
	if _, err := MultiDeploy(nil, n); err == nil {
		t.Fatal("empty workflow list accepted")
	}
}

func TestCrossTransferTime(t *testing.T) {
	n := bus(t, []float64{1e9, 1e9}, 8*mbps)
	if got := crossTransferTime(n, 8e6); math.Abs(got-1) > 1e-12 {
		t.Fatalf("bus crossTransferTime = %v, want 1", got)
	}
	solo, err := network.New("solo", []network.Server{{PowerHz: 1e9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := crossTransferTime(solo, 1e9); got != 0 {
		t.Fatalf("single-server crossTransferTime = %v", got)
	}
	ln, err := network.NewLine("l", []float64{1e9, 1e9, 1e9},
		[]float64{8 * mbps, 8 * mbps}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: (0,1)=1s, (1,2)=1s, (0,2)=2s → mean 4/3 s for 8 Mbit.
	if got := crossTransferTime(ln, 8e6); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Fatalf("line crossTransferTime = %v, want 4/3", got)
	}
}
