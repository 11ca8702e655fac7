package cost

import (
	"math"
	"testing"
	"testing/quick"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

const mbps = 1e6

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// linePair: 4 ops of 10/20/30/40 Mcycles over a 2-server bus of 1 GHz each,
// 8 Mbps bus, messages of 1 Mbit each.
func linePair(t *testing.T) (*workflow.Workflow, *network.Network, *Model) {
	t.Helper()
	w, err := workflow.NewLine("w",
		[]float64{10e6, 20e6, 30e6, 40e6},
		[]float64{1e6, 1e6, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("n", []float64{1e9, 1e9}, 8*mbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, n, NewModel(w, n)
}

func TestTproc(t *testing.T) {
	_, _, m := linePair(t)
	if got := m.Tproc(0, 0); !almostEq(got, 0.01) {
		t.Fatalf("Tproc = %v, want 0.01", got)
	}
}

func TestTcommZeroSameServer(t *testing.T) {
	w, _, m := linePair(t)
	mp := deploy.Uniform(w.M(), 0)
	for e := range w.Edges {
		if m.Tcomm(e, mp) != 0 {
			t.Fatalf("co-located edge %d has non-zero comm time", e)
		}
	}
	if m.Evaluate(mp).CommTime != 0 || m.BitsOnNetwork(mp) != 0 {
		t.Fatal("co-located mapping has network traffic")
	}
}

func TestTcommCrossServer(t *testing.T) {
	_, _, m := linePair(t)
	mp := deploy.Mapping{0, 1, 0, 1}
	// Every edge crosses the 8 Mbps bus with a 1 Mbit message: 0.125 s.
	for e := 0; e < 3; e++ {
		if got := m.Tcomm(e, mp); !almostEq(got, 0.125) {
			t.Fatalf("Tcomm(%d) = %v, want 0.125", e, got)
		}
	}
}

func TestExecutionTimeSingleServer(t *testing.T) {
	w, _, m := linePair(t)
	mp := deploy.Uniform(w.M(), 0)
	// All processing on one 1 GHz server: 100 Mcycles → 0.1 s, no comm.
	if got := m.ExecutionTime(mp); !almostEq(got, 0.1) {
		t.Fatalf("ExecutionTime = %v, want 0.1", got)
	}
}

func TestExecutionTimeWithComm(t *testing.T) {
	_, _, m := linePair(t)
	mp := deploy.Mapping{0, 0, 1, 1}
	// proc 0.1 s + one crossing of 1 Mbit over 8 Mbps = 0.125 s.
	if got := m.ExecutionTime(mp); !almostEq(got, 0.225) {
		t.Fatalf("ExecutionTime = %v, want 0.225", got)
	}
}

func TestLoadsAndPenalty(t *testing.T) {
	w, _, m := linePair(t)
	// Split 10+40 vs 20+30: both servers load 0.05 s → penalty 0.
	mp := deploy.Mapping{0, 1, 1, 0}
	loads := m.Loads(mp)
	if !almostEq(loads[0], 0.05) || !almostEq(loads[1], 0.05) {
		t.Fatalf("loads = %v", loads)
	}
	if p := m.TimePenalty(mp); p != 0 {
		t.Fatalf("balanced mapping has penalty %v", p)
	}
	// Everything on server 0: loads 0.1 and 0; avg 0.05; penalty 0.05.
	mp = deploy.Uniform(w.M(), 0)
	if p := m.TimePenalty(mp); !almostEq(p, 0.05) {
		t.Fatalf("penalty = %v, want 0.05", p)
	}
}

func TestPenaltyOfLoadsProperties(t *testing.T) {
	if PenaltyOfLoads(nil) != 0 {
		t.Fatal("empty loads penalty != 0")
	}
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := stats.NewRNG(seed)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = r.Float64() * 10
		}
		p := PenaltyOfLoads(loads)
		if p < 0 {
			return false
		}
		// Uniform loads ⇒ zero penalty.
		uni := make([]float64, n)
		for i := range uni {
			uni[i] = 3.5
		}
		return PenaltyOfLoads(uni) < 1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCombinedWeights(t *testing.T) {
	w, _, m := linePair(t)
	mp := deploy.Uniform(w.M(), 0)
	res := m.Evaluate(mp)
	if !almostEq(res.Combined, 0.5*res.ExecTime+0.5*res.TimePenalty) {
		t.Fatalf("Combined = %v vs parts %v/%v", res.Combined, res.ExecTime, res.TimePenalty)
	}
}

func TestIdealCycles(t *testing.T) {
	w, err := workflow.NewLine("w", []float64{30e6, 30e6}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("n", []float64{1e9, 2e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(w, n)
	ideal := m.IdealCycles()
	if !almostEq(ideal[0], 20e6) || !almostEq(ideal[1], 40e6) {
		t.Fatalf("IdealCycles = %v", ideal)
	}
}

func TestProbabilityAmortisedCosts(t *testing.T) {
	// XOR diamond with weights 3:1; branch a costs 10 Mcycles, b 20.
	b := workflow.NewBuilder("d")
	src := b.Op("src", 0)
	x := b.Split(workflow.XorSplit, "x", 0)
	a := b.Op("a", 10e6)
	bb := b.Op("b", 20e6)
	j := b.Join(workflow.XorSplit, "/x", 0)
	snk := b.Op("snk", 0)
	b.Link(src, x, 0)
	b.LinkWeighted(x, a, 8e6, 3)
	b.LinkWeighted(x, bb, 8e6, 1)
	b.Link(a, j, 0)
	b.Link(bb, j, 0)
	b.Link(j, snk, 0)
	w := b.MustBuild()
	n, err := network.NewBus("n", []float64{1e9, 1e9}, 8*mbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(w, n)

	// All on server 0: exec = 0.75*0.01 + 0.25*0.02 = 0.0125 s.
	mp := deploy.Uniform(w.M(), 0)
	if got := m.ExecutionTime(mp); !almostEq(got, 0.0125) {
		t.Fatalf("amortised exec = %v, want 0.0125", got)
	}

	// Put branch a on server 1: its 8 Mbit messages cross at prob 0.75,
	// adding 0.75 * (1 + 0) s for the x→a message (8 Mbit over 8 Mbps);
	// the a→j message has size 0.
	aIdx := -1
	for u, nd := range w.Nodes {
		if nd.Name == "a" {
			aIdx = u
		}
	}
	mp[aIdx] = 1
	wantBits := 0.75 * 8e6
	if got := m.BitsOnNetwork(mp); !almostEq(got, wantBits) {
		t.Fatalf("BitsOnNetwork = %v, want %v", got, wantBits)
	}
	if got := m.Evaluate(mp).CommTime; !almostEq(got, 0.75) {
		t.Fatalf("amortised comm = %v, want 0.75", got)
	}
}

func TestEvaluatePartialMapping(t *testing.T) {
	w, _, m := linePair(t)
	mp := deploy.NewUnassigned(w.M())
	mp[0] = 0
	res := m.Evaluate(mp)
	if !almostEq(res.ExecTime, 0.01) {
		t.Fatalf("partial exec = %v", res.ExecTime)
	}
	if res.CommTime != 0 {
		t.Fatal("partial mapping charged communication")
	}
}

func TestExecTimeMonotoneInMessageSize(t *testing.T) {
	// Property: scaling all message sizes up cannot reduce execution time.
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		cycles := []float64{10e6, 20e6, 30e6}
		small := []float64{r.Float64() * 1e6, r.Float64() * 1e6}
		big := []float64{small[0] * 2, small[1] * 2}
		ws, _ := workflow.NewLine("s", cycles, small)
		wb, _ := workflow.NewLine("b", cycles, big)
		n, _ := network.NewBus("n", []float64{1e9, 1e9}, 8*mbps, 0)
		mp := deploy.Mapping{0, 1, 0}
		return NewModel(wb, n).ExecutionTime(mp) >= NewModel(ws, n).ExecutionTime(mp)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllCostsNonNegativeProperty(t *testing.T) {
	w, n, m := linePair(t)
	check := func(seed uint64) bool {
		mp := deploy.Random(w, n, stats.NewRNG(seed))
		res := m.Evaluate(mp)
		return res.ExecTime >= 0 && res.TimePenalty >= 0 && res.Combined >= 0 && res.CommTime >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	r := Result{ExecTime: 1, TimePenalty: 2, Combined: 1.5}
	if r.String() == "" {
		t.Fatal("empty Result.String")
	}
}

func TestConstraintsCheck(t *testing.T) {
	w, _, m := linePair(t)
	mp := deploy.Uniform(w.M(), 0) // exec 0.1, penalty 0.05, max load 0.1
	var c Constraints
	if !c.Unconstrained() {
		t.Fatal("zero constraints not unconstrained")
	}
	if err := c.Check(m, mp); err != nil {
		t.Fatalf("unconstrained check failed: %v", err)
	}
	c = Constraints{MaxExecTime: 0.05}
	if err := c.Check(m, mp); err == nil {
		t.Fatal("exec bound not enforced")
	}
	c = Constraints{MaxTimePenalty: 0.01}
	if err := c.Check(m, mp); err == nil {
		t.Fatal("penalty bound not enforced")
	}
	c = Constraints{MaxServerLoad: 0.05}
	if err := c.Check(m, mp); err == nil {
		t.Fatal("load bound not enforced")
	}
	c = Constraints{MaxExecTime: 1, MaxTimePenalty: 1, MaxServerLoad: 1}
	if err := c.Check(m, mp); err != nil {
		t.Fatalf("satisfiable constraints rejected: %v", err)
	}
}

func TestConstraintViolationError(t *testing.T) {
	v := &Violation{Constraint: "MaxExecTime", Limit: 1, Actual: 2}
	if v.Error() == "" {
		t.Fatal("empty violation message")
	}
}
