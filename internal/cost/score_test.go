package cost

import (
	"math"
	"testing"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// table1 writes Table 1 out term by term, one pass per metric: the
// reference Evaluate must equal bit for bit. The sums run in the model's
// order (operations, then edges), since floating-point addition is not
// associative.
func table1(w *workflow.Workflow, n *network.Network, mp deploy.Mapping) Result {
	nodeProb, edgeProb := w.Probabilities()
	loads := make([]float64, n.N())
	for op, s := range mp {
		if s == deploy.Unassigned {
			continue
		}
		loads[s] += nodeProb[op] * (w.Nodes[op].Cycles / n.Servers[s].PowerHz)
	}
	var exec float64
	for op, s := range mp {
		if s == deploy.Unassigned {
			continue
		}
		exec += nodeProb[op] * (w.Nodes[op].Cycles / n.Servers[s].PowerHz)
	}
	var comm float64
	for e, edge := range w.Edges {
		from, to := mp[edge.From], mp[edge.To]
		if from == deploy.Unassigned || to == deploy.Unassigned {
			continue
		}
		exec += edgeProb[e] * n.TransferTime(from, to, edge.SizeBits)
		comm += edgeProb[e] * n.TransferTime(from, to, edge.SizeBits)
	}
	var sum float64
	for _, l := range loads {
		sum += l
	}
	avg := sum / float64(len(loads))
	var dev float64
	for _, l := range loads {
		dev += math.Abs(l - avg)
	}
	pen := dev / 2
	return Result{
		ExecTime:    exec,
		TimePenalty: pen,
		Combined:    0.5*exec + 0.5*pen,
		CommTime:    comm,
		Loads:       loads,
	}
}

// fuzzInstance draws a Class C graph workflow of 2–40 nodes, a network of
// 1–40 servers (a bus, or up to four bus regions chained by WAN links),
// and a random mapping with roughly holes/256 of its operations
// unassigned.
func fuzzInstance(t *testing.T, seed uint64, ops, servers, regions, holes uint8) (*workflow.Workflow, *network.Network, deploy.Mapping) {
	t.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(seed)
	structures := gen.Structures()
	w, err := cfg.GraphWorkflow(r, 2+int(ops)%39, structures[int(seed%uint64(len(structures)))])
	if err != nil {
		t.Fatal(err)
	}
	N := 1 + int(servers)%40
	var n *network.Network
	if k := 1 + int(regions)%4; k == 1 || k > N {
		n, err = cfg.BusNetwork(r, N)
	} else {
		specs := make([]network.RegionSpec, k)
		for s := 0; s < N; s++ {
			specs[s%k].Powers = append(specs[s%k].Powers, cfg.PowerHz.Sample(r))
		}
		var wan []network.WANLink
		for i := range specs {
			specs[i].Name = string(rune('a' + i))
			specs[i].SpeedBps = cfg.LinkBps.Sample(r)
			specs[i].PropDelay = 50e-6
			if i > 0 {
				wan = append(wan, network.WANLink{A: specs[i-1].Name, B: specs[i].Name, SpeedBps: 10 * gen.Mbps, PropDelay: 30e-3})
			}
		}
		n, err = network.NewRegions("fuzz", specs, wan)
	}
	if err != nil {
		t.Fatal(err)
	}
	mp := deploy.Random(w, n, r)
	for op := range mp {
		if r.Intn(256) < int(holes) {
			mp[op] = deploy.Unassigned
		}
	}
	return w, n, mp
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzScoreMatchesEvaluate holds every fast path of the model to
// Evaluate, and Evaluate to Table 1, bit for bit.
func FuzzScoreMatchesEvaluate(f *testing.F) {
	f.Add(uint64(1), uint8(19), uint8(4), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(38), uint8(31), uint8(0), uint8(40))
	f.Add(uint64(3), uint8(25), uint8(32), uint8(2), uint8(90))
	f.Add(uint64(4), uint8(30), uint8(39), uint8(3), uint8(10))
	f.Add(uint64(5), uint8(0), uint8(0), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, ops, servers, regions, holes uint8) {
		w, n, mp := fuzzInstance(t, seed, ops, servers, regions, holes)
		m := NewModel(w, n)
		res := m.Evaluate(mp)
		want := table1(w, n, mp)
		check := func(what string, got, want float64) {
			t.Helper()
			if !sameBits(got, want) {
				t.Fatalf("%s = %v, want %v (mapping %v on %d servers)", what, got, want, mp, n.N())
			}
		}
		check("Evaluate.ExecTime", res.ExecTime, want.ExecTime)
		check("Evaluate.TimePenalty", res.TimePenalty, want.TimePenalty)
		check("Evaluate.Combined", res.Combined, want.Combined)
		check("Evaluate.CommTime", res.CommTime, want.CommTime)
		for s := range want.Loads {
			check("Evaluate.Loads", res.Loads[s], want.Loads[s])
		}

		exec, pen := m.Score(mp)
		check("Score exec", exec, res.ExecTime)
		check("Score penalty", pen, res.TimePenalty)
		check("Combined", m.Combined(mp), res.Combined)
		check("TimePenalty", m.TimePenalty(mp), res.TimePenalty)
		check("ExecutionTime", m.ExecutionTime(mp), res.ExecTime)
		for s, l := range m.Loads(mp) {
			check("Loads", l, res.Loads[s])
		}
	})
}

// TestScoreAndCombinedDoNotAllocate pins the search loops' evaluator to
// zero allocations on the largest network its stack buffer covers.
func TestScoreAndCombinedDoNotAllocate(t *testing.T) {
	cfg := gen.ClassC()
	r := stats.NewRNG(3)
	w, err := cfg.LinearWorkflow(r, 25)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cfg.BusNetwork(r, scoreBufServers)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(w, n)
	mp := deploy.Random(w, n, r)
	var sink float64
	if a := testing.AllocsPerRun(100, func() {
		exec, pen := m.Score(mp)
		sink += exec + pen
	}); a != 0 {
		t.Errorf("Score allocates %v times per call on %d servers, want 0", a, n.N())
	}
	if a := testing.AllocsPerRun(100, func() { sink += m.Combined(mp) }); a != 0 {
		t.Errorf("Combined allocates %v times per call on %d servers, want 0", a, n.N())
	}
	_ = sink
}

// TestRelabelIdenticalServersKeepsCombined swaps the servers of every
// mapping among servers of equal power on a bus, where they are also
// equally placed: the cost may move only by the rounding of the load
// sums taken in another order.
func TestRelabelIdenticalServersKeepsCombined(t *testing.T) {
	cfg := gen.ClassC()
	powers := []float64{1e9, 2e9, 2e9, 3e9, 2e9, 1e9, 3e9}
	n, err := network.NewBus("n", powers, 100*gen.Mbps, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := stats.NewRNG(seed)
		w, err := cfg.GraphWorkflow(r, 30, gen.Bushy)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(w, n)
		// Relabel within each power class by a random permutation.
		relabel := make([]int, n.N())
		for s := range relabel {
			relabel[s] = s
		}
		for i := range relabel {
			j := r.Intn(len(relabel))
			if powers[relabel[i]] == powers[relabel[j]] {
				relabel[i], relabel[j] = relabel[j], relabel[i]
			}
		}
		mp := deploy.Random(w, n, r)
		moved := make(deploy.Mapping, len(mp))
		for op, s := range mp {
			moved[op] = relabel[s]
		}
		a, b := m.Combined(mp), m.Combined(moved)
		if math.Abs(a-b) > 1e-12*math.Abs(a) {
			t.Fatalf("seed %d: relabelling %v moved Combined %v -> %v", seed, relabel, a, b)
		}
	}
}

// TestScalingCyclesAndPowerKeepsTproc scales every cycle count and every
// server power by 2^k: C/P, and so every load and the time penalty, stay
// bit-identical because scaling by a power of two is exact.
func TestScalingCyclesAndPowerKeepsTproc(t *testing.T) {
	cfg := gen.ClassC()
	r := stats.NewRNG(11)
	w, err := cfg.GraphWorkflow(r, 30, gen.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cfg.BusNetwork(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(w, n)
	mp := deploy.Random(w, n, r)
	for _, k := range []int{-20, -1, 1, 3, 30} {
		f := math.Ldexp(1, k)
		nodes := append([]workflow.Node(nil), w.Nodes...)
		for i := range nodes {
			nodes[i].Cycles *= f
		}
		ws, err := workflow.New(w.Name, nodes, w.Edges)
		if err != nil {
			t.Fatal(err)
		}
		powers := make([]float64, n.N())
		for s, srv := range n.Servers {
			powers[s] = srv.PowerHz * f
		}
		ns, err := network.NewBus("scaled", powers, 100*gen.Mbps, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms := NewModel(ws, ns)
		for op := range w.Nodes {
			for s := range n.Servers {
				if !sameBits(ms.Tproc(op, s), m.Tproc(op, s)) {
					t.Fatalf("k=%d: Tproc(%d,%d) = %v, want %v", k, op, s, ms.Tproc(op, s), m.Tproc(op, s))
				}
			}
		}
		if !sameBits(ms.TimePenalty(mp), m.TimePenalty(mp)) {
			t.Fatalf("k=%d: TimePenalty %v, want %v", k, ms.TimePenalty(mp), m.TimePenalty(mp))
		}
	}
}

// TestColocatedEdgeAddsNothing grows every message: the execution time
// must not move for messages whose two ends share a server, and must grow
// once a crossing message grows.
func TestColocatedEdgeAddsNothing(t *testing.T) {
	cfg := gen.ClassC()
	for seed := uint64(1); seed <= 10; seed++ {
		r := stats.NewRNG(seed)
		w, err := cfg.GraphWorkflow(r, 25, gen.Lengthy)
		if err != nil {
			t.Fatal(err)
		}
		n, err := cfg.BusNetwork(r, 3)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(w, n)
		mp := deploy.Random(w, n, r)
		base := m.ExecutionTime(mp)

		colocated := append([]workflow.Edge(nil), w.Edges...)
		crossing := append([]workflow.Edge(nil), w.Edges...)
		crossed := false
		for e, edge := range w.Edges {
			if mp[edge.From] == mp[edge.To] {
				colocated[e].SizeBits = edge.SizeBits*1000 + 1e9
			} else if m.EdgeProb(e) > 0 {
				crossing[e].SizeBits = edge.SizeBits*1000 + 1e9
				crossed = true
			}
		}
		wc, err := workflow.New(w.Name, w.Nodes, colocated)
		if err != nil {
			t.Fatal(err)
		}
		if got := NewModel(wc, n).ExecutionTime(mp); !sameBits(got, base) {
			t.Fatalf("seed %d: growing co-located messages moved exec %v -> %v", seed, base, got)
		}
		if !crossed {
			continue
		}
		wx, err := workflow.New(w.Name, w.Nodes, crossing)
		if err != nil {
			t.Fatal(err)
		}
		if got := NewModel(wx, n).ExecutionTime(mp); got <= base {
			t.Fatalf("seed %d: growing crossing messages left exec at %v (was %v)", seed, got, base)
		}
	}
}
