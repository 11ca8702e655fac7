package sim

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// goldenInstances is how many generated instances TestSimGolden pins.
const goldenInstances = 50

// goldenInstance draws instance i of the pinned set: Class C line and
// graph workflows (all three structures) over bus and line networks,
// with a random mapping.
func goldenInstance(t *testing.T, i int) (*workflow.Workflow, *network.Network, deploy.Mapping) {
	t.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(uint64(1000 + i))
	m := 4 + r.Intn(14)
	var (
		w   *workflow.Workflow
		err error
	)
	if i%2 == 0 {
		w, err = cfg.LinearWorkflow(r, m)
	} else {
		w, err = cfg.GraphWorkflow(r, m, gen.Structures()[(i/2)%3])
	}
	if err != nil {
		t.Fatal(err)
	}
	var n *network.Network
	if (i/2)%2 == 0 {
		n, err = cfg.BusNetwork(r, 2+r.Intn(5))
	} else {
		n, err = cfg.LineNetwork(r, 2+r.Intn(5))
	}
	if err != nil {
		t.Fatal(err)
	}
	return w, n, deploy.Random(w, n, r)
}

// bits renders floats as the hex of their IEEE-754 bits, so the golden
// file catches a last-bit drift that any decimal print would hide.
func bits(xs ...float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%x", math.Float64bits(x))
	}
	return strings.Join(s, " ")
}

func summaryBits(s stats.Summary) string {
	return fmt.Sprintf("n=%d %s", s.N, bits(s.Mean, s.Stddev, s.Min, s.Max, s.Median, s.P05, s.P95))
}

func runBits(rr RunResult) string {
	return fmt.Sprintf("%s busy=[%s] msgs=%d ops=%d completed=%t lostops=%d lostmsgs=%d",
		bits(rr.Makespan, rr.SerialTime, rr.BitsSent), bits(rr.BusyTime...),
		rr.MessagesSent, rr.ExecutedOps, rr.Completed, rr.LostOps, rr.LostMessages)
}

// renderGolden plays every simulator entry point on every pinned
// instance and renders each result bit for bit.
func renderGolden(t *testing.T) string {
	var b strings.Builder
	for i := 0; i < goldenInstances; i++ {
		w, n, mp := goldenInstance(t, i)
		fmt.Fprintf(&b, "instance %d %s ops=%d servers=%d topology=%v mapping=%v\n",
			i, w.Name, w.M(), n.N(), n.Topology(), []int(mp))
		seed := uint64(i)
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"default", Config{}},
			{"bus", Config{BusContention: true}},
			{"infinite", Config{InfiniteServers: true}},
		} {
			rr := RunOnce(w, n, mp, stats.NewRNG(seed), c.cfg)
			fmt.Fprintf(&b, "run %s %s\n", c.name, runBits(rr))
		}

		events, rr := Trace(w, n, mp, stats.NewRNG(seed), Config{BusContention: true})
		fmt.Fprintf(&b, "trace %s\n", runBits(rr))
		for _, e := range events {
			fmt.Fprintf(&b, "  %s %v %d %d\n", bits(e.Time), e.Kind, e.Node, e.Edge)
		}

		res, err := Simulate(w, n, mp, Config{Runs: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "simulate runs=%d completed=%d makespan=[%s] serial=[%s] busy=[%s] %s\n",
			res.Runs, res.Completed, summaryBits(res.Makespan), summaryBits(res.SerialTime),
			bits(res.MeanBusy...), bits(res.MeanBits, res.MeanMessages, res.MeanExecutedOp))

		capacity := n.TotalPower() / w.ExpectedCycles()
		for _, load := range []float64{0.3, 0.9, 1.5} {
			sr, err := SimulateStream(w, n, mp, StreamConfig{
				ArrivalRate: load * capacity,
				Instances:   60,
				Seed:        seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "stream %.1f instances=%d sojourn=[%s] util=[%s] %s\n",
				load, sr.Instances, summaryBits(sr.Sojourn), bits(sr.Utilization...),
				bits(sr.Span, sr.Throughput, sr.BitsSent))
		}
	}
	return b.String()
}

// TestSimGolden pins RunOnce (default, bus contention, infinite
// servers), Trace, Simulate and SimulateStream at three loads, bit for
// bit, on 50 generated instances. Any change to the event loop's
// arithmetic or event order shows up as a diff in testdata/golden.txt.
func TestSimGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("testdata/golden.txt line %d drifted:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("testdata/golden.txt has %d lines, the simulator renders %d", len(wl), len(gl))
}
