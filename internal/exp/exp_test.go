package exp

import (
	"math"
	"strings"
	"testing"
)

// smallOpts keeps experiment tests fast while exercising the full path.
func smallOpts() Options {
	return Options{
		Runs:          6,
		Operations:    13,
		Servers:       []int{3, 5},
		BusSpeedsMbps: []float64{1, 100},
		Samples:       400,
		Seed:          42,
	}
}

func suiteNames() map[string]bool {
	return map[string]bool{
		"FairLoad": true, "FL-TieResolver": true, "FL-TieResolver2": true,
		"FL-MergeMsgEnds": true, "HeavyOps-LargeMsgs": true,
	}
}

func checkFigure(t *testing.T, fig Figure, wantSeries int) {
	t.Helper()
	if len(fig.Series) != wantSeries {
		t.Fatalf("%s has %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	names := suiteNames()
	for _, s := range fig.Series {
		if len(s.Points) != len(names) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(names))
		}
		for _, p := range s.Points {
			if !names[p.Algorithm] {
				t.Fatalf("unexpected algorithm %q", p.Algorithm)
			}
			if p.ExecTime <= 0 || math.IsNaN(p.ExecTime) {
				t.Fatalf("series %q %s exec time %v", s.Label, p.Algorithm, p.ExecTime)
			}
			if p.Penalty < 0 || math.IsNaN(p.Penalty) {
				t.Fatalf("series %q %s penalty %v", s.Label, p.Algorithm, p.Penalty)
			}
		}
	}
}

func TestRunFig6(t *testing.T) {
	fig, err := RunFig6(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4) // 2 bus speeds × 2 server counts
}

func TestRunFig6SlowBusCostsMore(t *testing.T) {
	fig, err := RunFig6(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The mean exec time of the suite on the 1 Mbps bus must exceed the
	// 100 Mbps bus for the same N (communication dominates).
	var slow, fast float64
	for _, s := range fig.Series {
		var sum float64
		for _, p := range s.Points {
			sum += p.ExecTime
		}
		if strings.HasPrefix(s.Label, "bus=1Mbps N=3") {
			slow = sum
		}
		if strings.HasPrefix(s.Label, "bus=100Mbps N=3") {
			fast = sum
		}
	}
	if slow <= fast {
		t.Fatalf("1 Mbps bus (%v) not slower than 100 Mbps (%v)", slow, fast)
	}
}

func TestRunFig7(t *testing.T) {
	fig, err := RunFig7(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
}

func TestRunFig8(t *testing.T) {
	fig, err := RunFig8(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 6) // 3 structures × 2 bus speeds
	for _, want := range []string{"bushy", "lengthy", "hybrid"} {
		found := false
		for _, s := range fig.Series {
			if strings.HasPrefix(s.Label, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("structure %q missing from fig8", want)
		}
	}
}

func TestRunLineLine(t *testing.T) {
	fig, err := RunLineLine(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("lineline series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 6 { // 4 variants + Best + FairLoad
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		// LineLine-Best must not lose to any plain variant on combined.
		var bestPt, worstVariant Point
		for _, p := range s.Points {
			if p.Algorithm == "LineLine-Best" {
				bestPt = p
			}
		}
		worstVariant = bestPt
		for _, p := range s.Points {
			if strings.HasPrefix(p.Algorithm, "LineLine") && p.Algorithm != "LineLine-Best" {
				if p.Combined > worstVariant.Combined {
					worstVariant = p
				}
			}
		}
		if bestPt.Combined > worstVariant.Combined+1e-12 {
			t.Fatalf("LineLine-Best (%v) worse than a variant (%v)", bestPt.Combined, worstVariant.Combined)
		}
	}
}

func TestRunQuality(t *testing.T) {
	o := smallOpts()
	o.Runs = 4
	results, err := RunQuality(o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads × 2 bus speeds × 5 algorithms.
	if len(results) != 20 {
		t.Fatalf("got %d quality rows, want 20", len(results))
	}
	for _, q := range results {
		if q.WorstExecDev < 0 || q.WorstPenaltyDev < 0 {
			t.Fatalf("negative deviation: %+v", q)
		}
		if q.MeanExecDev > q.WorstExecDev+1e-12 {
			t.Fatalf("mean exceeds worst: %+v", q)
		}
		if q.Experiments != o.Runs {
			t.Fatalf("experiments = %d", q.Experiments)
		}
		if q.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestRunClassA(t *testing.T) {
	o := smallOpts()
	o.Runs = 3
	fig, err := RunClassA(o)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 12) // 3 message mixes × 4 bus speeds
}

func TestRunClassB(t *testing.T) {
	o := smallOpts()
	o.Runs = 3
	fig, err := RunClassB(o)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 9) // 3 power mixes × 3 cycle mixes
}

func TestExperimentsDeterministic(t *testing.T) {
	o := smallOpts()
	o.Runs = 3
	f1, err := RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Series {
		for j := range f1.Series[i].Points {
			if f1.Series[i].Points[j] != f2.Series[i].Points[j] {
				t.Fatalf("series %d point %d differs between identical runs", i, j)
			}
		}
	}
}

func TestRenderTable(t *testing.T) {
	o := smallOpts()
	o.Runs = 2
	fig, err := RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable(fig)
	for _, want := range []string{"fig6", "FairLoad", "HeavyOps-LargeMsgs", "best combined"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderScatter(t *testing.T) {
	s := Series{
		Label: "demo",
		Points: []Point{
			{Algorithm: "FairLoad", ExecTime: 1, Penalty: 0.1},
			{Algorithm: "HeavyOps-LargeMsgs", ExecTime: 0.5, Penalty: 0.2},
		},
	}
	out := RenderScatter(s)
	if !strings.Contains(out, "F = FairLoad") || !strings.Contains(out, "H = HeavyOps-LargeMsgs") {
		t.Fatalf("scatter legend missing:\n%s", out)
	}
	if !strings.Contains(out, "exec time") {
		t.Fatal("axis label missing")
	}
}

func TestRenderScatterZeroPoints(t *testing.T) {
	// Degenerate all-zero series must not divide by zero.
	s := Series{Label: "zero", Points: []Point{{Algorithm: "FairLoad"}}}
	out := RenderScatter(s)
	if out == "" {
		t.Fatal("empty scatter")
	}
}

func TestRenderQuality(t *testing.T) {
	rows := []QualityResult{{
		Algorithm: "HeavyOps-LargeMsgs", BusMbps: 1, Workload: "line",
		WorstExecDev: 0.029, WorstPenaltyDev: 0.12,
	}}
	out := RenderQuality(rows)
	if !strings.Contains(out, "2.9%") || !strings.Contains(out, "12.0%") {
		t.Fatalf("quality table wrong:\n%s", out)
	}
}

func TestTable6Report(t *testing.T) {
	out := Table6Report(1, 20000)
	for _, want := range []string{"MsgSize", "Line_Speed", "C(Oi)", "P(Si)", "Mbps", "GHz"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 6 report missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 50 || o.Operations != 19 || o.Samples != 32000 {
		t.Fatalf("paper defaults drifted: %+v", o)
	}
	if len(o.Servers) != 3 || o.Servers[2] != 5 {
		t.Fatalf("server sweep: %v", o.Servers)
	}
	if len(o.BusSpeedsMbps) != 2 {
		t.Fatalf("bus sweep: %v", o.BusSpeedsMbps)
	}
}
