package autopilot

import (
	"reflect"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
)

// seed feeds every test backend.
const seed = 7

// driftScenario is the canonical drift study (see DemoScenario): skew
// traffic ramps one class's share on a fleet whose balanced placements
// are lumpy.
func driftScenario(t *testing.T) ([]ClassSpec, *network.Network, LoopConfig) {
	t.Helper()
	classes, n, err := DemoScenario()
	if err != nil {
		t.Fatal(err)
	}
	lc := LoopConfig{
		Traffic: DemoTraffic(Skew),
		Pilot:   Config{Window: 5},
	}
	return classes, n, lc
}

// balancedScenario: three statistically identical generated workflows
// on a generated bus — placements spread cleanly, so drift stays below
// every band no matter the offered rate.
func balancedScenario(t *testing.T) ([]ClassSpec, *network.Network) {
	t.Helper()
	cfg := gen.ClassC()
	var classes []ClassSpec
	for i, id := range []string{"wf-a", "wf-b", "wf-c"} {
		w, err := cfg.LinearWorkflow(stats.NewRNG(uint64(100+i*17)), 6)
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, ClassSpec{ID: id, Workflow: w})
	}
	n, err := cfg.BusNetworkWithSpeed(stats.NewRNG(42), 4, 100*gen.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	return classes, n
}

// TestClosedLoopSimConvergence is the sim half of the drift study: the
// same seeded skew run with the autopilot off and on. Enabled, the
// detector fires, bounded delta plans apply, and the measured live Time
// Penalty after convergence comes out lower than disabled. The whole
// run is deterministic: a second enabled run reproduces it exactly.
func TestClosedLoopSimConvergence(t *testing.T) {
	classes, n, lc := driftScenario(t)

	baseline, err := Run(classes, n, lc, NewSimBackend(seed))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Migrations != 0 || len(baseline.Actions) != 0 {
		t.Fatalf("disabled loop acted: %d migrations, %d actions", baseline.Migrations, len(baseline.Actions))
	}

	lc.Enabled = true
	res, err := Run(classes, n, lc, NewSimBackend(seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != baseline.Arrivals {
		t.Fatalf("open-loop arrivals must match: %d vs %d", res.Arrivals, baseline.Arrivals)
	}
	if len(res.Actions) == 0 || res.Migrations == 0 {
		t.Fatal("the detector never fired on the skew scenario")
	}
	budget := Config{}.WithDefaults().MaxMoves
	var sawDelta bool
	for _, a := range res.Actions {
		if a.Level == LevelDelta {
			sawDelta = true
		}
		if a.Level != LevelRebalance && a.Moves > budget {
			t.Fatalf("bounded rung exceeded budget: %+v", a)
		}
	}
	if !sawDelta {
		t.Fatalf("expected a bounded delta plan to fire, actions: %+v", res.Actions)
	}
	if res.TailPenalty >= baseline.TailPenalty {
		t.Fatalf("post-convergence Time Penalty did not improve: enabled %.4f vs disabled %.4f",
			res.TailPenalty, baseline.TailPenalty)
	}
	if res.TailDrift >= baseline.TailDrift {
		t.Fatalf("post-convergence drift did not improve: enabled %.4f vs disabled %.4f",
			res.TailDrift, baseline.TailDrift)
	}
	t.Logf("sim drift study: disabled tail penalty %.4f, enabled %.4f (%d actions, %d migrations)",
		baseline.TailPenalty, res.TailPenalty, len(res.Actions), res.Migrations)

	again, err := Run(classes, n, lc, NewSimBackend(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("enabled run is not deterministic")
	}
}

// TestSteadyTrafficZeroMigrations proves the hysteresis bands and
// cooldown hold the loop still when nothing drifts: a steady seeded run
// — and a diurnal one, whose rate swing the normalized signal must
// ignore — performs zero migrations.
func TestSteadyTrafficZeroMigrations(t *testing.T) {
	classes, n := balancedScenario(t)
	for _, shape := range []Shape{Steady, Diurnal} {
		lc := LoopConfig{
			Traffic: TrafficConfig{Rate: 6, Shape: shape, Horizon: 120, Seed: 9},
			Pilot:   Config{Window: 5},
			Enabled: true,
		}
		res, err := Run(classes, n, lc, NewSimBackend(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Arrivals == 0 {
			t.Fatalf("%s: no traffic generated", shape)
		}
		if res.Migrations != 0 || len(res.Actions) != 0 {
			t.Fatalf("%s traffic caused thrash: %d migrations, %d actions",
				shape, res.Migrations, len(res.Actions))
		}
	}
}

// TestObserveWindowWarmsRates checks the EWMA rate estimation both
// enabled loops and baselines share.
func TestObserveWindowWarmsRates(t *testing.T) {
	classes, n, lc := driftScenario(t)
	b := NewSimBackend(seed)
	fleet, err := deployFleet(classes, n, b)
	if err != nil {
		t.Fatal(err)
	}
	pilot := New(fleet, lc.Pilot, b)
	loads := make([]float64, n.N())
	pilot.ObserveWindow(5, loads, map[string]int{"wf-a": 10})
	if r := pilot.Rates()["wf-a"]; r != 2 {
		t.Fatalf("first window rate = %v, want 10/5", r)
	}
	pilot.ObserveWindow(10, loads, map[string]int{"wf-a": 20})
	// EWMA(0.5): 0.5×4 + 0.5×2 = 3.
	if r := pilot.Rates()["wf-a"]; r != 3 {
		t.Fatalf("smoothed rate = %v, want 3", r)
	}
}
