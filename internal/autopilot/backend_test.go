package autopilot

import (
	"reflect"
	"testing"
	"time"
)

// TestClosedLoopFabricConvergence is the fabric half of the drift
// study: the identical seeded skew run against live HTTP services.
// Because the fabric reports virtual busy seconds (RunResult.Busy, the
// twin of sim BusyTime) and instances run sequentially, the loop is
// deterministic AND reproduces the simulator's windows exactly —
// detector firings, applied delta plans, and the post-convergence
// Time Penalty improvement included.
func TestClosedLoopFabricConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up live fabric hosts")
	}
	classes, n, lc := driftScenario(t)
	const scale = 200 * time.Microsecond

	baseline, err := Run(classes, n, lc, NewFabricBackend(seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Migrations != 0 || len(baseline.Actions) != 0 {
		t.Fatalf("disabled loop acted: %d migrations, %d actions", baseline.Migrations, len(baseline.Actions))
	}

	lc.Enabled = true
	res, err := Run(classes, n, lc, NewFabricBackend(seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) == 0 || res.Migrations == 0 {
		t.Fatal("the detector never fired on the fabric skew scenario")
	}
	if res.TailPenalty >= baseline.TailPenalty {
		t.Fatalf("post-convergence Time Penalty did not improve on the fabric: enabled %.4f vs disabled %.4f",
			res.TailPenalty, baseline.TailPenalty)
	}
	t.Logf("fabric drift study: disabled tail penalty %.4f, enabled %.4f (%d actions, %d migrations)",
		baseline.TailPenalty, res.TailPenalty, len(res.Actions), res.Migrations)

	// Determinism: a second enabled fabric run reproduces every window.
	again, err := Run(classes, n, lc, NewFabricBackend(seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("enabled fabric run is not deterministic")
	}

	// Backend agreement: the simulator, fed the same seeds, produces the
	// same drift study window for window.
	sim, err := Run(classes, n, lc, NewSimBackend(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim, res) {
		t.Fatalf("sim and fabric loops diverged:\nsim:    %+v\nfabric: %+v", sim, res)
	}
}

// TestFabricRunNeverScales runs a configuration that grows the fleet on
// the simulator — every window fires the rebalance rung and counts as
// hot — on the fabric, which cannot renumber live hosts: there the
// server count never changes.
func TestFabricRunNeverScales(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up live fabric hosts")
	}
	classes, n, lc := driftScenario(t)
	lc.Enabled = true
	lc.Traffic.Horizon = 30
	lc.Pilot.AllowScale = true
	lc.Pilot.ScaleUpUtil = 1e-9
	lc.Pilot.ScaleWindows = 1
	lc.Pilot.Detector.Rebalance = Band{Enter: 1e-6, Exit: 1e-7}

	scaled := func(res *LoopResult) int {
		var n int
		for _, a := range res.Actions {
			n += a.Scaled
		}
		return n
	}
	sim, err := Run(classes, n, lc, NewSimBackend(seed))
	if err != nil {
		t.Fatal(err)
	}
	if scaled(sim) == 0 {
		t.Fatalf("the simulator run never scaled, so the fabric check proves nothing: %+v", sim.Actions)
	}
	fab, err := Run(classes, n, lc, NewFabricBackend(seed, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(fab.Actions) == 0 {
		t.Fatal("the fabric run never fired the rebalance rung")
	}
	if got := scaled(fab); got != 0 {
		t.Fatalf("fabric run changed the server count by %d: %+v", got, fab.Actions)
	}
}
