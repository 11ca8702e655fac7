package autopilot

import (
	"math"
	"slices"
	"testing"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// plannerFixture builds three dominant-op line workflows — one heavy
// 60e6-cycle operation among 5e6 ones, the heavy op rotating per class
// so balanced placements are lumpy — over a 4-server bus, every class
// piled onto server 0 (the worst starting point).
func plannerFixture(t *testing.T, rates []float64) ([]Class, *network.Network) {
	t.Helper()
	n, err := network.NewBus("plan", []float64{1e9, 1e9, 1e9, 3e9}, 100*gen.Mbps, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	var classes []Class
	for i, id := range []string{"wf-a", "wf-b", "wf-c"} {
		cycles := []float64{5e6, 5e6, 5e6, 5e6}
		cycles[i%len(cycles)] = 60e6
		w, err := workflow.NewLine(id, cycles, []float64{4e3, 4e3, 4e3})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, Class{
			ID: id, Workflow: w,
			Mapping: deploy.Uniform(len(w.Nodes), 0),
			Rate:    rates[i],
		})
	}
	return classes, n
}

func mappingsOf(classes []Class) []deploy.Mapping {
	out := make([]deploy.Mapping, len(classes))
	for i, c := range classes {
		out[i] = c.Mapping
	}
	return out
}

func TestPlanTouchUpRespectsBudgetAndImproves(t *testing.T) {
	classes, n := plannerFixture(t, []float64{1, 1, 6})
	before := fleetObjective(classes, n, mappingsOf(classes))
	for _, budget := range []int{1, 2, 4} {
		mappings, moves := PlanTouchUp(classes, n, budget, 0.5)
		if len(moves) > budget {
			t.Fatalf("budget %d: %d moves", budget, len(moves))
		}
		if len(moves) == 0 {
			t.Fatalf("budget %d: everything on one server should always pay to spread", budget)
		}
		after := fleetObjective(classes, n, mappings)
		if after >= before {
			t.Fatalf("budget %d: objective %v did not improve on %v", budget, after, before)
		}
		// Replaying the moves over the inputs reproduces the mappings.
		replay := make([]deploy.Mapping, len(classes))
		byID := map[string]int{}
		for i, c := range classes {
			replay[i] = c.Mapping.Clone()
			byID[c.ID] = i
		}
		for _, mv := range moves {
			replay[byID[mv.Class]][mv.Op] = mv.To
		}
		for i := range replay {
			if !slices.Equal(replay[i], mappings[i]) {
				t.Fatalf("budget %d: moves do not reproduce mapping %d", budget, i)
			}
		}
	}
}

func TestPlanDeltaBudgetMonotone(t *testing.T) {
	classes, n := plannerFixture(t, []float64{1, 2, 8})
	prev := fleetObjective(classes, n, mappingsOf(classes))
	for _, budget := range []int{1, 2, 4, 8} {
		mappings, moves, err := PlanDelta(classes, n, budget, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) > budget {
			t.Fatalf("budget %d: %d moves", budget, len(moves))
		}
		after := fleetObjective(classes, n, mappings)
		if after > prev+1e-9 {
			t.Fatalf("budget %d: objective %v worse than smaller budget's %v", budget, after, prev)
		}
		prev = after
	}
}

func TestMigrationWeightVetoesMoves(t *testing.T) {
	classes, n := plannerFixture(t, []float64{1, 1, 6})
	if _, moves := PlanTouchUp(classes, n, 4, 1e12); len(moves) != 0 {
		t.Fatalf("prohibitive migration weight still moved %d ops (touch-up)", len(moves))
	}
	_, moves, err := PlanDelta(classes, n, 4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("prohibitive migration weight still moved %d ops (delta)", len(moves))
	}
}

func TestPlanRebalanceIsUnbounded(t *testing.T) {
	classes, n := plannerFixture(t, []float64{1, 2, 8})
	before := fleetObjective(classes, n, mappingsOf(classes))
	mappings, moves, err := PlanRebalance(classes, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) <= 4 {
		t.Fatalf("full rebalance of 12 co-located ops should exceed the delta budget, got %d moves", len(moves))
	}
	after := fleetObjective(classes, n, mappings)
	if after >= before/2 {
		t.Fatalf("rebalance too timid: %v vs %v", after, before)
	}
}

func TestFleetLoadsAreRateWeighted(t *testing.T) {
	classes, n := plannerFixture(t, []float64{1, 1, 1})
	base := FleetLoads(classes, n)
	classes[0].Rate = 2
	doubled := FleetLoads(classes, n)
	// Class 0's contribution doubles; with identical mappings the delta
	// equals class 0's base load exactly.
	single := FleetLoads(classes[:1], n)
	// single still has Rate 2 — halve it for the per-unit contribution.
	for s := range base {
		want := base[s] + single[s]/2
		if math.Abs(doubled[s]-want) > 1e-9 {
			t.Fatalf("server %d: got %v want %v", s, doubled[s], want)
		}
	}
}

func TestUtilizationAndLeastLoaded(t *testing.T) {
	if u := Utilization([]float64{1, 2, 3}); math.Abs(u-2) > 1e-12 {
		t.Fatalf("Utilization = %v, want 2", u)
	}
	if u := Utilization(nil); u != 0 {
		t.Fatalf("Utilization(nil) = %v", u)
	}
	if s := leastLoaded([]float64{3, 0.5, 2}); s != 1 {
		t.Fatalf("leastLoaded = %d, want 1", s)
	}
}
