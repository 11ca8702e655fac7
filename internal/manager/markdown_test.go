package manager

import (
	"bytes"
	"testing"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

func lineAndBus(t *testing.T, ops int, powers []float64) (*workflow.Workflow, *network.Network) {
	t.Helper()
	cycles := make([]float64, ops)
	sizes := make([]float64, ops-1)
	for i := range cycles {
		cycles[i] = 1e8
	}
	for i := range sizes {
		sizes[i] = 8000
	}
	w, err := workflow.NewLine("w", cycles, sizes)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("b", powers, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, n
}

func TestMarkDownRepairsOrphansInPlace(t *testing.T) {
	w, n := lineAndBus(t, 6, []float64{1e9, 1e9, 1e9})
	m := New(n)
	if err := m.Deploy("wf", w); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Mapping("wf")
	var victims []int
	for op, s := range before {
		if s == 1 {
			victims = append(victims, op)
		}
	}
	if len(victims) == 0 {
		t.Skip("greedy placement left server 1 empty")
	}

	moved, err := m.MarkDown(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(victims) {
		t.Fatalf("moved %d ops, want %d", moved, len(victims))
	}
	if !m.IsDown(1) || len(m.DownServers()) != 1 {
		t.Fatal("down set not recorded")
	}
	if m.Network().N() != 3 {
		t.Fatal("MarkDown changed the fleet size")
	}
	after, _ := m.Mapping("wf")
	for op, s := range after {
		if s == 1 {
			t.Fatalf("operation %d still on the down server", op)
		}
		if before[op] != 1 && after[op] != before[op] {
			t.Fatalf("operation %d moved (%d→%d) though its server survived",
				op, before[op], s)
		}
	}
	if err := after.Validate(w, m.Network()); err != nil {
		t.Fatalf("repaired mapping invalid: %v", err)
	}

	// Idempotent: marking the same server down again moves nothing —
	// duplicate crash detections must be harmless.
	again, err := m.MarkDown(1)
	if err != nil || again != 0 {
		t.Fatalf("second MarkDown moved %d ops, err %v", again, err)
	}
}

func TestMarkUpRejoinNeverDoublePlaces(t *testing.T) {
	w, n := lineAndBus(t, 6, []float64{1e9, 1e9, 1e9})
	m := New(n)
	if err := m.Deploy("wf", w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	repaired, _ := m.Mapping("wf")

	if err := m.MarkUp(1); err != nil {
		t.Fatal(err)
	}
	if m.IsDown(1) {
		t.Fatal("server still down after MarkUp")
	}
	after, _ := m.Mapping("wf")
	for op := range after {
		if after[op] != repaired[op] {
			t.Fatalf("rejoin moved operation %d (%d→%d): live work must stay put",
				op, repaired[op], after[op])
		}
	}

	// The rejoined capacity serves *new* arrivals.
	w2, _ := lineAndBus(t, 6, []float64{1e9, 1e9, 1e9})
	if err := m.Deploy("wf2", w2); err != nil {
		t.Fatalf("deploy after rejoin: %v", err)
	}

	// Rejoining an up server is a no-op, and out-of-range args error.
	if err := m.MarkUp(1); err != nil {
		t.Fatalf("double MarkUp: %v", err)
	}
	if err := m.MarkUp(99); err == nil {
		t.Fatal("MarkUp(99) accepted")
	}
	if _, err := m.MarkDown(99); err == nil {
		t.Fatal("MarkDown(99) accepted")
	}
}

func TestMarkDownRefusesLastServer(t *testing.T) {
	w, n := lineAndBus(t, 3, []float64{1e9, 1e9})
	m := New(n)
	if err := m.Deploy("wf", w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarkDown(1); err == nil {
		t.Fatal("marked down the last surviving server")
	}
}

func TestDeployAvoidsDownServers(t *testing.T) {
	w, n := lineAndBus(t, 6, []float64{1e9, 1e9, 1e9})
	m := New(n)
	if _, err := m.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy("wf", w); err != nil {
		t.Fatal(err)
	}
	mp, _ := m.Mapping("wf")
	for op, s := range mp {
		if s == 2 {
			t.Fatalf("operation %d placed on a down server", op)
		}
	}
	// Rebalance must respect the down set too.
	if _, err := m.Rebalance(); err != nil {
		t.Fatal(err)
	}
	mp, _ = m.Mapping("wf")
	for op, s := range mp {
		if s == 2 {
			t.Fatalf("rebalance put operation %d on a down server", op)
		}
	}
}

func TestSetMappingRejectsDownServer(t *testing.T) {
	w, n := lineAndBus(t, 3, []float64{1e9, 1e9, 1e9})
	m := New(n)
	if err := m.Adopt("wf", w, deploy.Mapping{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetMapping("wf", deploy.Mapping{0, 1, 0}); err == nil {
		t.Fatal("mapping onto a down server accepted")
	}
	if err := m.SetMapping("wf", deploy.Mapping{0, 2, 0}); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
}

func TestSnapshotCarriesDownSet(t *testing.T) {
	w, n := lineAndBus(t, 4, []float64{1e9, 1e9, 1e9})
	m := New(n)
	if err := m.Deploy("wf", w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsDown(2) {
		t.Fatal("restored manager forgot the down server")
	}
	st := got.Status()
	if len(st.Down) != 1 || st.Down[0] != 2 {
		t.Fatalf("status down set = %v", st.Down)
	}
}

// TestFailedServerRemovalLeavesManager: removing the one server that
// is up, with every other server marked down, leaves no server to place
// its orphans on. The removal must fail and leave the manager's
// snapshot and the fleet metrics as they were, and that snapshot must
// restore.
func TestFailedServerRemovalLeavesManager(t *testing.T) {
	w, n := lineAndBus(t, 4, []float64{1e9, 2e9, 2e9, 3e9, 1e9})
	src := New(n)
	if err := src.Adopt("wf1", w, deploy.Mapping{4, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if _, err := src.MarkDown(s); err != nil {
			t.Fatal(err)
		}
	}
	before, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Restore(before)
	if err != nil {
		t.Fatal(err)
	}
	downs, moves := obsMarkDowns.Value(), obsOrphanMoves.Value()
	if moved, err := m.ServerDown(4); err == nil || moved != 0 {
		t.Fatalf("ServerDown(4) = %d, %v; want 0 and an error", moved, err)
	}
	after, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed removal changed the manager:\n got: %s\nwant: %s", after, before)
	}
	if obsMarkDowns.Value() != downs || obsOrphanMoves.Value() != moves {
		t.Fatal("failed removal counted in the fleet metrics")
	}
	if _, err := Restore(after); err != nil {
		t.Fatalf("snapshot after a failed removal does not restore: %v", err)
	}
}
