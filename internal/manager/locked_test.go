package manager

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestFleetMetricsOnPermanentPaths asserts that the permanent fleet
// paths feed the same obs fleet metrics as the in-place MarkDown/MarkUp
// paths: ServerDown ticks the markdown counter and recomputes the
// down-server gauge under the surviving numbering, ServerUp ticks the
// markup counter and refreshes the gauge. The metrics are process-wide,
// so the test asserts deltas, not absolutes.
func TestFleetMetricsOnPermanentPaths(t *testing.T) {
	w, n := lineAndBus(t, 6, []float64{1e9, 1e9, 1e9, 1e9})
	m := New(n)
	if err := m.Deploy("wf", w); err != nil {
		t.Fatal(err)
	}

	downs0, ups0 := obsMarkDowns.Value(), obsMarkUps.Value()

	// An in-place failure followed by a permanent removal of a *different*
	// server: the remapped down set keeps exactly one entry, and the gauge
	// must say so after the renumbering.
	if _, err := m.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	if got := obsDownServers.Value(); got != 1 {
		t.Fatalf("down gauge after MarkDown = %g, want 1", got)
	}
	if _, err := m.ServerDown(3); err != nil {
		t.Fatal(err)
	}
	if got := obsMarkDowns.Value() - downs0; got != 2 {
		t.Fatalf("markdown counter delta = %d, want 2 (MarkDown + ServerDown)", got)
	}
	if got := obsDownServers.Value(); got != 1 {
		t.Fatalf("down gauge after ServerDown = %g, want 1 (mark survives renumbering)", got)
	}

	// Removing the marked server itself must drain the gauge to zero.
	if _, err := m.ServerDown(1); err != nil {
		t.Fatal(err)
	}
	if got := obsDownServers.Value(); got != 0 {
		t.Fatalf("down gauge after removing the marked server = %g, want 0", got)
	}

	if _, err := m.ServerUp("fresh", 2e9); err != nil {
		t.Fatal(err)
	}
	if got := obsMarkUps.Value() - ups0; got != 1 {
		t.Fatalf("markup counter delta = %d, want 1 (ServerUp)", got)
	}
	if got := obsDownServers.Value(); got != 0 {
		t.Fatalf("down gauge after ServerUp = %g, want 0", got)
	}
}

// TestLockedConcurrentUse hammers one shared Locked fleet from many
// goroutines mixing deploys, repairs, rebalances, status reads and
// snapshots — the sharing pattern of autopilot + chaos supervisor +
// httpapi. Run under -race this proves the wrapper's single mutex
// covers every path; the final invariant checks no state was torn.
func TestLockedConcurrentUse(t *testing.T) {
	w, n := lineAndBus(t, 5, []float64{1e9, 2e9, 2e9, 1e9})
	lk := NewLocked(n)
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("wf-%d-%d", g, i)
				if err := lk.Deploy(id, w); err != nil {
					t.Errorf("deploy %s: %v", id, err)
					return
				}
				switch i % 5 {
				case 0:
					// Concurrent markers may leave too few survivors or
					// already have rejoined the server — both are guard
					// errors, not synchronization failures.
					if _, err := lk.MarkDown(g % 4); err == nil {
						_ = lk.MarkUp(g % 4)
					}
				case 1:
					if _, err := lk.Rebalance(); err != nil {
						t.Errorf("rebalance: %v", err)
					}
				case 2:
					lk.Status()
					lk.DownServers()
				case 3:
					if _, err := lk.Snapshot(); err != nil {
						t.Errorf("snapshot: %v", err)
					}
				case 4:
					// A read-modify-write across two calls: the mapping
					// can go stale the moment another goroutine marks a
					// server down, and SetMapping then refuses it with a
					// guard error, which leaves the fleet as it was.
					if mp, ok := lk.Mapping(id); ok {
						if err := lk.SetMapping(id, mp); err != nil && !strings.Contains(err.Error(), "targets down server") {
							t.Errorf("mapping/setmapping: %v", err)
						}
					}
				}
				if i%2 == 0 {
					if err := lk.Remove(id); err != nil {
						t.Errorf("remove %s: %v", id, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := lk.Status()
	// 13 of the 25 iterations (i = 0, 2, …, 24) remove their deploy.
	if want := workers * (25 - 13); st.Workflows != want {
		t.Fatalf("surviving workflows = %d, want %d", st.Workflows, want)
	}
	for _, id := range lk.Workflows() {
		mp, ok := lk.Mapping(id)
		if !ok {
			t.Fatalf("workflow %q listed but has no mapping", id)
		}
		if err := mp.Validate(w, lk.Network()); err != nil {
			t.Fatalf("workflow %q mapping torn: %v", id, err)
		}
	}
}
