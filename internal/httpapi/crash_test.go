package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsdeploy/internal/chaos"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// Byte-offset crash sweeps of the daemon's own recovery: chaos.RecordSweep
// bound to one tenant of a handler. The live state is a tenant state
// over the sweep's recording store; every step is one real request, or,
// for the fleet records no endpoint emits alone, one manager.Locked call
// under the tenant's lock, as the fleet handlers make it. The reference is the live
// composite image, and recovery is restoreFromRecovery on a fresh
// tenant state over the reopened store, as NewHandlerWith restores a
// tenant at boot.

// sweepRecordTypes is every record type restoreFromRecovery dispatches.
var sweepRecordTypes = []string{
	manager.RecFleetCreate, manager.RecFleetRestore, manager.RecDeploy, manager.RecAdopt,
	manager.RecSetMapping, manager.RecRemove, manager.RecServerUp, manager.RecServerDown,
	manager.RecMarkDown, manager.RecMarkUp, manager.RecRebalance,
	recDeploymentCreated, recAutopilotRun,
	reconcile.RecSpecUpdate, reconcile.RecObserved, reconcile.RecSpecDelete,
}

// tenantSweep binds chaos.RecordSweep to one tenant of h.
type tenantSweep struct {
	h    *Handler
	name string
	ts   *tenantState    // the live state, built by Init
	seen map[string]bool // record types some recovery replayed
}

func newTenantSweep(h *Handler, name string) *tenantSweep {
	return &tenantSweep{h: h, name: name, seen: map[string]bool{}}
}

// stateOver builds an unpublished tenant state over st.
func (sw *tenantSweep) stateOver(st *store.Store) *tenantState {
	t, _ := sw.h.reg.Get(sw.name)
	ts := sw.h.newTenantState(t)
	ts.store = st
	return ts
}

// compositeImage is the snapshot payload ts would write now.
func compositeImage(ts *tenantState) ([]byte, error) {
	c, _, err := ts.captureComposite()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = c.encode(&buf)
	return buf.Bytes(), err
}

func (sw *tenantSweep) target() chaos.SweepTarget {
	return chaos.SweepTarget{
		Init: func(st *store.Store) error {
			sw.ts = sw.stateOver(st)
			sw.h.tmu.Lock()
			sw.h.states[sw.name] = sw.ts
			sw.h.tmu.Unlock()
			return nil
		},
		Reference: func() ([]byte, error) { return compositeImage(sw.ts) },
		Recover: func(st *store.Store, rec *store.Recovery) ([]byte, error) {
			for _, r := range rec.Records {
				sw.seen[r.Type] = true
			}
			ts := sw.stateOver(st)
			if err := ts.restoreFromRecovery(rec); err != nil {
				return nil, err
			}
			return compositeImage(ts)
		},
		Snapshot: func(*store.Store) error { return sw.ts.SnapshotNow() },
		Empty:    []byte("{}\n"),
	}
}

// request is a step serving one request to the tenant, which must
// answer 200.
func (sw *tenantSweep) request(name, method, path, body string) chaos.SweepStep {
	return sw.step(name, func() error {
		r := httptest.NewRequest(method, path, strings.NewReader(body))
		r.Header.Set(TenantHeader, sw.name)
		w := httptest.NewRecorder()
		sw.h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return fmt.Errorf("%s %s = %d: %s", method, path, w.Code, w.Body)
		}
		return nil
	})
}

// fleetCall is a step running fn on the tenant's fleet under
// ts.mutate, as the fleet handlers do.
func (sw *tenantSweep) fleetCall(name string, fn func(*manager.Locked) error) chaos.SweepStep {
	return sw.step(name, func() error {
		var err error
		sw.ts.mutate(func() { err = fn(sw.ts.fleet.l) })
		return err
	})
}

// step wraps apply, which must journal exactly one record.
func (sw *tenantSweep) step(name string, apply func() error) chaos.SweepStep {
	return chaos.SweepStep{Name: name, Apply: func() error {
		before := sw.ts.store.LastSeq()
		if err := apply(); err != nil {
			return err
		}
		if n := sw.ts.store.LastSeq() - before; n != 1 {
			return fmt.Errorf("journaled %d records, want 1", n)
		}
		return nil
	}}
}

// compact makes s take a composite snapshot before it applies.
func compact(s chaos.SweepStep) chaos.SweepStep {
	s.Compact = true
	return s
}

// sweepSpecs returns a small network and a two-operation line
// workflow, with their wfio JSON, so every record stays short.
func sweepSpecs(t *testing.T, netName string) (*network.Network, *workflow.Workflow, string, string) {
	t.Helper()
	n, err := network.NewBus(netName, []float64{1e9, 2e9, 3e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workflow.NewLine("w", []float64{1e8, 2e8}, []float64{8000})
	if err != nil {
		t.Fatal(err)
	}
	var nbuf, wbuf bytes.Buffer
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	if err := wfio.EncodeWorkflow(&wbuf, w); err != nil {
		t.Fatal(err)
	}
	return n, w, nbuf.String(), wbuf.String()
}

// TestCrashSweepEveryOffset kills a tenant's store at every byte offset
// of every record — including mid-frame — for a script that journals
// all 16 record types the daemon's restore dispatches, across two
// composite snapshots, and requires restoreFromRecovery to rebuild the
// live composite image of the committed prefix byte for byte.
func TestCrashSweepEveryOffset(t *testing.T) {
	h := NewHandler()
	defer h.Close()
	sw := newTenantSweep(h, "default")
	n, w, net, wf := sweepSpecs(t, "sweep")
	deploy := `{"workflow": ` + wf + `, "network": ` + net + `, "algorithm": "holm"`
	other := manager.NewLocked(n)
	if err := other.Deploy("gamma", w); err != nil {
		t.Fatal(err)
	}
	otherSnap, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	steps := []chaos.SweepStep{
		sw.request("create fleet", http.MethodPut, "/v1/fleet", `{"network": `+net+`}`),
		sw.request("deploy alpha", http.MethodPost, "/v1/fleet/workflows", `{"id": "alpha", "workflow": `+wf+`}`),
		sw.request("server up", http.MethodPost, "/v1/fleet/servers", `{"name": "joined", "powerHz": 2.5e9}`),
		sw.fleetCall("mark down", func(l *manager.Locked) error { _, err := l.MarkDown(1); return err }),
		sw.fleetCall("set mapping", func(l *manager.Locked) error {
			mp, _ := l.Mapping("alpha")
			mp[0] = 3 // the joined server; 1 is marked down
			return l.SetMapping("alpha", mp)
		}),
		sw.request("deploy auto", http.MethodPost, "/v1/deploy", deploy+`}`),
		compact(sw.request("deploy named", http.MethodPost, "/v1/deploy", deploy+`, "id": "named"}`)),
		sw.request("deploy auto after named", http.MethodPost, "/v1/deploy", deploy+`}`),
		sw.request("autopilot run", http.MethodPost, "/v1/autopilot", `{"network": `+net+`,
			"classes": [{"id": "a", "workflowWdl": "workflow a op A 50M msg 4K op B 5M"}],
			"traffic": {"rate": 2, "horizon": 10, "seed": 3}, "pilot": {"window": 5}, "enabled": true, "seed": 7}`),
		sw.request("post spec", http.MethodPost, "/v1/specs",
			`{"name": "app", "spec": {"network": `+net+`, "workflows": [{"id": "alpha", "workflow": `+wf+`}]}}`),
		sw.request("reconcile converged spec", http.MethodPost, "/v1/reconcile", `{"passes": 1}`),
		sw.request("delete spec", http.MethodDelete, "/v1/specs/app", ""),
		sw.fleetCall("mark up", func(l *manager.Locked) error { return l.MarkUp(1) }),
		sw.fleetCall("adopt beta", func(l *manager.Locked) error { return l.Adopt("beta", w, []int{2, 0}) }),
		compact(sw.request("rebalance", http.MethodPost, "/v1/fleet/rebalance", "")),
		sw.request("remove alpha", http.MethodDelete, "/v1/fleet/workflows/alpha", ""),
		sw.request("server down", http.MethodDelete, "/v1/fleet/servers/0", ""),
		sw.request("restore fleet snapshot", http.MethodPut, "/v1/fleet/snapshot", string(otherSnap)),
	}
	rep, err := chaos.RecordSweep(t.TempDir(), steps, sw.target())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != len(steps) {
		t.Fatalf("executed %d steps, want %d", rep.Steps, len(steps))
	}
	for _, typ := range sweepRecordTypes {
		if !sw.seen[typ] {
			t.Errorf("no recovery replayed a %s record", typ)
		}
	}
	// The sweep must actually exercise torn-tail truncation (mid-record
	// kills) and clean boundaries, in volume.
	if rep.Torn < 100 || rep.Clean < 10 {
		t.Fatalf("sweep too shallow: %+v", rep)
	}
	t.Logf("crash sweep: %d offsets (%d torn, %d clean) across %d steps", rep.Offsets, rep.Torn, rep.Clean, rep.Steps)
}

// tenantScript is a short history whose shape depends on the tenant, so
// two namespaces never share a byte-identical log.
func tenantScript(t *testing.T, sw *tenantSweep, extra int) []chaos.SweepStep {
	_, _, net, wf := sweepSpecs(t, sw.name)
	steps := []chaos.SweepStep{
		sw.request("create fleet", http.MethodPut, "/v1/fleet", `{"network": `+net+`}`),
		sw.request("deploy", http.MethodPost, "/v1/fleet/workflows", `{"id": "`+sw.name+`-wf", "workflow": `+wf+`}`),
		compact(sw.request("rebalance", http.MethodPost, "/v1/fleet/rebalance", "")),
	}
	for i := 0; i < extra; i++ {
		steps = append(steps, sw.request("deploy auto", http.MethodPost, "/v1/deploy",
			`{"workflow": `+wf+`, "network": `+net+`, "algorithm": "holm"}`))
	}
	return steps
}

// snapshotTree reads every file under dir into a map for byte-level
// comparison.
func snapshotTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrashSweepPerTenantNamespaces runs the kill-at-every-offset sweep
// of the daemon's restore for two tenants of one handler, each in its
// own namespace under one root and each with a different history, and
// requires (a) every offset of each tenant's sweep to recover
// byte-identically, and (b) the sibling namespace's bytes to be
// completely untouched by the other tenant's sweep: crash recovery is
// a per-tenant affair.
func TestCrashSweepPerTenantNamespaces(t *testing.T) {
	root := t.TempDir()
	h := NewHandler()
	defer h.Close()
	tenants := []struct {
		name  string
		extra int
	}{{"acme", 1}, {"beta", 3}}
	for _, tn := range tenants {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(`{"name": "`+tn.name+`"}`)))
		if w.Code != http.StatusCreated {
			t.Fatalf("creating tenant %s: %d %s", tn.name, w.Code, w.Body)
		}
		if err := os.MkdirAll(filepath.Join(root, tn.name), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	// Sweep acme while beta's namespace is empty, then beta while acme's
	// holds a finished recording: a sweep must never reach outside its
	// own directory.
	for i, tn := range tenants {
		otherDir := filepath.Join(root, tenants[(i+1)%len(tenants)].name)
		beforeOther := snapshotTree(t, otherDir)

		sw := newTenantSweep(h, tn.name)
		rep, err := chaos.RecordSweep(filepath.Join(root, tn.name), tenantScript(t, sw, tn.extra), sw.target())
		if err != nil {
			t.Fatalf("tenant %s sweep: %v", tn.name, err)
		}
		if rep.Torn == 0 || rep.Clean == 0 {
			t.Fatalf("tenant %s sweep too shallow: %+v", tn.name, rep)
		}
		t.Logf("tenant %s: %d offsets (%d torn, %d clean)", tn.name, rep.Offsets, rep.Torn, rep.Clean)

		afterOther := snapshotTree(t, otherDir)
		if len(beforeOther) != len(afterOther) {
			t.Fatalf("tenant %s sweep changed %s's file set: %d -> %d files",
				tn.name, otherDir, len(beforeOther), len(afterOther))
		}
		for name, want := range beforeOther {
			if got, ok := afterOther[name]; !ok || !bytes.Equal(got, want) {
				t.Fatalf("tenant %s sweep touched %s's file %s", tn.name, otherDir, name)
			}
		}
	}
}
