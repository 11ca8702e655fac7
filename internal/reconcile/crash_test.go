package reconcile

import (
	"encoding/json"
	"fmt"
	"testing"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
	"wsdeploy/internal/network"
	"wsdeploy/internal/store"
	"wsdeploy/internal/workflow"
)

// tinySpec keeps the WAL records small so the per-byte sweep stays
// fast: one two-op line workflow on a two-server bus.
func tinySpec(t *testing.T, id string) Spec {
	t.Helper()
	w, err := workflow.NewLine(id, []float64{2e6, 3e6}, []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("mini", []float64{1e9, 2e9}, 100e6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	return specFrom(t, n, autopilot.ClassSpec{ID: id, Workflow: w})
}

// TestSpecJournalCrashSweepPerTenant is the kill -9 proof of generation
// monotonicity: a scripted spec-revision history — journal-before-
// acknowledge, exactly as the API layer writes it — is killed at every
// byte offset of every record, per tenant namespace, and the recovered
// set must (a) byte-match the reference reduction of the committed
// prefix and (b) never hold an observedGeneration above the recovered
// desired generation. The WAL's append order makes (b) structural: the
// observed record for generation g is only ever written after g's spec
// record, so no truncation point can invert them.
func TestSpecJournalCrashSweepPerTenant(t *testing.T) {
	for _, tenant := range []string{"alice", "bob"} {
		tenant := tenant
		t.Run(tenant, func(t *testing.T) {
			t.Parallel()
			sp := tinySpec(t, tenant+"-wf")
			upd := sp
			upd.MinServers = 2

			set := NewSet()
			var st *store.Store
			journalPut := func(name string, s Spec) error {
				rec := SpecRecord{Name: name, Generation: set.NextGeneration(name), Spec: s}
				if _, err := st.Append(RecSpecUpdate, rec); err != nil {
					return err
				}
				return set.ReplaySpec(rec)
			}
			journalAdvance := func(name string, gen uint64) error {
				if _, err := st.Append(RecObserved, ObservedRecord{Name: name, Generation: gen}); err != nil {
					return err
				}
				if !set.Advance(name, gen) {
					return fmt.Errorf("advance of %s to %d refused", name, gen)
				}
				return nil
			}
			journalDelete := func(name string) error {
				rec := DeleteRecord{Name: name}
				if _, err := st.Append(RecSpecDelete, rec); err != nil {
					return err
				}
				set.ReplayDelete(rec)
				return nil
			}

			tgt := chaos.SweepTarget{
				Init:      func(s *store.Store) error { st = s; return nil },
				Reference: func() ([]byte, error) { return json.Marshal(set.Image()) },
				Recover: func(_ *store.Store, rec *store.Recovery) ([]byte, error) {
					rs := NewSet()
					if rec.Snapshot != nil {
						var img []Versioned
						if err := json.Unmarshal(rec.Snapshot, &img); err != nil {
							return nil, err
						}
						rs.RestoreImage(img)
					}
					for _, r := range rec.Records {
						if !IsSpecRecord(r.Type) {
							return nil, fmt.Errorf("seq %d: unexpected record type %q", r.Seq, r.Type)
						}
						switch r.Type {
						case RecSpecUpdate:
							var sr SpecRecord
							if err := json.Unmarshal(r.Data, &sr); err != nil {
								return nil, err
							}
							if err := rs.ReplaySpec(sr); err != nil {
								return nil, err
							}
						case RecObserved:
							var or ObservedRecord
							if err := json.Unmarshal(r.Data, &or); err != nil {
								return nil, err
							}
							if err := rs.ReplayObserved(or); err != nil {
								return nil, err
							}
						case RecSpecDelete:
							var dr DeleteRecord
							if err := json.Unmarshal(r.Data, &dr); err != nil {
								return nil, err
							}
							rs.ReplayDelete(dr)
						}
					}
					// The invariant under test: no truncation point may leave
					// status claiming a generation the log does not hold.
					for _, v := range rs.List() {
						if v.Observed > v.Generation {
							return nil, fmt.Errorf("spec %q recovered observedGeneration %d > generation %d",
								v.Name, v.Observed, v.Generation)
						}
					}
					return json.Marshal(rs.Image())
				},
				Snapshot: func(s *store.Store) error {
					img, err := json.Marshal(set.Image())
					if err != nil {
						return err
					}
					return s.Snapshot(img, s.LastSeq())
				},
				Empty: []byte("[]"),
			}

			app := tenant + "-app"
			svc := tenant + "-svc"
			steps := []chaos.SweepStep{
				{Name: "spec gen 1", Apply: func() error { return journalPut(app, sp) }},
				{Name: "observed gen 1", Apply: func() error { return journalAdvance(app, 1) }},
				{Name: "spec gen 2", Apply: func() error { return journalPut(app, upd) }},
				{Name: "second spec", Apply: func() error { return journalPut(svc, sp) }},
				{Name: "observed gen 2", Apply: func() error { return journalAdvance(app, 2) }},
				{Name: "compact", Compact: true},
				{Name: "observed svc", Apply: func() error { return journalAdvance(svc, 1) }},
				{Name: "delete svc", Apply: func() error { return journalDelete(svc) }},
				{Name: "spec gen 3", Apply: func() error { return journalPut(app, sp) }},
			}

			rep, err := chaos.RecordSweep(t.TempDir(), steps, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Torn == 0 || rep.Clean == 0 {
				t.Fatalf("sweep exercised no torn or no clean offsets: %+v", rep)
			}
			t.Logf("tenant %s: %d offsets swept (%d torn, %d clean) across %d steps",
				tenant, rep.Offsets, rep.Torn, rep.Clean, rep.Steps)
		})
	}
}
