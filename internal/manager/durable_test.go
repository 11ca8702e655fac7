package manager

import (
	"bytes"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/store"
)

// recoverFleet replays a fleet-only recovery the way the daemon's
// restore does for its fleet records: the snapshot (when present)
// through Restore, then every record through ApplyRecord. A recovery
// with no snapshot and no genesis record yields no fleet.
func recoverFleet(rec *store.Recovery) (*Manager, error) {
	var m *Manager
	if rec.Snapshot != nil {
		var err error
		if m, err = Restore(rec.Snapshot); err != nil {
			return nil, err
		}
	}
	for _, r := range rec.Records {
		var err error
		if m, err = ApplyRecord(m, r.Type, r.Data); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func busNet(t *testing.T) *network.Network {
	t.Helper()
	n, err := network.NewBus("b", []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mutateFleet drives one of every journaled mutation kind.
func mutateFleet(t *testing.T, fleet *Locked) {
	t.Helper()
	w := gen.MotivatingExample()
	if err := fleet.Deploy("alpha", w); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Deploy("beta", w); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.ServerUp("joined", 2.5e9); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	if err := fleet.MarkUp(1); err != nil {
		t.Fatal(err)
	}
	mp, _ := fleet.Mapping("beta")
	mp[0] = (mp[0] + 1) % fleet.Network().N()
	if err := fleet.SetMapping("beta", mp); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Deploy("gamma", gen.MotivatingExample()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Remove("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.ServerDown(0); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayByteIdentical journals a full mutation history,
// replays it from the recovered log, and compares the snapshots byte
// for byte.
func TestJournalReplayByteIdentical(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewLocked(busNet(t))
	genesis, err := CreateRecord(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecFleetCreate, genesis); err != nil {
		t.Fatal(err)
	}
	fleet.AttachJournal(st)
	mutateFleet(t, fleet)
	want, err := fleet.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m, err := recoverFleet(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed state diverges:\n got: %s\nwant: %s", got, want)
	}
}

// TestRecoverFleetFromSnapshotPlusTail compacts mid-history and
// verifies snapshot+tail replay equals the uncompacted reduction.
func TestRecoverFleetFromSnapshotPlusTail(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewLocked(busNet(t))
	genesis, err := CreateRecord(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecFleetCreate, genesis); err != nil {
		t.Fatal(err)
	}
	fleet.AttachJournal(st)
	if err := fleet.Deploy("alpha", gen.MotivatingExample()); err != nil {
		t.Fatal(err)
	}
	mid, err := fleet.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(mid, st.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Deploy("beta", gen.MotivatingExample()); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || len(rec.Records) != 2 {
		t.Fatalf("recovery shape: snap %v, %d records", rec.Snapshot != nil, len(rec.Records))
	}
	m, err := recoverFleet(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot+tail replay diverges:\n got: %s\nwant: %s", got, want)
	}
}

// TestApplyRecordNeedsGenesis asserts a log whose head was lost is
// rejected instead of replayed onto nothing.
func TestApplyRecordNeedsGenesis(t *testing.T) {
	if _, err := ApplyRecord(nil, RecRemove, []byte(`{"id":"x"}`)); err == nil {
		t.Fatal("orphan record replayed onto a nil fleet")
	}
	if _, err := ApplyRecord(nil, "fleet.unknown", nil); err == nil {
		t.Fatal("unknown record type accepted")
	}
}

// TestRecoverFleetEmpty returns no fleet for an empty log.
func TestRecoverFleetEmpty(t *testing.T) {
	m, err := recoverFleet(&store.Recovery{})
	if err != nil || m != nil {
		t.Fatalf("empty recovery: %v, %v", m, err)
	}
}

// TestIsFleetRecord spot-checks the domain predicate.
func TestIsFleetRecord(t *testing.T) {
	for _, typ := range []string{RecFleetCreate, RecDeploy, RecRebalance, RecMarkUp} {
		if !IsFleetRecord(typ) {
			t.Fatalf("%s not a fleet record", typ)
		}
	}
	for _, typ := range []string{"deployment.created", "autopilot.run", ""} {
		if IsFleetRecord(typ) {
			t.Fatalf("%s claimed as fleet record", typ)
		}
	}
}
