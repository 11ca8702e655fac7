package tenant

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeClock is a manually advanced admission clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"default", "a", "acme-corp", "t1", "x9-y"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	bad := []string{"", "-lead", "trail-", "UPPER", "a.b", "a/b", "a b", "..",
		string(make([]byte, 64))}
	for _, name := range bad {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) accepted", name)
		}
	}
}

func TestBucketRefillAndWait(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBucket(2, 2, now) // 2 tokens/sec, burst 2, starts full
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d rejected with a full bucket", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 500ms]", wait)
	}
	if ok, _ := b.take(now.Add(600 * time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after the advertised wait")
	}
	// Backwards clock: no refill, no panic.
	if ok, _ := b.take(now.Add(-time.Hour)); ok {
		t.Fatal("backwards clock minted a token")
	}
}

func TestRegistryInMemoryCRUD(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get(DefaultName); !ok {
		t.Fatal("default tenant missing after Open")
	}
	acme, err := r.Create("acme", Quota{MaxWorkflows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acme.Quota().MaxWorkflows != 3 {
		t.Fatalf("quota = %+v", acme.Quota())
	}
	if _, err := r.Create("acme", Quota{}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := r.Create("Bad Name", Quota{}); err == nil {
		t.Fatal("invalid name accepted")
	}
	if got := len(r.List()); got != 2 {
		t.Fatalf("List() = %d tenants, want 2", got)
	}
	if err := r.Delete(DefaultName); err == nil {
		t.Fatal("default tenant deleted")
	}
	if err := r.Delete("acme"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("acme"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestRegistryDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	acme, err := r.Create("acme", Quota{PlansPerSec: 5, MaxServers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acme.Store() == nil {
		t.Fatal("durable tenant has no store")
	}
	if _, err := acme.Store().Append("test.record", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, ok := r2.Get("acme")
	if !ok {
		t.Fatal("acme not recovered after reopen")
	}
	if got.Quota().PlansPerSec != 5 || got.Quota().MaxServers != 10 {
		t.Fatalf("quota lost across reopen: %+v", got.Quota())
	}
	if rec := got.TakeRecovery(); rec == nil || len(rec.Records) != 1 {
		t.Fatalf("recovery did not replay acme's record: %+v", rec)
	}
	if rec := got.TakeRecovery(); rec != nil {
		t.Fatalf("a second TakeRecovery returned %+v, want nil", rec)
	}
	// The default tenant recovered too (it was created durably).
	if _, ok := r2.Get(DefaultName); !ok {
		t.Fatal("default tenant not recovered")
	}
}

func TestRegistryMigratesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	// A pre-tenancy daemon wrote its WAL directly under the data root.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := os.Stat(filepath.Join(dir, DefaultName, "wal.log")); err != nil {
		t.Fatalf("legacy WAL not migrated into the default namespace: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
		t.Fatal("legacy WAL still present at the root")
	}
}

func TestDeleteRemovesNamespace(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("gone", Quota{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatal("deleted tenant's namespace still on disk")
	}
}

// TestCreateRejectsNegativeQuota: every limit check reads a negative
// value as unlimited, so Create refuses one and leaves nothing behind,
// in memory or on disk. A tenant.json already on disk still loads as
// written.
func TestCreateRejectsNegativeQuota(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quota{{PlansPerSec: -5}, {PlanBurst: -1}, {MaxWorkflows: -1}, {MaxServers: -3}} {
		if _, err := r.Create("neg", q); err == nil {
			t.Fatalf("Create accepted quota %+v", q)
		}
		if _, ok := r.Get("neg"); ok {
			t.Fatalf("refused quota %+v registered a tenant", q)
		}
		if _, err := os.Stat(filepath.Join(dir, "neg")); !os.IsNotExist(err) {
			t.Fatalf("refused quota %+v left a namespace on disk", q)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.MkdirAll(filepath.Join(dir, "old"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old", metaName), []byte(`{"quota": {"maxServers": -3}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if old, ok := r2.Get("old"); !ok || old.Quota().MaxServers != -3 {
		t.Fatalf("existing metadata did not load as written: %v", ok)
	}
}

func TestAdmitQuotaAndQueue(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	r, err := Open(Config{now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	limited, err := r.Create("limited", Quota{PlansPerSec: 1, PlanBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	open, _ := r.Get(DefaultName)

	if d := r.Admit(limited); !d.OK {
		t.Fatalf("first admit rejected: %+v", d)
	}
	if d := r.Admit(limited); d.OK || d.Status != http.StatusTooManyRequests || d.RetryAfter <= 0 {
		t.Fatalf("over-quota admit = %+v, want 429 with Retry-After", d)
	}
	// The empty bucket is the limited tenant's alone.
	for i := 0; i < 3; i++ {
		if d := r.Admit(open); !d.OK {
			t.Fatalf("unlimited tenant's admit %d rejected: %+v", i, d)
		}
	}
	clock.t = clock.t.Add(2 * time.Second)
	if d := r.Admit(limited); !d.OK {
		t.Fatalf("admit after refill rejected: %+v", d)
	}
}
