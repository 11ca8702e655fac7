package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsdeploy/internal/obs"
	"wsdeploy/internal/store"
)

// DefaultName is the implicit tenant every un-namespaced request lands
// on; it always exists and cannot be deleted, so the pre-tenancy API
// surface (no X-Tenant header, no path prefix) keeps working unchanged.
const DefaultName = "default"

// metaName is the per-namespace metadata file carrying the tenant's
// quota configuration; written atomically next to the WAL.
const metaName = "tenant.json"

// Tenancy metrics on the shared obs registry.
var (
	obsAdmitted    = obs.Default().Counter("tenant.admitted")
	obsRejQuota    = obs.Default().Counter("tenant.rejected_quota")
	obsRejCapacity = obs.Default().Counter("tenant.rejected_capacity")
	obsTenants     = obs.Default().Gauge("tenant.count")
)

// Quota bounds one tenant's resource consumption. Zero fields mean
// unlimited, so the zero Quota is a fully open tenant.
type Quota struct {
	// PlansPerSec is the sustained admission rate for planning and
	// mutation requests (token-bucket refill rate).
	PlansPerSec float64 `json:"plansPerSec,omitempty"`
	// PlanBurst is the token-bucket capacity; zero means
	// max(1, PlansPerSec).
	PlanBurst float64 `json:"planBurst,omitempty"`
	// MaxWorkflows caps concurrently deployed workflows on the tenant's
	// fleet.
	MaxWorkflows int `json:"maxWorkflows,omitempty"`
	// MaxServers caps the tenant's fleet size.
	MaxServers int `json:"maxServers,omitempty"`
}

// validate rejects a negative limit, which every check would read as
// unlimited, like zero.
func (q Quota) validate() error {
	if q.PlansPerSec < 0 || q.PlanBurst < 0 || q.MaxWorkflows < 0 || q.MaxServers < 0 {
		return fmt.Errorf("tenant: negative quota %+v: every limit must be 0 (unlimited) or more", q)
	}
	return nil
}

// Config tunes a Registry. The zero value is a purely in-memory,
// unlimited registry holding only the default tenant.
type Config struct {
	// DataDir is the root of the per-tenant durable namespaces; empty
	// runs every tenant in memory.
	DataDir string
	// Store configures each tenant's store (fsync discipline etc.).
	Store store.Options

	// now overrides the admission clock in tests.
	now func() time.Time
}

// Tenant is one isolated namespace. Immutable after creation, except
// that its boot recovery is handed over once; the mutable admission
// state lives in the bucket.
type Tenant struct {
	name     string
	quota    Quota
	store    *store.Store
	recovery atomic.Pointer[store.Recovery]
	bucket   *bucket
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Quota returns the tenant's configured limits.
func (t *Tenant) Quota() Quota { return t.quota }

// Store returns the tenant's durable store, nil for in-memory tenants.
func (t *Tenant) Store() *store.Store { return t.store }

// TakeRecovery hands over the state recovered from the tenant's
// namespace at Open time, once, and forgets it: nil afterwards, and
// for tenants created after boot (nothing to replay).
func (t *Tenant) TakeRecovery() *store.Recovery { return t.recovery.Swap(nil) }

// Registry is the tenancy control plane: tenant CRUD, durable
// namespaces and admission. Safe for concurrent use.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
}

// Open builds a registry. With a DataDir it migrates a pre-tenancy
// layout (a WAL directly under the root) into the default tenant's
// namespace, then enumerates and recovers every tenant namespace; the
// default tenant is created if it does not exist yet.
func Open(cfg Config) (*Registry, error) {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	r := &Registry{cfg: cfg, tenants: map[string]*Tenant{}}
	if cfg.DataDir != "" {
		if _, err := store.MigrateLegacy(cfg.DataDir, DefaultName); err != nil {
			return nil, fmt.Errorf("tenant: %w", err)
		}
		mounts, err := store.OpenAll(cfg.DataDir, cfg.Store)
		if err != nil {
			return nil, fmt.Errorf("tenant: %w", err)
		}
		for _, m := range mounts {
			if err := ValidateName(m.Name); err != nil {
				r.closeLocked()
				return nil, fmt.Errorf("tenant: namespace %q: %w", m.Name, err)
			}
			q, err := r.loadMeta(m.Name)
			if err != nil {
				r.closeLocked()
				return nil, err
			}
			t := r.newTenant(m.Name, q)
			t.store = m.Store
			t.recovery.Store(m.Recovery)
			r.tenants[m.Name] = t
		}
	}
	if _, ok := r.tenants[DefaultName]; !ok {
		if _, err := r.create(DefaultName, Quota{}); err != nil {
			r.closeLocked()
			return nil, err
		}
	}
	obsTenants.Set(float64(len(r.tenants)))
	return r, nil
}

// newTenant builds the in-memory tenant object (no store).
func (r *Registry) newTenant(name string, q Quota) *Tenant {
	t := &Tenant{name: name, quota: q}
	if q.PlansPerSec > 0 {
		burst := q.PlanBurst
		if burst <= 0 {
			burst = q.PlansPerSec
		}
		t.bucket = newBucket(q.PlansPerSec, burst, r.cfg.now())
	}
	return t
}

// Get returns a tenant by name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// List returns every tenant sorted by name.
func (r *Registry) List() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Create registers a new tenant. With a durable registry the tenant's
// namespace directory, metadata file and empty store are created before
// Create returns, so the tenant survives a crash from the moment it is
// acknowledged. A negative quota field is refused.
func (r *Registry) Create(name string, q Quota) (*Tenant, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("tenant: registry is closed")
	}
	if _, ok := r.tenants[name]; ok {
		return nil, fmt.Errorf("tenant: %w: %s", ErrExists, name)
	}
	t, err := r.create(name, q)
	if err != nil {
		return nil, err
	}
	obsTenants.Set(float64(len(r.tenants)))
	return t, nil
}

// create validates, persists and registers; caller holds r.mu (or is
// still constructing the registry).
func (r *Registry) create(name string, q Quota) (*Tenant, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	t := r.newTenant(name, q)
	if r.cfg.DataDir != "" {
		dir := filepath.Join(r.cfg.DataDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("tenant: creating %s: %w", dir, err)
		}
		if err := r.writeMeta(name, q); err != nil {
			return nil, err
		}
		st, rec, err := store.Open(dir, r.cfg.Store)
		if err != nil {
			return nil, fmt.Errorf("tenant: opening store for %s: %w", name, err)
		}
		t.store = st
		// A freshly created namespace has nothing to replay; recovery
		// stays nil even though Open returned an (empty) one.
		_ = rec
	}
	r.tenants[name] = t
	return t, nil
}

// Delete removes a tenant, closing its store and deleting its durable
// namespace. The default tenant cannot be deleted. In-flight requests
// racing a delete observe journal failures (503), never another
// tenant's state.
func (r *Registry) Delete(name string) error {
	if name == DefaultName {
		return fmt.Errorf("tenant: %w", ErrDefaultUndeletable)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return fmt.Errorf("tenant: %w: %s", ErrNotFound, name)
	}
	if t.store != nil {
		if err := t.store.Close(); err != nil {
			return fmt.Errorf("tenant: closing %s store: %w", name, err)
		}
		if err := os.RemoveAll(filepath.Join(r.cfg.DataDir, name)); err != nil {
			return fmt.Errorf("tenant: removing %s namespace: %w", name, err)
		}
	}
	delete(r.tenants, name)
	obsTenants.Set(float64(len(r.tenants)))
	return nil
}

// Close closes every tenant store. The registry rejects further
// creates.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeLocked()
}

func (r *Registry) closeLocked() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	for _, t := range r.tenants {
		if t.store != nil {
			if err := t.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// writeMeta persists the tenant's quota atomically (temp → rename).
func (r *Registry) writeMeta(name string, q Quota) error {
	data, err := json.MarshalIndent(struct {
		Quota Quota `json:"quota"`
	}{q}, "", "  ")
	if err != nil {
		return fmt.Errorf("tenant: encoding %s metadata: %w", name, err)
	}
	path := filepath.Join(r.cfg.DataDir, name, metaName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("tenant: writing %s metadata: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("tenant: committing %s metadata: %w", name, err)
	}
	return nil
}

// loadMeta reads a namespace's quota; a missing file (pre-tenancy
// migration, or a crash between mkdir and writeMeta) falls back to the
// zero, unlimited quota and is healed on disk.
func (r *Registry) loadMeta(name string) (Quota, error) {
	raw, err := os.ReadFile(filepath.Join(r.cfg.DataDir, name, metaName))
	if os.IsNotExist(err) {
		return Quota{}, r.writeMeta(name, Quota{})
	}
	if err != nil {
		return Quota{}, fmt.Errorf("tenant: reading %s metadata: %w", name, err)
	}
	var meta struct {
		Quota Quota `json:"quota"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return Quota{}, fmt.Errorf("tenant: decoding %s metadata: %w", name, err)
	}
	return meta.Quota, nil
}

// ValidateName enforces DNS-label-style tenant names: 1–63 lowercase
// letters, digits or dashes, starting and ending alphanumeric. The
// charset guarantees a name is always a safe path segment.
func ValidateName(name string) error {
	if name == "" || len(name) > 63 {
		return fmt.Errorf("%w: must be 1-63 characters", ErrBadName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-' && i > 0 && i < len(name)-1:
		default:
			return fmt.Errorf("%w: %q (want lowercase letters, digits and interior dashes)", ErrBadName, name)
		}
	}
	return nil
}
