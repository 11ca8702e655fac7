package reconcile

import (
	"fmt"
	"sync"
)

// Versioned is one named spec with its generation bookkeeping. Copies
// are handed out by value; the Set owns the canonical instances.
type Versioned struct {
	Name string `json:"name"`
	// Generation is the desired generation: bumped by every accepted
	// revision, starting at 1.
	Generation uint64 `json:"generation"`
	// Observed is the last generation a reconcile pass fully converged:
	// structural diff empty, every action applied. Observed ≤ Generation
	// always; equality is the convergence proof.
	Observed uint64 `json:"observedGeneration"`
	Spec     Spec   `json:"spec"`
}

// Converged reports whether the spec's status has caught up with its
// desired generation.
func (v Versioned) Converged() bool { return v.Observed == v.Generation }

// Lag is the generation distance still to reconcile.
func (v Versioned) Lag() uint64 { return v.Generation - v.Observed }

// Set is one tenant's versioned desired state: named specs with
// monotonic generations. Safe for concurrent use; the reconciler reads
// it, the API writes it, snapshots copy it.
type Set struct {
	mu    sync.Mutex
	specs map[string]*Versioned
	order []string // creation order, for deterministic iteration

	// compiled caches the decoded form per (name, generation); a
	// revision invalidates it.
	compiled map[string]*compiledGen
}

type compiledGen struct {
	gen uint64
	c   *Compiled
}

// NewSet builds an empty spec set.
func NewSet() *Set {
	return &Set{specs: map[string]*Versioned{}, compiled: map[string]*compiledGen{}}
}

// NextGeneration returns the generation the next revision of name will
// be assigned — what a journal-before-acknowledge writer records.
func (st *Set) NextGeneration(name string) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextGenerationLocked(name)
}

func (st *Set) nextGenerationLocked(name string) uint64 {
	if v, ok := st.specs[name]; ok {
		return v.Generation + 1
	}
	return 1
}

// Put applies one revision without a journal and returns its assigned
// generation: the SpecRecord NextGeneration names, applied as
// ReplaySpec applies it.
func (st *Set) Put(name string, sp Spec) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := SpecRecord{Name: name, Generation: st.nextGenerationLocked(name), Spec: sp}
	// The next generation always advances, so the applier accepts it.
	_ = st.replaySpecLocked(r)
	return r.Generation
}

// Get returns a copy of one spec.
func (st *Set) Get(name string) (Versioned, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.specs[name]
	if !ok {
		return Versioned{}, false
	}
	return *v, true
}

// List returns copies of every spec in creation order.
func (st *Set) List() []Versioned {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Versioned, 0, len(st.order))
	for _, n := range st.order {
		out = append(out, *st.specs[n])
	}
	return out
}

// Compiled returns the decoded form of a spec's current generation,
// caching it until the next revision. A spec that no longer compiles
// (it compiled at acceptance; this can only happen to a hand-edited
// snapshot) returns the error every pass.
func (st *Set) Compiled(name string) (*Compiled, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.specs[name]
	if !ok {
		return nil, 0, fmt.Errorf("reconcile: unknown spec %q", name)
	}
	if cg, ok := st.compiled[name]; ok && cg.gen == v.Generation {
		return cg.c, v.Generation, nil
	}
	c, err := v.Spec.Compile()
	if err != nil {
		return nil, 0, err
	}
	st.compiled[name] = &compiledGen{gen: v.Generation, c: c}
	return c, v.Generation, nil
}

// Advance moves a spec's observed generation to gen. It enforces
// monotonicity both ways: the observed generation never regresses and
// never exceeds the desired generation. It reports whether anything
// changed.
func (st *Set) Advance(name string, gen uint64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.specs[name]
	if !ok || gen <= v.Observed || gen > v.Generation {
		return false
	}
	v.Observed = gen
	return true
}

// TotalLag sums generation lag across every spec — the gauge the
// reconciler exports.
func (st *Set) TotalLag() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var lag uint64
	for _, v := range st.specs {
		lag += v.Generation - v.Observed
	}
	return lag
}

// Image copies the whole set for a composite snapshot.
func (st *Set) Image() []Versioned { return st.List() }

// RestoreImage replaces the set's contents with a snapshot image.
func (st *Set) RestoreImage(img []Versioned) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.specs = map[string]*Versioned{}
	st.order = st.order[:0]
	st.compiled = map[string]*compiledGen{}
	for _, v := range img {
		cp := v
		if cp.Observed > cp.Generation {
			// A snapshot can never legitimately hold this (Advance forbids
			// it); clamp rather than resurrect an impossible status.
			cp.Observed = cp.Generation
		}
		st.specs[cp.Name] = &cp
		st.order = append(st.order, cp.Name)
	}
}

// ReplaySpec applies a RecSpecUpdate record: a recovered one, or the
// one a writer just journaled. It trusts the record's generation (the
// WAL is the authority) but still refuses regressions, which would
// indicate a corrupted or hand-spliced log.
func (st *Set) ReplaySpec(r SpecRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.replaySpecLocked(r)
}

func (st *Set) replaySpecLocked(r SpecRecord) error {
	v, ok := st.specs[r.Name]
	if !ok {
		v = &Versioned{Name: r.Name}
		st.specs[r.Name] = v
		st.order = append(st.order, r.Name)
	}
	if r.Generation <= v.Generation && v.Generation != 0 {
		return fmt.Errorf("reconcile: replayed spec %q generation %d does not advance %d", r.Name, r.Generation, v.Generation)
	}
	v.Generation = r.Generation
	v.Spec = r.Spec
	delete(st.compiled, r.Name)
	return nil
}

// ReplayDelete applies a RecSpecDelete record, recovered or just
// journaled: the spec is withdrawn.
func (st *Set) ReplayDelete(r DeleteRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.specs, r.Name)
	delete(st.compiled, r.Name)
	for i, n := range st.order {
		if n == r.Name {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// ReplayObserved applies a recovered RecObserved record. The journal
// order guarantees the spec record for this generation precedes it; a
// record claiming a generation the log does not hold is corruption.
func (st *Set) ReplayObserved(r ObservedRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.specs[r.Name]
	if !ok {
		return fmt.Errorf("reconcile: replayed observed generation for unknown spec %q", r.Name)
	}
	if r.Generation > v.Generation {
		return fmt.Errorf("reconcile: replayed observed generation %d exceeds desired generation %d for spec %q", r.Generation, v.Generation, r.Name)
	}
	if r.Generation > v.Observed {
		v.Observed = r.Generation
	}
	return nil
}
