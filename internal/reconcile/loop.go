package reconcile

import (
	"fmt"
	"sync"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/obs"
)

// Process-wide reconciler metrics on the shared obs registry. The lag
// gauge is the one to alarm on: a lag that stays positive means desired
// state is not being reached.
var (
	obsPasses  = obs.Default().Counter("reconcile.passes")
	obsActions = obs.Default().Counter("reconcile.actions")
	obsErrors  = obs.Default().Counter("reconcile.action_errors")
	obsLag     = obs.Default().Gauge("reconcile.generation_lag")
	obsHeld    = obs.Default().Counter("reconcile.held_passes")
)

// maxActionsPerPass bounds the steps one pass executes across all
// specs; the remainder waits for the next pass (the loop is
// level-triggered, so nothing is lost).
const maxActionsPerPass = 16

// Config tunes one reconciler.
type Config struct {
	// OnObserved, when set, is called *before* an observed-generation
	// advance is applied — the journal-before-acknowledge hook. An error
	// aborts the advance; the pass reports it and retries later.
	OnObserved func(name string, gen uint64) error
	// Tracer, when set, wraps each pass in a reconcile.loop span.
	Tracer *obs.Tracer
}

// PassResult summarizes one reconcile pass.
type PassResult struct {
	Actions   []Action
	Lag       uint64 // total generation lag after the pass
	Converged bool   // every spec's structural diff was empty
	Held      bool   // the pass ran while the loop was held and did nothing
}

// Reconciler is one tenant's convergence loop: it owns no state machine
// beyond "diff and act" — every pass re-derives its plan from the spec
// set and a fresh observation, so it is restartable at any point (the
// property the kill -9 tests lean on).
type Reconciler struct {
	set  *Set
	exec Executor
	cfg  Config

	mu       sync.Mutex
	pending  []Incident
	livePen  float64 // last measured Time Penalty; < 0 before any feed
	escalate bool    // next performance step is a redeploy
	hold     bool    // passes are no-ops until the hold lifts

	passes uint64
}

// New builds a reconciler over a spec set and an executor.
func New(set *Set, exec Executor, cfg Config) *Reconciler {
	return &Reconciler{set: set, exec: exec, cfg: cfg, livePen: -1}
}

// NoteIncident feeds one chaos report into the loop. The caller (chaos
// supervisor, fabric health checker) no longer repairs anything itself;
// the next pass plans the repair. Safe for concurrent use.
func (r *Reconciler) NoteIncident(inc Incident) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending = append(r.pending, inc)
}

// ObserveWindow feeds one traffic window's measured per-server loads:
// their Time Penalty becomes the live SLO signal for subsequent passes.
// Safe for concurrent use.
func (r *Reconciler) ObserveWindow(loads []float64) {
	pen := cost.PenaltyOfLoads(loads)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.livePen = pen
}

// SetHold pauses (true) or resumes (false) the loop. While held, every
// RunPass is a no-op that reports Held — incidents and windows keep
// accumulating so the first pass after the hold lifts sees everything
// that happened meanwhile. The HTTP layer holds a tenant's loop while
// its journal is degraded: reconcile actions journal before they
// acknowledge, so acting on a fail-stopped store would only burn passes
// on rejections. Safe for concurrent use.
func (r *Reconciler) SetHold(hold bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hold = hold
}

// Held reports whether the loop is currently held.
func (r *Reconciler) Held() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hold
}

// RunPass executes one reconcile pass at virtual time t: observe every
// spec, diff, apply a bounded batch of actions, and advance the
// observed generation of every spec whose structural diff came up
// empty. Journaling failures surface in the result's action errors;
// the loop retries on later passes.
func (r *Reconciler) RunPass(t float64) PassResult {
	var sp *obs.Span
	if r.cfg.Tracer != nil {
		sp = r.cfg.Tracer.StartSpan("reconcile.loop")
		defer sp.End()
	}
	r.mu.Lock()
	if r.hold {
		r.mu.Unlock()
		obsHeld.Inc()
		return PassResult{Held: true, Lag: r.set.TotalLag()}
	}
	incidents := r.pending
	r.pending = nil
	livePen := r.livePen
	escalate := r.escalate
	r.escalate = false
	r.passes++
	r.mu.Unlock()

	res := PassResult{Converged: true}
	budget := maxActionsPerPass
	// Incidents are fleet-wide, not per-spec: hand them to the first
	// spec's pass (specs share the tenant fleet).
	for i, v := range r.set.List() {
		specIncidents := incidents
		if i > 0 {
			specIncidents = nil
		}
		converged := r.reconcileSpec(v, specIncidents, livePen, escalate, &budget, &res)
		if !converged {
			res.Converged = false
		}
	}

	res.Lag = r.set.TotalLag()
	obsPasses.Inc()
	obsActions.Add(int64(len(res.Actions)))
	obsLag.Set(float64(res.Lag))
	if sp != nil {
		sp.SetInt("actions", int64(len(res.Actions)))
		sp.SetInt("lag", int64(res.Lag))
	}
	return res
}

// reconcileSpec runs one spec's observe→diff→act cycle and reports
// whether the spec converged structurally this pass.
func (r *Reconciler) reconcileSpec(v Versioned, incidents []Incident, livePen float64, escalate bool, budget *int, res *PassResult) bool {
	c, gen, err := r.set.Compiled(v.Name)
	if err != nil {
		// A spec that stopped compiling (hand-edited snapshot) can never
		// converge; report it as a pass-level action error.
		res.Actions = append(res.Actions, Action{
			Step: Step{Kind: "compile", Reason: v.Name}, Err: err.Error()})
		obsErrors.Inc()
		return false
	}

	ob := r.exec.Observe()
	ob.LivePenalty = livePen
	ob.Incidents = incidents
	steps := Diff(v, c, ob)

	applied := 0
	failed := false
	for _, step := range steps {
		if *budget <= 0 {
			failed = true // plan not fully applied; do not advance
			break
		}
		if step.Kind == StepRemap && escalate {
			step = Step{Kind: StepRedeploy, Reason: step.Reason + " (escalated)"}
		}
		moved, err := r.exec.Apply(step, v, c)
		*budget--
		applied++
		a := Action{Step: step, Moved: moved}
		if err != nil {
			a.Err = err.Error()
			obsErrors.Inc()
			failed = true
		}
		res.Actions = append(res.Actions, a)
		if err != nil {
			break // retry the rest next pass
		}
		// A remap that found no profitable move while the SLO is still
		// violated escalates the next performance step.
		if step.Kind == StepRemap && moved == 0 {
			r.mu.Lock()
			r.escalate = true
			r.mu.Unlock()
		}
	}
	if failed {
		return false
	}

	// Convergence check: re-observe and re-diff without incidents (they
	// were consumed above). Performance steps do not gate the advance.
	ob = r.exec.Observe()
	ob.LivePenalty = livePen
	structural := 0
	for _, s := range Diff(v, c, ob) {
		if s.Structural() {
			structural++
		}
	}
	if structural > 0 {
		return false
	}
	if v.Observed < gen {
		if r.cfg.OnObserved != nil {
			if err := r.cfg.OnObserved(v.Name, gen); err != nil {
				res.Actions = append(res.Actions, Action{
					Step: Step{Kind: "advance", Reason: fmt.Sprintf("%s generation %d", v.Name, gen)},
					Err:  err.Error()})
				obsErrors.Inc()
				return false
			}
		}
		r.set.Advance(v.Name, gen)
	}
	return true
}

// Passes returns how many passes have run.
func (r *Reconciler) Passes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.passes
}
