package autopilot

import (
	"fmt"
	"slices"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/obs"
)

// Process-wide autopilot metrics on the shared obs registry, alongside
// the engine/sim/fabric/chaos series on /metrics and /debug/vars.
var (
	obsEvals      = obs.Default().Counter("autopilot.evaluations")
	obsActions    = obs.Default().Counter("autopilot.actions")
	obsMigrations = obs.Default().Counter("autopilot.migrations")
	obsScaleUps   = obs.Default().Counter("autopilot.scale_ups")
	obsScaleDowns = obs.Default().Counter("autopilot.scale_downs")
	obsDriftHist  = obs.Default().Histogram("autopilot.drift")
	obsLevelGauge = obs.Default().Gauge("autopilot.level")
)

// Config parameterizes the closed-loop controller.
type Config struct {
	// Window is the observation window in virtual seconds; the loop
	// closes a window, folds its per-server busy time into a drift
	// reading, and evaluates the ladder. Default 5.
	Window float64
	// Detector holds the hysteresis bands and cooldown.
	Detector DetectorConfig
	// MaxMoves is the migration budget K for the touch-up and delta
	// rungs. Default 4.
	MaxMoves int
	// MigrationWeight prices a move at MigrationWeight ×
	// TransferTime(from, to, state); a candidate must beat its price to
	// be selected. Default 0.5.
	MigrationWeight float64
	// EWMAAlpha smooths the observed per-class arrival rates; higher is
	// more reactive. Default 0.5.
	EWMAAlpha float64
	// AllowScale lets the rebalance rung also grow or shrink the fleet
	// with ServerUp/ServerDown. Only the simulator backend supports it
	// (the fabric cannot renumber live hosts); default off.
	AllowScale bool
	// ScaleUpUtil and ScaleDownUtil are the sustained offered-utilization
	// thresholds (CPU-seconds per second per server) that trigger fleet
	// growth or shrinkage when AllowScale is set. Defaults 0.85 / 0.25.
	ScaleUpUtil   float64
	ScaleDownUtil float64
	// ScaleWindows is how many consecutive windows must breach a scale
	// threshold before the fleet changes size. Default 3.
	ScaleWindows int
	// Tracer, when set, records one "autopilot.evaluate" span per window
	// with drift/level/move attributes. Nil leaves tracing off.
	Tracer *obs.Tracer
}

// WithDefaults fills unset fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = 5
	}
	c.Detector = c.Detector.WithDefaults()
	if c.MaxMoves <= 0 {
		c.MaxMoves = 4
	}
	if c.MigrationWeight <= 0 {
		c.MigrationWeight = 0.5
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.5
	}
	if c.ScaleUpUtil <= 0 {
		c.ScaleUpUtil = 0.85
	}
	if c.ScaleDownUtil <= 0 {
		c.ScaleDownUtil = 0.25
	}
	if c.ScaleWindows <= 0 {
		c.ScaleWindows = 3
	}
	return c
}

// Action is one ladder firing, kept in the controller's action log.
type Action struct {
	Time   float64 // virtual time of the window close that fired
	Level  Level
	Drift  float64 // the reading that triggered it
	Moves  int     // operations migrated
	Scaled int     // +1 server grown, -1 shrunk, 0 unchanged
	Detail string
}

// Autopilot is the closed-loop controller. It owns a Detector, the
// EWMA rate estimates, and the escalation policy; it is the only writer
// of its fleet's placements, and it pushes every applied mapping onto
// the backend the fleet's classes run on. Not safe for concurrent use —
// one control loop drives it.
type Autopilot struct {
	cfg     Config
	fleet   *manager.Locked
	backend Backend
	det     *Detector
	rates   map[string]float64

	hot, cold  int // consecutive windows beyond the scale thresholds
	actions    []Action
	migrations int
}

// New builds a controller over a fleet whose classes run on b.
func New(fleet *manager.Locked, cfg Config, b Backend) *Autopilot {
	return &Autopilot{
		cfg:     cfg.WithDefaults(),
		fleet:   fleet,
		backend: b,
		det:     NewDetector(cfg.Detector),
		rates:   map[string]float64{},
	}
}

// Actions returns the ladder firings so far.
func (a *Autopilot) Actions() []Action { return a.actions }

// Migrations returns the total operations migrated so far — the
// zero-thrash assertions read it.
func (a *Autopilot) Migrations() int { return a.migrations }

// Rates returns the current EWMA per-class arrival rates.
func (a *Autopilot) Rates() map[string]float64 {
	out := make(map[string]float64, len(a.rates))
	for k, v := range a.rates {
		out[k] = v
	}
	return out
}

// classes snapshots the fleet into planner inputs under one lock hold.
func (a *Autopilot) classes() []Class {
	var cs []Class
	_ = a.fleet.Do(func(m *manager.Manager) error {
		for _, id := range m.Workflows() {
			w, _ := m.Workflow(id)
			mp, _ := m.Mapping(id)
			cs = append(cs, Class{ID: id, Workflow: w, Mapping: mp, Rate: a.rates[id]})
		}
		return nil
	})
	return cs
}

// ObserveWindow closes one observation window at virtual time t: loads
// are the window's per-server busy seconds (sim BusyTime / fabric Busy
// accumulated by the loop), arrivals the per-class instance counts. It
// updates the EWMA rates, evaluates the drift ladder, and — when a
// level fires — plans, applies the mappings through the fleet and the
// backend, and logs the Action. The returned bool reports whether an
// action fired.
func (a *Autopilot) ObserveWindow(t float64, loads []float64, arrivals map[string]int) (Action, bool) {
	a.updateRates(arrivals)
	drift := Drift(loads)
	obsEvals.Inc()
	obsDriftHist.Observe(drift)

	level := a.det.Evaluate(t, drift)
	obsLevelGauge.Set(float64(level))

	sp := a.cfg.Tracer.StartSpan("autopilot.evaluate")
	sp.SetFloat("time_vs", t)
	sp.SetFloat("drift", drift)
	sp.SetAttr("level", level.String())
	defer sp.End()

	if level == LevelNone {
		return Action{}, false
	}

	act := a.act(t, level, drift, loads, sp)
	sp.SetInt("moves", int64(act.Moves))
	if act.Moves == 0 && act.Scaled == 0 {
		// The plan found nothing worth doing (e.g. the rate estimates
		// have not diverged from the current placement yet). The level
		// stays armed and no cooldown opens: planning is cheap, and the
		// hysteresis machinery exists to damp *actions*, not evaluations.
		return Action{}, false
	}
	a.actions = append(a.actions, act)
	a.migrations += act.Moves
	obsActions.Inc()
	obsMigrations.Add(int64(act.Moves))
	a.det.ActionTaken(t, level)
	return act, true
}

// updateRates folds one window's per-class arrival counts into the EWMA
// rate estimates.
func (a *Autopilot) updateRates(arrivals map[string]int) {
	for id, nArr := range arrivals {
		inst := float64(nArr) / a.cfg.Window
		if old, ok := a.rates[id]; ok {
			a.rates[id] = a.cfg.EWMAAlpha*inst + (1-a.cfg.EWMAAlpha)*old
		} else {
			a.rates[id] = inst
		}
	}
}

// act plans and applies one ladder firing.
func (a *Autopilot) act(t float64, level Level, drift float64, loads []float64, sp *obs.Span) Action {
	act := Action{Time: t, Level: level, Drift: drift}

	if level == LevelRebalance && a.cfg.AllowScale {
		act.Scaled = a.maybeScale(loads)
	}

	cs := a.classes()
	if len(cs) == 0 {
		act.Detail = "empty fleet"
		return act
	}
	net := a.fleet.Network()

	var (
		mappings []deploy.Mapping
		moves    []ClassMove
		err      error
	)
	psp := sp.StartChild("autopilot.plan")
	switch level {
	case LevelTouchUp:
		mappings, moves = PlanTouchUp(cs, net, a.cfg.MaxMoves, a.cfg.MigrationWeight)
	case LevelDelta:
		mappings, moves, err = PlanDelta(cs, net, a.cfg.MaxMoves, a.cfg.MigrationWeight)
	default:
		mappings, moves, err = PlanRebalance(cs, net)
	}
	psp.SetInt("moves", int64(len(moves)))
	psp.End()
	if err != nil {
		act.Detail = "plan failed: " + err.Error()
		return act
	}
	if len(moves) == 0 {
		act.Detail = level.String() + ": no move pays for itself"
		return act
	}

	asp := sp.StartChild("autopilot.apply")
	defer asp.End()
	if err := a.apply(cs, mappings); err != nil {
		act.Detail = "apply failed: " + err.Error()
		asp.SetAttr("err", act.Detail)
		return act
	}
	act.Moves = len(moves)
	act.Detail = fmt.Sprintf("%s: %d moves", level, len(moves))
	return act
}

// apply commits the planned mappings to the fleet under one lock hold,
// then pushes every changed mapping onto the backend.
func (a *Autopilot) apply(cs []Class, mappings []deploy.Mapping) error {
	var changed []int
	if err := a.fleet.Do(func(m *manager.Manager) error {
		for i, c := range cs {
			if slices.Equal(c.Mapping, mappings[i]) {
				continue
			}
			if err := m.SetMapping(c.ID, mappings[i]); err != nil {
				return err
			}
			changed = append(changed, i)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, i := range changed {
		if err := a.backend.Remap(cs[i].ID, mappings[i]); err != nil {
			return err
		}
	}
	return nil
}

// maybeScale applies the fleet-scaling policy on the rebalance rung:
// sustained offered utilization above ScaleUpUtil grows the fleet by
// one server (at the fleet's mean power), sustained utilization below
// ScaleDownUtil shrinks it by retiring the least-loaded server. loads
// are the window's busy seconds, so utilization is busy/(window×N).
func (a *Autopilot) maybeScale(loads []float64) int {
	util := Utilization(loads) / a.cfg.Window
	switch {
	case util >= a.cfg.ScaleUpUtil:
		a.hot, a.cold = a.hot+1, 0
	case util <= a.cfg.ScaleDownUtil:
		a.cold, a.hot = a.cold+1, 0
	default:
		a.hot, a.cold = 0, 0
	}
	if a.hot >= a.cfg.ScaleWindows {
		a.hot = 0
		var name string
		var power float64
		_ = a.fleet.Do(func(m *manager.Manager) error {
			n := m.Network()
			for _, s := range n.Servers {
				power += s.PowerHz
			}
			power /= float64(n.N())
			name = fmt.Sprintf("auto-%d", n.N())
			return nil
		})
		if _, err := a.fleet.ServerUp(name, power); err == nil {
			obsScaleUps.Inc()
			return 1
		}
		return 0
	}
	if a.cold >= a.cfg.ScaleWindows {
		a.cold = 0
		if len(loads) <= 1 {
			return 0
		}
		if _, err := a.fleet.ServerDown(leastLoaded(loads)); err == nil {
			obsScaleDowns.Inc()
			return -1
		}
	}
	return 0
}
