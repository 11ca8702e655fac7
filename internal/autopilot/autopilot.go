package autopilot

import (
	"fmt"
	"slices"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/obs"
)

// Process-wide autopilot metrics on the shared obs registry, alongside
// the engine/sim/fabric/chaos series on /metrics.
var (
	obsEvals      = obs.Default().Counter("autopilot.evaluations")
	obsActions    = obs.Default().Counter("autopilot.actions")
	obsMigrations = obs.Default().Counter("autopilot.migrations")
	obsDriftHist  = obs.Default().Histogram("autopilot.drift")
	obsLevelGauge = obs.Default().Gauge("autopilot.level")
)

// Config parameterizes the closed-loop controller.
type Config struct {
	// Window is the observation window in virtual seconds; the loop
	// closes a window, folds its per-server busy time into a drift
	// reading, and evaluates the ladder. Default 5.
	Window float64
	// Detector holds the cooldown and re-arm periods.
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
	return c
}

// Action is one ladder firing, kept in the controller's action log.
type Action struct {
	Time   float64 // virtual time of the window close that fired
	Level  Level
	Drift  float64 // the reading that triggered it
	Moves  int     // operations migrated
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

// classes snapshots the fleet, which only the autopilot writes, into
// planner inputs.
func (a *Autopilot) classes() []Class {
	var cs []Class
	for _, id := range a.fleet.Workflows() {
		w, _ := a.fleet.Workflow(id)
		mp, _ := a.fleet.Mapping(id)
		cs = append(cs, Class{ID: id, Workflow: w, Mapping: mp, Rate: a.rates[id]})
	}
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

	act := a.act(t, level, drift, sp)
	sp.SetInt("moves", int64(act.Moves))
	if act.Moves == 0 {
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
// rate estimates. A known class missing from the window had no
// arrivals, so its rate decays toward zero instead of keeping its last
// value; a class seen for the first time starts at its window rate.
func (a *Autopilot) updateRates(arrivals map[string]int) {
	for id, old := range a.rates {
		inst := float64(arrivals[id]) / a.cfg.Window
		a.rates[id] = a.cfg.EWMAAlpha*inst + (1-a.cfg.EWMAAlpha)*old
	}
	for id, nArr := range arrivals {
		if _, ok := a.rates[id]; !ok {
			a.rates[id] = float64(nArr) / a.cfg.Window
		}
	}
}

// act plans and applies one ladder firing.
func (a *Autopilot) act(t float64, level Level, drift float64, sp *obs.Span) Action {
	act := Action{Time: t, Level: level, Drift: drift}

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

// apply commits every changed mapping to the fleet and pushes it onto
// the backend.
func (a *Autopilot) apply(cs []Class, mappings []deploy.Mapping) error {
	for i, c := range cs {
		if slices.Equal(c.Mapping, mappings[i]) {
			continue
		}
		if err := a.fleet.SetMapping(c.ID, mappings[i]); err != nil {
			return err
		}
		if err := a.backend.Remap(c.ID, mappings[i]); err != nil {
			return err
		}
	}
	return nil
}
