package autopilot

import (
	"fmt"

	"wsdeploy/internal/cost"
)

// Level is a rung of the escalation ladder. Higher levels are more
// disruptive and carry wider hysteresis bands.
type Level int

const (
	LevelNone      Level = iota // drift within tolerance; do nothing
	LevelTouchUp                // re-place the worst few operations in place
	LevelDelta                  // bounded-migration replan (≤ K moves)
	LevelRebalance              // full rate-weighted rebalance
)

// String names a level for logs and metrics.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelTouchUp:
		return "touchup"
	case LevelDelta:
		return "delta"
	case LevelRebalance:
		return "rebalance"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Band is one level's hysteresis pair: the level fires when drift rises
// above Enter and re-arms only after drift falls back below Exit. The
// gap between them is what prevents flapping around a single threshold.
type Band struct {
	Enter float64
	Exit  float64
}

// Band returns an actionable level's hysteresis band. Drifts are
// normalized Time Penalty (see Drift), so bands are dimensionless
// fractions.
func (l Level) Band() Band {
	switch l {
	case LevelTouchUp:
		return Band{0.08, 0.05}
	case LevelDelta:
		return Band{0.15, 0.10}
	default:
		return Band{0.30, 0.20}
	}
}

// DetectorConfig sets the drift detector's cooldown and re-arm periods.
type DetectorConfig struct {
	// Cooldown is the virtual-seconds refractory period after any action
	// during which no further action fires, letting the substrate settle
	// before the next reading is trusted. Default 10.
	Cooldown float64
	// ReArm is the virtual-seconds period after which a fired level
	// re-arms even though drift never fell below its Exit band: drift
	// that *stays* elevated long after an action means conditions have
	// shifted again (a ramping class mix), not that the action is still
	// settling. Default 4×Cooldown.
	ReArm float64
}

// WithDefaults fills unset fields with the documented defaults.
func (c DetectorConfig) WithDefaults() DetectorConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	if c.ReArm <= 0 {
		c.ReArm = 4 * c.Cooldown
	}
	return c
}

// Drift is the live SLO: the paper's Time Penalty of the observed
// per-server loads, normalized by the total observed load. The
// normalization makes the signal scale-free — doubling every server's
// load (a diurnal peak) leaves it unchanged; only *imbalance* moves it.
// An empty window reads as zero drift.
func Drift(loads []float64) float64 {
	var total float64
	for _, l := range loads {
		total += l
	}
	if total <= 0 {
		return 0
	}
	return cost.PenaltyOfLoads(loads) / total
}

// Detector turns a stream of drift readings into escalation decisions
// with per-level hysteresis and a shared cooldown. Not safe for
// concurrent use; the control loop owns it.
type Detector struct {
	cfg           DetectorConfig
	armed         [LevelRebalance + 1]bool
	rearmAt       [LevelRebalance + 1]float64 // time-based re-arm deadline per level
	cooldownUntil float64
	lastDrift     float64
}

// NewDetector builds a detector with every level armed.
func NewDetector(cfg DetectorConfig) *Detector {
	d := &Detector{cfg: cfg.WithDefaults()}
	for l := LevelTouchUp; l <= LevelRebalance; l++ {
		d.armed[l] = true
	}
	return d
}

// Evaluate ingests one drift reading at virtual time t and returns the
// level to act at — the highest armed level whose Enter threshold the
// drift exceeds — or LevelNone during cooldown, below every band, or
// when the indicated levels are still disarmed from a previous action.
// Levels re-arm when drift falls below their Exit threshold, so a level
// fires at most once per excursion above its band.
func (d *Detector) Evaluate(t, drift float64) Level {
	d.lastDrift = drift
	for l := LevelTouchUp; l <= LevelRebalance; l++ {
		if !d.armed[l] && (drift < l.Band().Exit || t >= d.rearmAt[l]) {
			d.armed[l] = true
		}
	}
	if t < d.cooldownUntil {
		return LevelNone
	}
	for l := LevelRebalance; l >= LevelTouchUp; l-- {
		if d.armed[l] && drift >= l.Band().Enter {
			return l
		}
	}
	return LevelNone
}

// ActionTaken records that the loop acted at level l at virtual time t:
// levels up to and including l disarm (they re-arm below their Exit
// band) and the cooldown window opens. Higher levels stay armed so the
// ladder can still escalate if the action did not cure the drift.
func (d *Detector) ActionTaken(t float64, l Level) {
	for x := LevelTouchUp; x <= l; x++ {
		d.armed[x] = false
		d.rearmAt[x] = t + d.cfg.ReArm
	}
	d.cooldownUntil = t + d.cfg.Cooldown
}

// DetectorState is the detector's durable hysteresis state: which
// levels are disarmed, their re-arm deadlines, and the open cooldown.
// Persisting it across a daemon restart is what keeps a reboot from
// resetting the ladder — a freshly-armed detector re-fires on the same
// elevated drift it already acted on and thrashes the fleet.
type DetectorState struct {
	Armed         []bool    `json:"armed"`   // per level, LevelTouchUp..LevelRebalance
	RearmAt       []float64 `json:"rearmAt"` // per level, virtual seconds
	CooldownUntil float64   `json:"cooldownUntil"`
	LastDrift     float64   `json:"lastDrift"`
}

// State exports the detector's durable state.
func (d *Detector) State() DetectorState {
	st := DetectorState{
		Armed:         make([]bool, 0, LevelRebalance),
		RearmAt:       make([]float64, 0, LevelRebalance),
		CooldownUntil: d.cooldownUntil,
		LastDrift:     d.lastDrift,
	}
	for l := LevelTouchUp; l <= LevelRebalance; l++ {
		st.Armed = append(st.Armed, d.armed[l])
		st.RearmAt = append(st.RearmAt, d.rearmAt[l])
	}
	return st
}

// Restore loads a previously exported state, resuming hysteresis,
// cooldown and re-arm deadlines exactly where the saved detector left
// off. Levels beyond the saved slice stay at their constructed
// (armed) default, so states survive ladder growth.
func (d *Detector) Restore(st DetectorState) {
	for i := 0; i < len(st.Armed) && i < int(LevelRebalance); i++ {
		d.armed[LevelTouchUp+Level(i)] = st.Armed[i]
	}
	for i := 0; i < len(st.RearmAt) && i < int(LevelRebalance); i++ {
		d.rearmAt[LevelTouchUp+Level(i)] = st.RearmAt[i]
	}
	d.cooldownUntil = st.CooldownUntil
	d.lastDrift = st.LastDrift
}
