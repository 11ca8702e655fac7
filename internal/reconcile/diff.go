package reconcile

import (
	"fmt"
	"sort"
)

// Observed is a snapshot of the state the reconciler compares desired
// state against: what the fleet actually runs right now, plus the live
// performance signal fed in by the detector.
type Observed struct {
	// HasFleet reports whether the tenant has a fleet at all.
	HasFleet bool
	// Servers is the fleet size (including down servers); Down lists
	// the indices currently failed in place.
	Servers int
	Down    []int
	// Workflows is the deployed workflow id set, in arrival order.
	Workflows []string
	// Penalty is the placement's static Time Penalty; LivePenalty, when
	// ≥ 0, is the measured per-window penalty from the traffic-window
	// feed (ObserveWindow) — the live SLO signal. LivePenalty < 0 means
	// no feed yet.
	Penalty     float64
	LivePenalty float64
	// Incidents are chaos events reported since the last pass (crashes
	// and rejoins awaiting a reconciliation decision).
	Incidents []Incident
}

// slo returns the signal the SLO target is compared against: the live
// measured penalty once a feed exists, the static placement penalty
// otherwise.
func (o Observed) slo() float64 {
	if o.LivePenalty >= 0 {
		return o.LivePenalty
	}
	return o.Penalty
}

// StepKind classifies one planned reconciliation step.
type StepKind string

const (
	// StepCreateFleet builds the fleet from the spec's network.
	StepCreateFleet StepKind = "create-fleet"
	// StepDeploy places one desired workflow that is not deployed.
	StepDeploy StepKind = "deploy"
	// StepRemove withdraws one deployed workflow the spec no longer
	// names.
	StepRemove StepKind = "remove"
	// StepRepair marks a crashed server down and re-places its orphans
	// — the mark-down repair that used to live in the chaos supervisor.
	StepRepair StepKind = "repair"
	// StepRejoin marks a recovered server back up.
	StepRejoin StepKind = "rejoin"
	// StepScaleUp grows the fleet toward MinServers.
	StepScaleUp StepKind = "scale-up"
	// StepRemap is the bounded delta-remap toward the SLO target.
	StepRemap StepKind = "remap"
	// StepRedeploy is the full rebalance the remap rung escalates to.
	StepRedeploy StepKind = "redeploy"
)

// Step is one planned action. Structural steps gate the observed
// generation; performance steps (remap/redeploy) run continuously and
// never block convergence — a spec whose SLO is unreachable still
// converges structurally, with the SLO condition reported false.
type Step struct {
	Kind     StepKind
	Workflow string // deploy/remove
	Server   int    // repair/rejoin
	Reason   string
}

// Structural reports whether the step gates ObservedGeneration.
func (s Step) Structural() bool {
	return s.Kind != StepRemap && s.Kind != StepRedeploy
}

// Target names what the step acts on, for logs.
func (s Step) Target() string {
	switch s.Kind {
	case StepDeploy, StepRemove:
		return s.Workflow
	case StepRepair, StepRejoin:
		return fmt.Sprintf("server %d", s.Server)
	}
	return ""
}

// Diff computes the ordered reconciliation plan for one spec against
// the observed state. The order is fixed — incidents first (repair
// before anything re-places load), then fleet existence, then scale,
// then portfolio membership, then performance — so the action log is
// deterministic given identical observations.
func Diff(v Versioned, c *Compiled, obs Observed) []Step {
	if v.Spec.Paused {
		return nil
	}
	var steps []Step

	// Chaos incidents are inputs, not auto-repairs: each becomes an
	// explicit step the reconciler executes and logs.
	for _, inc := range obs.Incidents {
		switch inc.Kind {
		case IncidentCrash:
			steps = append(steps, Step{Kind: StepRepair, Server: inc.Server,
				Reason: fmt.Sprintf("crash reported at t=%.2f", inc.Time)})
		case IncidentRejoin:
			steps = append(steps, Step{Kind: StepRejoin, Server: inc.Server,
				Reason: fmt.Sprintf("rejoin reported at t=%.2f", inc.Time)})
		}
	}

	if !obs.HasFleet {
		if c.Network != nil {
			steps = append(steps, Step{Kind: StepCreateFleet, Reason: "no fleet exists"})
			// Everything below needs a fleet; the same pass continues after
			// the executor creates it, so deploys are planned now too.
			obs.HasFleet = true
			obs.Servers = c.Network.N()
		} else {
			// Nothing to diff against and nothing to create from: the spec
			// stays unconverged until a fleet appears or a revision adds a
			// network.
			return steps
		}
	}

	if v.Spec.MinServers > 0 {
		up := obs.Servers - len(obs.Down)
		for i := up; i < v.Spec.MinServers; i++ {
			steps = append(steps, Step{Kind: StepScaleUp,
				Reason: fmt.Sprintf("%d up servers below minServers %d", up, v.Spec.MinServers)})
		}
	}

	deployed := make(map[string]bool, len(obs.Workflows))
	for _, id := range obs.Workflows {
		deployed[id] = true
	}
	for _, id := range c.Order {
		if !deployed[id] {
			steps = append(steps, Step{Kind: StepDeploy, Workflow: id, Reason: "in spec, not deployed"})
		}
	}
	var extras []string
	for _, id := range obs.Workflows {
		if _, want := c.Workflows[id]; !want {
			extras = append(extras, id)
		}
	}
	sort.Strings(extras)
	for _, id := range extras {
		steps = append(steps, Step{Kind: StepRemove, Workflow: id, Reason: "deployed, not in spec"})
	}

	// Performance: only consulted once the structure is settled —
	// remapping around a portfolio that is about to change wastes the
	// move budget.
	if len(steps) == 0 && v.Spec.MaxTimePenalty > 0 && obs.slo() > v.Spec.MaxTimePenalty {
		steps = append(steps, Step{Kind: StepRemap,
			Reason: fmt.Sprintf("time penalty %.4f exceeds target %.4f", obs.slo(), v.Spec.MaxTimePenalty)})
	}
	return steps
}
