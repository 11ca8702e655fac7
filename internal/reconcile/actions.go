package reconcile

import (
	"fmt"
	"sort"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/core"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// IncidentKind labels one chaos report fed into the loop.
type IncidentKind string

const (
	// IncidentCrash reports a fail-stopped server awaiting repair.
	IncidentCrash IncidentKind = "crash"
	// IncidentRejoin reports a recovered server awaiting rejoin.
	IncidentRejoin IncidentKind = "rejoin"
)

// Incident is one chaos report. The supervisor that used to repair
// crashes itself now only *reports* them (NoteIncident); the reconciler
// decides what to do on its next pass.
type Incident struct {
	Kind   IncidentKind
	Server int
	Time   float64
}

// Action is one executed step, for the ordered action log: the step,
// how many operations moved, and any execution error (an action that
// errors is logged and the pass reports non-convergence; the loop
// retries next pass — level-triggered, not edge-triggered).
type Action struct {
	Step  Step
	Moved int
	Err   string
}

// String renders one action-log line. The format is stable: the
// convergence tests assert byte-identical logs across backends.
func (a Action) String() string {
	s := string(a.Step.Kind)
	if t := a.Step.Target(); t != "" {
		s += " " + t
	}
	s += fmt.Sprintf(" moved=%d", a.Moved)
	if a.Err != "" {
		s += " err=" + a.Err
	}
	return s
}

// Executor applies reconciliation steps to a fleet. The production
// implementation drives a *manager.Locked (journaled when the tenant
// has a store); tests substitute fakes to script failures.
type Executor interface {
	// Observe snapshots the structural state the differ needs.
	Observe() Observed
	// Apply executes one step against the compiled spec and returns how
	// many operations moved.
	Apply(step Step, v Versioned, c *Compiled) (int, error)
}

// FleetExecutor drives reconciliation steps through a *manager.Locked —
// the same journaled mutation path the fleet API and autopilot use, so
// every reconciler action is durable exactly when the fleet is.
type FleetExecutor struct {
	// Fleet is the live fleet; nil until CreateFleet runs (the spec's
	// network creates it through the hook below).
	Fleet *manager.Locked

	// CreateFleet builds the tenant's fleet from the spec's network and
	// returns its Locked wrapper. The httpapi wires this to the genesis
	// journal path; the study wires it to a bare NewLocked. Required for
	// StepCreateFleet; other steps only need Fleet.
	CreateFleet func(n *network.Network) (*manager.Locked, error)

	// Backend, when set, is the substrate the fleet's classes run on:
	// every deploy, remove and remap is pushed to it, so the study's
	// fabric hosts track the fleet. Nil in the daemon, whose fleet has no
	// live substrate. Errors propagate as action errors.
	Backend autopilot.Backend

	// MigWeight is the migration-cost weight applied when planning a
	// bounded remap (autopilot.PlanDelta's veto term). Zero is a valid
	// choice: moves are then vetoed only when they don't improve the
	// objective at all.
	MigWeight float64

	// Seed feeds seeded placement algorithms named by the spec's hint.
	Seed uint64
}

// Observe snapshots the fleet. LivePenalty is left at -1 (no feed);
// the reconciler overlays the detector's live signal when it has one.
func (e *FleetExecutor) Observe() Observed {
	if e.Fleet == nil {
		return Observed{LivePenalty: -1}
	}
	st := e.Fleet.Status()
	return Observed{
		HasFleet:    true,
		Servers:     st.Servers,
		Down:        st.Down,
		Workflows:   e.Fleet.Workflows(),
		Penalty:     st.TimePenalty,
		LivePenalty: -1,
	}
}

// Apply executes one step. Every mutation goes through the Locked
// wrapper's named methods, so with a journal attached the action is
// durable before Apply returns.
func (e *FleetExecutor) Apply(step Step, v Versioned, c *Compiled) (int, error) {
	if e.Fleet == nil && step.Kind != StepCreateFleet {
		return 0, fmt.Errorf("reconcile: %s with no fleet", step.Kind)
	}
	switch step.Kind {
	case StepCreateFleet:
		if e.Fleet != nil {
			return 0, nil
		}
		if e.CreateFleet == nil {
			return 0, fmt.Errorf("reconcile: no CreateFleet hook")
		}
		fl, err := e.CreateFleet(c.Network)
		if err != nil {
			return 0, err
		}
		e.Fleet = fl
		return 0, nil

	case StepDeploy:
		return e.applyDeploy(step.Workflow, v, c)

	case StepRemove:
		if err := e.Fleet.Remove(step.Workflow); err != nil {
			return 0, err
		}
		if e.Backend != nil {
			return 0, e.Backend.Remove(step.Workflow)
		}
		return 0, nil

	case StepRepair:
		moved, err := e.Fleet.MarkDown(step.Server)
		if err != nil {
			return moved, err
		}
		// The manager's repair remap plans fleet-wide; a region-pinned
		// spec sweeps any spilled operations back inside its regions.
		if len(v.Spec.Regions) > 0 {
			n, err := e.confineToRegions(v)
			moved += n
			if err != nil {
				return moved, err
			}
		}
		return moved, e.pushRemaps()

	case StepRejoin:
		return 0, e.Fleet.MarkUp(step.Server)

	case StepScaleUp:
		idx, err := e.Fleet.ServerUp(
			fmt.Sprintf("%s-scale", v.Name), meanPower(e.Fleet.Network()))
		if err != nil {
			return 0, err
		}
		_ = idx
		return 0, nil

	case StepRemap:
		return e.applyRemap(v, c)

	case StepRedeploy:
		if len(v.Spec.Regions) > 0 {
			return e.applyRegionRedeploy(v, c)
		}
		moved, err := e.Fleet.Rebalance()
		if err != nil {
			return moved, err
		}
		return moved, e.pushRemaps()
	}
	return 0, fmt.Errorf("reconcile: unknown step kind %q", step.Kind)
}

// applyDeploy places one workflow. With an algorithm hint and a fully
// up fleet the named algorithm plans over the whole topology and the
// mapping is adopted; otherwise (no hint, or down servers the registry
// algorithms cannot mask) the manager's valley-filling GreedyPlace
// places it around the live load and the down set.
func (e *FleetExecutor) applyDeploy(id string, v Versioned, c *Compiled) (int, error) {
	if len(v.Spec.Regions) > 0 {
		return e.applyRegionDeploy(id, v, c)
	}
	w, ok := c.Workflows[id]
	if !ok {
		return 0, fmt.Errorf("reconcile: spec %q has no workflow %q", v.Name, id)
	}
	if v.Spec.Algorithm != "" && len(e.Fleet.DownServers()) == 0 {
		alg, err := core.NewByName(v.Spec.Algorithm, e.Seed)
		if err != nil {
			return 0, err
		}
		mp, err := alg.Deploy(w, e.Fleet.Network())
		if err != nil {
			return 0, err
		}
		if err := e.Fleet.Adopt(id, w, mp); err != nil {
			return 0, err
		}
	} else if err := e.Fleet.Deploy(id, w); err != nil {
		return 0, err
	}
	return 0, e.backendDeploy(id, w)
}

// applyRemap runs one bounded delta-remap pass: plan with the
// autopilot's rate-weighted planner (uniform weights — the reconciler
// optimises the placement SLO, not traffic skew) and apply at most the
// spec's move budget through SetMapping.
func (e *FleetExecutor) applyRemap(v Versioned, c *Compiled) (int, error) {
	if len(v.Spec.Regions) > 0 {
		return e.applyRegionRemap(v, c)
	}
	classes := e.classes()
	if len(classes) == 0 {
		return 0, nil
	}
	mappings, moves, err := autopilot.PlanDelta(classes, e.Fleet.Network(), v.Spec.movesPerPass(), e.MigWeight)
	if err != nil {
		return 0, err
	}
	if len(moves) == 0 {
		return 0, nil
	}
	changed := map[string]bool{}
	for _, mv := range moves {
		changed[mv.Class] = true
	}
	for i, cl := range classes {
		if !changed[cl.ID] {
			continue
		}
		if err := e.setMapping(cl.ID, mappings[i]); err != nil {
			return len(moves), err
		}
	}
	return len(moves), nil
}

// classes snapshots the deployed portfolio as uniform-weight autopilot
// classes (Rate 0 → the planner's weight floor: every class counts the
// same).
func (e *FleetExecutor) classes() []autopilot.Class {
	ids := e.Fleet.Workflows()
	sort.Strings(ids)
	classes := make([]autopilot.Class, 0, len(ids))
	for _, id := range ids {
		w, ok := e.Fleet.Workflow(id)
		if !ok {
			continue
		}
		mp, ok := e.Fleet.Mapping(id)
		if !ok {
			continue
		}
		classes = append(classes, autopilot.Class{ID: id, Workflow: w, Mapping: mp})
	}
	return classes
}

// backendDeploy materializes a freshly placed class on the backend.
func (e *FleetExecutor) backendDeploy(id string, w *workflow.Workflow) error {
	if e.Backend == nil {
		return nil
	}
	mp, _ := e.Fleet.Mapping(id)
	return e.Backend.Deploy(id, w, e.Fleet.Network(), mp)
}

// setMapping commits one class's new mapping to the fleet and pushes it
// to the backend.
func (e *FleetExecutor) setMapping(id string, mp deploy.Mapping) error {
	if err := e.Fleet.SetMapping(id, mp); err != nil {
		return err
	}
	if e.Backend == nil {
		return nil
	}
	return e.Backend.Remap(id, mp)
}

// pushRemaps re-announces every live mapping to the backend after a
// repair or rebalance rewired placements wholesale — the fabric needs
// the new routes even for classes the step did not name.
func (e *FleetExecutor) pushRemaps() error {
	if e.Backend == nil {
		return nil
	}
	for _, id := range e.Fleet.Workflows() {
		mp, ok := e.Fleet.Mapping(id)
		if !ok {
			continue
		}
		if err := e.Backend.Remap(id, mp); err != nil {
			return err
		}
	}
	return nil
}

// meanPower is the scale-up sizing rule: a joined server gets the mean
// power of the existing fleet.
func meanPower(n *network.Network) float64 {
	if n.N() == 0 {
		return 1e9
	}
	var total float64
	for _, s := range n.Servers {
		total += s.PowerHz
	}
	return total / float64(n.N())
}
