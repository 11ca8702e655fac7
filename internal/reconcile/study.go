package reconcile

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/wfio"
)

// SpecFromClasses encodes a scenario as the Spec an API client would
// post: the network and every class workflow serialized through wfio.
func SpecFromClasses(n *network.Network, classes []autopilot.ClassSpec) (Spec, error) {
	var sp Spec
	if n != nil {
		var buf bytes.Buffer
		if err := wfio.EncodeNetwork(&buf, n); err != nil {
			return Spec{}, err
		}
		sp.Network = json.RawMessage(buf.Bytes())
	}
	for _, c := range classes {
		var buf bytes.Buffer
		if err := wfio.EncodeWorkflow(&buf, c.Workflow); err != nil {
			return Spec{}, err
		}
		sp.Workflows = append(sp.Workflows, WorkflowSpec{ID: c.ID, Workflow: json.RawMessage(buf.Bytes())})
	}
	return sp, nil
}

// The study posts its spec under studySpec and runs one reconcile pass
// every studyInterval virtual seconds.
const (
	studySpec     = "app"
	studyInterval = 5
)

// StudyConfig parameterizes one convergence study: a spec is posted at
// t=0, traffic flows, chaos strikes, optionally a revision lands
// mid-run, and the reconciler loop runs at a fixed cadence. The same
// config drives both backends; with performance reconciliation disabled
// (MaxTimePenalty 0) the resulting action logs are byte-identical.
type StudyConfig struct {
	// Spec is the initial desired state; it must carry a Network (the
	// reconciler creates the fleet from it).
	Spec Spec
	// Update, when set, is posted as a revision at virtual time
	// UpdateAt — the mid-run generation bump the study converges on.
	Update   *Spec
	UpdateAt float64
	// Chaos lists crash/rejoin events fed to the reconciler as
	// incidents at their times (other chaos kinds are ignored — the
	// reconciler handles server health, not link quality).
	Chaos []chaos.Event
	// Traffic drives the arrival stream; Classes is overridden to the
	// spec's workflow count.
	Traffic autopilot.TrafficConfig
	// Seed feeds seeded placement algorithms named by the spec's hint.
	// Build the study's backend from the same seed.
	Seed uint64
}

// StudyWindow is one reconcile-cadence window of the study.
type StudyWindow struct {
	Time     float64
	Penalty  float64 // measured Time Penalty of the window's loads
	Lag      uint64  // generation lag after the pass at window close
	Actions  int     // actions the pass applied
	Arrivals int
}

// StudyResult summarizes one convergence study run.
type StudyResult struct {
	Backend     string
	Arrivals    int
	Skipped     int // arrivals that found their class not yet deployed
	Incidents   int
	Passes      uint64
	Generation  uint64
	Observed    uint64
	ConvergedAt float64 // virtual time the final generation converged; -1 if never
	Windows     []StudyWindow
	// Log is the ordered action log — the cross-backend determinism
	// artifact.
	Log []string
}

// Converged reports whether the study ended with status caught up.
func (r *StudyResult) Converged() bool {
	return r.Observed == r.Generation && r.Generation > 0
}

// RunStudy runs the convergence study on backend b and closes b. The
// backend is wired into the executor, so deploys, removes and remaps
// reach the substrate; arrivals flow from the traffic generator through
// autopilot's Driver, chaos events become incidents, spec revisions land
// at their times, and the reconciler runs a pass at every cadence tick.
// Fully deterministic given the seeds: with a sim and a fabric backend
// built from cfg.Seed the two action logs are byte-identical.
func RunStudy(cfg StudyConfig, b autopilot.Backend) (*StudyResult, error) {
	defer b.Close()

	compiled, err := cfg.Spec.Compile()
	if err != nil {
		return nil, err
	}
	if compiled.Network == nil {
		return nil, fmt.Errorf("reconcile: study spec needs a network")
	}

	exec := &FleetExecutor{
		CreateFleet: func(n *network.Network) (*manager.Locked, error) {
			return manager.NewLocked(n), nil
		},
		Backend: b,
		Seed:    cfg.Seed,
	}
	set := NewSet()
	set.Put(studySpec, cfg.Spec)
	rec := New(set, exec, Config{})

	plan := chaos.Plan{Events: cfg.Chaos}
	if err := plan.Validate(compiled.Network.N()); err != nil {
		return nil, err
	}
	events := plan.Sorted()

	res := &StudyResult{Backend: b.Name(), ConvergedAt: -1}
	updated := cfg.Update == nil
	ei := 0

	feedUntil := func(t float64) {
		for ei < len(events) && events[ei].Time <= t {
			ev := events[ei]
			ei++
			switch ev.Kind {
			case chaos.ServerCrash:
				rec.NoteIncident(Incident{Kind: IncidentCrash, Server: ev.Server, Time: ev.Time})
				res.Incidents++
			case chaos.ServerRejoin:
				rec.NoteIncident(Incident{Kind: IncidentRejoin, Server: ev.Server, Time: ev.Time})
				res.Incidents++
			}
		}
		if !updated && cfg.UpdateAt <= t {
			set.Put(studySpec, *cfg.Update)
			updated = true
		}
	}

	pass := func(w autopilot.Window) {
		rec.ObserveWindow(w.Loads)
		pr := rec.RunPass(w.End)
		for _, a := range pr.Actions {
			res.Log = append(res.Log, a.String())
		}
		res.Windows = append(res.Windows, StudyWindow{
			Time: w.End, Penalty: cost.PenaltyOfLoads(w.Loads),
			Lag: pr.Lag, Actions: len(pr.Actions), Arrivals: w.Total(),
		})
		if pr.Lag == 0 && res.ConvergedAt < 0 {
			res.ConvergedAt = w.End
		} else if pr.Lag > 0 {
			res.ConvergedAt = -1
		}
	}

	// Pass 0 creates the fleet and the initial deployments before any
	// traffic flows.
	feedUntil(0)
	pass(autopilot.Window{Loads: make([]float64, compiled.Network.N())})

	cfg.Traffic.Classes = len(compiled.Order)
	dr, err := autopilot.Driver{
		Gen:     autopilot.NewGenerator(cfg.Traffic),
		Window:  studyInterval,
		Backend: b,
		Classes: compiled.Order,
		Fleet:   func() *manager.Locked { return exec.Fleet },
		Due:     feedUntil,
		Close:   pass,
	}.Run()
	if err != nil {
		return nil, fmt.Errorf("reconcile: %w", err)
	}
	// A final settling pass past the horizon lets late chaos and the
	// mid-run revision converge even when they landed in the last window.
	feedUntil(dr.Open.End)
	pass(dr.Open)

	res.Arrivals = dr.Arrivals
	res.Skipped = dr.Skipped
	if v, ok := set.Get(studySpec); ok {
		res.Generation = v.Generation
		res.Observed = v.Observed
	}
	res.Passes = rec.Passes()
	return res, nil
}
