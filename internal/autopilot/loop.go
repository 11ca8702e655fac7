package autopilot

import (
	"fmt"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// ClassSpec declares one workflow class the loop deploys and drives.
type ClassSpec struct {
	ID       string
	Workflow *workflow.Workflow
}

// LoopConfig parameterizes one closed-loop run on either backend.
type LoopConfig struct {
	// Traffic drives the arrival stream; its Classes field is overridden
	// to the number of ClassSpecs.
	Traffic TrafficConfig
	// Pilot parameterizes the controller.
	Pilot Config
	// Enabled toggles the control loop. Disabled, the loop still
	// observes windows and records drift — the baseline the drift study
	// compares against — but never acts.
	Enabled bool
	// Resume, when set, restores the drift detector's persisted
	// hysteresis state instead of starting with every level armed — a
	// restarted controller keeps its cooldowns and disarmed rungs, so a
	// reboot does not re-fire on drift it already acted on.
	Resume *DetectorState
}

// WindowStat is one closed observation window.
type WindowStat struct {
	Time float64 // window close, virtual seconds
	// Drift is the scale-free detection signal (see Drift); Penalty is
	// the paper's absolute Time Penalty of the window's observed busy
	// seconds — the live SLO the drift study reports. They diverge when a
	// placement wastes cycles on slow servers: that pads Drift's
	// denominator while Penalty counts every second of imbalance.
	Drift    float64
	Penalty  float64
	Level    Level // ladder level fired (LevelNone when idle)
	Moves    int
	Arrivals int
}

// LoopResult summarizes one closed-loop run.
type LoopResult struct {
	Arrivals   int
	PerClass   map[string]int
	Windows    []WindowStat
	Actions    []Action
	Migrations int
	// MeanDrift/MeanPenalty average every window; the Tail variants
	// average the last quarter — the post-convergence figures the drift
	// study compares across enabled/disabled runs. TailPenalty is the
	// measured live Time Penalty (seconds per window) the acceptance
	// criterion is stated in.
	MeanDrift   float64
	TailDrift   float64
	MeanPenalty float64
	TailPenalty float64
	// Detector is the drift detector's final hysteresis state — persist
	// it and feed it back through LoopConfig.Resume to continue the
	// controller across a restart.
	Detector DetectorState
}

// tally derives the aggregate drift figures from the recorded windows.
func (r *LoopResult) tally() {
	if len(r.Windows) == 0 {
		return
	}
	var drift, pen float64
	for _, w := range r.Windows {
		drift += w.Drift
		pen += w.Penalty
	}
	r.MeanDrift = drift / float64(len(r.Windows))
	r.MeanPenalty = pen / float64(len(r.Windows))
	tail := len(r.Windows) / 4
	if tail == 0 {
		tail = 1
	}
	drift, pen = 0, 0
	for _, w := range r.Windows[len(r.Windows)-tail:] {
		drift += w.Drift
		pen += w.Penalty
	}
	r.TailDrift = drift / float64(tail)
	r.TailPenalty = pen / float64(tail)
}

// Window is one observation window of a traffic run.
type Window struct {
	End      float64        // window close, virtual seconds
	Loads    []float64      // per-server virtual busy seconds of its arrivals
	Arrivals map[string]int // executed arrivals per class
}

// Total returns the window's executed arrivals across all classes.
func (w Window) Total() int {
	var n int
	for _, v := range w.Arrivals {
		n += v
	}
	return n
}

// Driver is the one generator → window → busy-accumulation loop both
// closed-loop studies run (Run here, reconcile.RunStudy): it draws the
// generator's arrivals, runs each on the Backend against the fleet's
// live mapping, sums the returned per-server virtual busy seconds into
// windows of Window virtual seconds, and hands every window that closes
// by the horizon to Close.
type Driver struct {
	Gen     *Generator
	Window  float64
	Backend Backend
	// Classes maps a generator class index to its workflow id.
	Classes []string
	// Fleet returns the fleet arrivals resolve against. An arrival whose
	// class the fleet does not hold — or any arrival while Fleet returns
	// nil — is skipped.
	Fleet func() *manager.Locked
	// Due, when set, is called with every virtual time the loop reaches
	// (each window close and each arrival) before that time is processed,
	// so the caller can apply timed events such as chaos reports.
	Due func(t float64)
	// Close receives each closed window. The next window's accumulator is
	// sized from the fleet after Close returns, so Close may change the
	// server count.
	Close func(Window)
}

// DriveResult is what a Driver run leaves behind.
type DriveResult struct {
	Arrivals int            // executed arrivals
	PerClass map[string]int // executed arrivals per class
	Skipped  int            // arrivals whose class was not deployed
	// Open is the window still open at the horizon; it was never passed
	// to Close.
	Open Window
}

// Run drains the generator. Arrivals run sequentially, so the run is
// deterministic given the generator's and the backend's seeds.
func (d Driver) Run() (DriveResult, error) {
	res := DriveResult{PerClass: map[string]int{}}
	due := func(t float64) {
		if d.Due != nil {
			d.Due(t)
		}
	}
	open := d.window(d.Window)
	closeOpen := func() {
		due(open.End)
		d.Close(open)
		open = d.window(open.End + d.Window)
	}
	for {
		arr, ok := d.Gen.Next()
		if !ok {
			break
		}
		for open.End <= arr.Time {
			closeOpen()
		}
		due(arr.Time)

		id := d.Classes[arr.Class]
		fleet := d.Fleet()
		if fleet == nil {
			res.Skipped++
			continue
		}
		w, okW := fleet.Workflow(id)
		mp, okM := fleet.Mapping(id)
		if !okW || !okM {
			res.Skipped++
			continue
		}
		busy, err := d.Backend.Run(id, w, fleet.Network(), mp)
		if err != nil {
			return res, fmt.Errorf("autopilot: %s arrival of %s at t=%.2f: %w", d.Backend.Name(), id, arr.Time, err)
		}
		for s, b := range busy {
			if s < len(open.Loads) {
				open.Loads[s] += b
			}
		}
		res.Arrivals++
		res.PerClass[id]++
		open.Arrivals[id]++
	}
	for open.End <= d.Gen.Config().Horizon {
		closeOpen()
	}
	res.Open = open
	return res, nil
}

// window starts an empty window ending at end, sized to the fleet.
func (d Driver) window(end float64) Window {
	var n int
	if fleet := d.Fleet(); fleet != nil {
		n = fleet.Network().N()
	}
	return Window{End: end, Loads: make([]float64, n), Arrivals: map[string]int{}}
}

// deployFleet builds the shared fleet and places every class with the
// manager's valley-filling GreedyPlace, in spec order — the nominal
// placement the drift study starts from — deploying each on b as well.
func deployFleet(classes []ClassSpec, net *network.Network, b Backend) (*manager.Locked, error) {
	fleet := manager.NewLocked(net)
	for _, c := range classes {
		if err := fleet.Deploy(c.ID, c.Workflow); err != nil {
			return nil, fmt.Errorf("autopilot: deploying %s: %w", c.ID, err)
		}
		mp, _ := fleet.Mapping(c.ID)
		if err := b.Deploy(c.ID, c.Workflow, net, mp); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// Run drives the closed loop on backend b and closes b: every class is
// deployed on a private fleet and on b, the generator's arrivals run on
// b against the live mappings, and at every window close the controller
// evaluates the ladder; applied migrations reach b through Remap, so the
// fleet's mappings and the substrate never diverge. Fully deterministic
// given the seeds.
func Run(classes []ClassSpec, net *network.Network, cfg LoopConfig, b Backend) (*LoopResult, error) {
	defer b.Close()
	if len(classes) == 0 {
		return nil, fmt.Errorf("autopilot: Run needs at least one class")
	}
	cfg.Traffic.Classes = len(classes)
	cfg.Pilot = cfg.Pilot.WithDefaults()

	fleet, err := deployFleet(classes, net, b)
	if err != nil {
		return nil, err
	}
	pilot := New(fleet, cfg.Pilot, b)
	if cfg.Resume != nil {
		pilot.det.Restore(*cfg.Resume)
	}

	ids := make([]string, len(classes))
	for i, c := range classes {
		ids[i] = c.ID
	}
	res := &LoopResult{}
	dr, err := Driver{
		Gen:     NewGenerator(cfg.Traffic),
		Window:  cfg.Pilot.Window,
		Backend: b,
		Classes: ids,
		Fleet:   func() *manager.Locked { return fleet },
		Close: func(w Window) {
			ws := WindowStat{
				Time: w.End, Drift: Drift(w.Loads),
				Penalty: cost.PenaltyOfLoads(w.Loads), Arrivals: w.Total(),
			}
			if cfg.Enabled {
				if act, fired := pilot.ObserveWindow(w.End, w.Loads, w.Arrivals); fired {
					ws.Level, ws.Moves = act.Level, act.Moves
				}
			} else {
				// Baseline keeps the rate estimates warm but never acts.
				pilot.observeOnly(w.Loads, w.Arrivals)
			}
			res.Windows = append(res.Windows, ws)
		},
	}.Run()
	if err != nil {
		return nil, err
	}

	res.Arrivals = dr.Arrivals
	res.PerClass = dr.PerClass
	res.Actions = pilot.Actions()
	res.Migrations = pilot.Migrations()
	res.Detector = pilot.det.State()
	res.tally()
	return res, nil
}

// observeOnly keeps the EWMA rates and drift telemetry warm for a
// disabled (baseline) loop without ever consulting the ladder.
func (a *Autopilot) observeOnly(loads []float64, arrivals map[string]int) {
	a.updateRates(arrivals)
	obsEvals.Inc()
	obsDriftHist.Observe(Drift(loads))
}
