package chaos

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/fabric"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/sim"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// supervisedID is the manager id RunSim/RunFabric register the
// protected workflow under.
const supervisedID = "chaos"

// RunConfig tunes one chaos episode on either backend.
type RunConfig struct {
	// Seed drives the instance's XOR branch choices. The *plan's* seed
	// drives the faults' probabilistic consequences (loss coins, retry
	// jitter), so varying Seed replays the same fault schedule against
	// fresh workflow instances.
	Seed uint64
	// SelfHeal runs the Supervisor: crashes are detected and repaired by
	// the manager, re-placements pushed onto the substrate, incidents
	// logged. Off, faults strike an undefended deployment — operations
	// on a crashed server wait for its rejoin, or are lost if it never
	// returns.
	SelfHeal bool
	// TimeScale converts virtual seconds to wall-clock sleep (fabric
	// backend only; zero = the fabric default of 1ms per virtual second).
	TimeScale time.Duration
	// Tracer, when set, traces the episode: a "chaos.episode" root with
	// "chaos.plan", "chaos.deploy" and "chaos.run" children, plus one
	// "chaos.incident" span (with "chaos.remap" children) per handled
	// fault. Nil leaves tracing off at zero cost.
	Tracer *obs.Tracer
	// FlightDump, when non-nil and Tracer carries a FlightRecorder,
	// receives a JSONL dump of the recorder's retained spans every time
	// the supervisor logs an incident — automatic crash forensics. Each
	// incident appends one full snapshot; the last one wins.
	FlightDump io.Writer
}

// incidentDumper builds the supervisor's onIncident hook: it dumps the
// tracer's flight recorder to cfg.FlightDump after every incident.
// Returns nil when the config does not ask for dumps.
func (cfg RunConfig) incidentDumper() func(Incident) {
	rec := cfg.Tracer.Recorder()
	if rec == nil || cfg.FlightDump == nil {
		return nil
	}
	var mu sync.Mutex
	return func(Incident) {
		mu.Lock()
		defer mu.Unlock()
		// A sink failure only costs the dump; the episode must go on.
		_, _ = rec.WriteJSONL(cfg.FlightDump)
	}
}

// SimOutcome reports one simulated chaos episode.
type SimOutcome struct {
	Run          sim.RunResult
	Log          *Log
	FinalMapping deploy.Mapping
}

// RunSim executes one chaos episode on the discrete-event simulator:
// the plan's faults perturb a single workflow execution and, with
// SelfHeal, the Supervisor repairs around them on the virtual clock.
// Everything is deterministic — the same plan and config replay to an
// identical outcome and a byte-identical canonical incident log.
func RunSim(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, plan *Plan, cfg RunConfig) (*SimOutcome, error) {
	root := cfg.Tracer.StartSpan("chaos.episode")
	root.SetAttr("backend", "sim")
	root.SetAttr("workflow", w.Name)
	defer root.End()

	psp := root.StartChild("chaos.plan")
	psp.SetInt("events", int64(len(plan.Events)))
	if err := mp.Validate(w, n); err != nil {
		psp.End()
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := plan.Validate(n.N()); err != nil {
		psp.End()
		return nil, err
	}
	psp.End()

	dsp := root.StartChild("chaos.deploy")
	var sv *Supervisor
	if cfg.SelfHeal {
		mgr := manager.New(n)
		if err := mgr.Adopt(supervisedID, w, mp); err != nil {
			dsp.End()
			return nil, err
		}
		sv = NewSupervisor(mgr, supervisedID)
		sv.AttachObs(root, cfg.incidentDumper())
	}
	inj := &simInjector{
		sorted:     plan.Sorted(),
		st:         newState(),
		sv:         sv,
		live:       mp.Clone(),
		repairedAt: map[int]float64{},
		rng:        stats.NewRNG(plan.Seed),
	}
	dsp.End()

	rsp := root.StartChild("chaos.run")
	rr := sim.RunOnce(w, n, mp, stats.NewRNG(cfg.Seed), sim.Config{Injector: inj})
	// Flush the remaining plan events so the incident log always covers
	// the whole plan, independent of how early the run completed — the
	// fabric backend's scheduler does the same.
	inj.advance(math.Inf(1))
	rsp.SetFloat("makespan_vs", rr.Makespan)
	rsp.SetInt("executed_ops", int64(rr.ExecutedOps))
	rsp.End()

	out := &SimOutcome{Run: rr, Log: &Log{}, FinalMapping: inj.live.Clone()}
	if sv != nil {
		out.Log = sv.Log()
	}
	root.SetInt("incidents", int64(out.Log.Len()))
	return out, nil
}

// simInjector adapts a Plan (and optionally a Supervisor) to the
// simulator's injection points. The simulator calls it with
// non-decreasing times, so the fault timeline advances lazily; retry
// deliberation inside Transfer uses side-effect-free state snapshots so
// it never advances the shared timeline past the caller's clock.
type simInjector struct {
	sorted     []Event
	idx        int
	st         *state
	sv         *Supervisor
	live       deploy.Mapping
	repairedAt map[int]float64 // op → virtual time its re-placement completed
	rng        *stats.RNG
}

// advance applies every plan event up to time t, routing crashes and
// rejoins through the supervisor when self-healing is on.
func (inj *simInjector) advance(t float64) {
	for inj.idx < len(inj.sorted) && inj.sorted[inj.idx].Time <= t {
		ev := inj.sorted[inj.idx]
		inj.idx++
		inj.st.apply(ev)
		if inj.sv == nil {
			continue
		}
		switch ev.Kind {
		case ServerCrash:
			rep := inj.sv.HandleCrash(ev.Time, ev.Server)
			for _, op := range rep.Moved {
				inj.repairedAt[op] = rep.Incident.Repaired
			}
			if rep.Mapping != nil {
				inj.live = rep.Mapping
			}
		case ServerRejoin:
			inj.sv.HandleRejoin(ev.Time, ev.Server)
		}
	}
}

// Place reports where operation u runs when it becomes ready at t —
// following any repairs the supervisor has made by then.
func (inj *simInjector) Place(u int, t float64) int {
	inj.advance(t)
	return inj.live[u]
}

// OpStart charges the cost of running on a repaired or crashed server:
// an operation moved by a repair resumes at the repair-complete time;
// an operation stuck on a down server (no supervisor, or a failed
// repair) waits for the server's rejoin, or is lost if it never comes.
func (inj *simInjector) OpStart(u, s int, t float64) (delay float64, ok bool) {
	inj.advance(t)
	if ra, ok := inj.repairedAt[u]; ok && ra > t {
		delay = ra - t
	}
	if inj.st.serverDown(s) {
		rejoin := math.Inf(1)
		for _, ev := range inj.sorted {
			if ev.Kind == ServerRejoin && ev.Server == s && ev.Time > t {
				rejoin = ev.Time
				break
			}
		}
		if math.IsInf(rejoin, 1) {
			return 0, false // dead forever and nobody to move the work
		}
		if d := rejoin - t; d > delay {
			delay = d
		}
	}
	return delay, true
}

// ProcFactor applies latency spikes.
func (inj *simInjector) ProcFactor(u, s int, t float64) float64 {
	inj.advance(t)
	return inj.st.procFactor(s)
}

// Transfer plays the fabric's retry loop on the virtual clock: each
// attempt consults a state snapshot at its own departure time, losses
// and partition blocks burn the ack timeout plus the policy backoff,
// and the message is lost once the attempts run out.
func (inj *simInjector) Transfer(ei, from, to int, t, base float64) (float64, bool) {
	inj.advance(t)
	elapsed := 0.0
	for attempt := 1; ; attempt++ {
		st := stateAt(inj.sorted, t+elapsed)
		lp := st.lossProb(from, to)
		if st.unreachable(from, to) || (lp > 0 && inj.rng.Float64() < lp) {
			if attempt >= fabric.MaxAttempts {
				return elapsed, false
			}
			elapsed += fabric.AckTimeout + fabric.Backoff(attempt, inj.rng)
			continue
		}
		return elapsed + base*st.transferFactor(from, to), true
	}
}
