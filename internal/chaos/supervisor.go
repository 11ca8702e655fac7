package chaos

import (
	"sync"
	"time"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/obs"
)

// Process-wide chaos metrics on the shared obs registry, next to the
// engine's and the fabric's series on /metrics and /debug/vars.
var (
	obsIncidents   = obs.Default().Counter("chaos.incidents")
	obsOpsMoved    = obs.Default().Counter("chaos.ops_moved")
	obsRepairHist  = obs.Default().Histogram("chaos.repair_virtual_seconds")
	obsHandleHist  = obs.Default().Histogram("chaos.handle_wall_seconds")
	obsRepairFails = obs.Default().Counter("chaos.repair_failures")
)

// SupervisorConfig sets the control loop's latency model, in virtual
// seconds: a crash is *detected* DetectDelay after it happens (health
// probes are not instant), and the repair completes RepairBase +
// RepairPerOp × moved later (computing the new placement plus shipping
// each re-placed operation). Operations re-placed by a repair only
// resume at the repair-complete time — that is the self-healing cost
// the chaos experiments measure.
type SupervisorConfig struct {
	DetectDelay float64 // default 0.05
	RepairBase  float64 // default 0.02
	RepairPerOp float64 // default 0.005
}

// WithDefaults fills unset fields with the documented defaults.
func (c SupervisorConfig) WithDefaults() SupervisorConfig {
	if c.DetectDelay <= 0 {
		c.DetectDelay = 0.05
	}
	if c.RepairBase <= 0 {
		c.RepairBase = 0.02
	}
	if c.RepairPerOp <= 0 {
		c.RepairPerOp = 0.005
	}
	return c
}

// Supervisor is the self-healing controller of one chaos episode: fault
// events flow in (HandleCrash, HandleRejoin), deployment repairs flow
// out through the episode's private manager — detect → re-place orphans
// (GreedyPlace-style worst-fit) → redeploy onto the live substrate via
// the attached remapper — and every step lands in a structured incident
// log. It never shares a fleet: on a long-lived fleet the reconciler is
// the only repair writer, and crashes reach it as incidents. Handlers
// are safe for concurrent use; incidents are sequenced in handling
// order.
type Supervisor struct {
	cfg SupervisorConfig
	log *Log

	mu    sync.Mutex
	mgr   *manager.Manager
	id    string
	remap func(op, s int) error // live substrate hook (e.g. fabric.Remap)

	// parent is the span incidents nest under; onIncident fires (outside
	// the lock) after each incident is logged — the chaos runner uses it
	// to dump the flight recorder. Both are optional (see AttachObs).
	parent     *obs.Span
	onIncident func(Incident)
}

// NewSupervisor builds a supervisor that owns mgr and protects the
// execution of workflow id. The manager may hold other workflows; their
// placements participate in load budgets as usual.
func NewSupervisor(mgr *manager.Manager, id string, cfg SupervisorConfig) *Supervisor {
	return &Supervisor{cfg: cfg.WithDefaults(), log: &Log{}, mgr: mgr, id: id}
}

// AttachRemapper installs the live-substrate hook invoked for every
// operation a repair moves (fabric.Remap for wall-clock runs; nil — the
// default — for simulation, where the injector reads Mapping instead).
func (sv *Supervisor) AttachRemapper(fn func(op, s int) error) {
	sv.mu.Lock()
	sv.remap = fn
	sv.mu.Unlock()
}

// AttachObs wires the supervisor into the observability subsystem:
// every handled fault becomes a "chaos.incident" span under parent with
// one "chaos.remap" child per re-placed operation, and onIncident fires
// after the incident lands in the log (outside the supervisor's lock) —
// the chaos runners use it to dump the flight recorder automatically.
// Either argument may be nil.
func (sv *Supervisor) AttachObs(parent *obs.Span, onIncident func(Incident)) {
	sv.mu.Lock()
	sv.parent = parent
	sv.onIncident = onIncident
	sv.mu.Unlock()
}

// Log returns the supervisor's incident log.
func (sv *Supervisor) Log() *Log { return sv.log }

// Mapping returns the current live mapping of the supervised workflow.
func (sv *Supervisor) Mapping() deploy.Mapping {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	mp, _ := sv.mgr.Mapping(sv.id)
	return mp
}

// Repair reports one handled fault: the logged incident, the operations
// that moved, and the post-repair live mapping.
type Repair struct {
	Incident Incident
	Moved    []int
	Mapping  deploy.Mapping
}

// combinedCost evaluates the supervised workflow's current placement
// under the cost model (callers hold sv.mu).
func (sv *Supervisor) combinedCost() float64 {
	w, ok := sv.mgr.Workflow(sv.id)
	if !ok {
		return 0
	}
	mp, ok := sv.mgr.Mapping(sv.id)
	if !ok {
		return 0
	}
	return cost.NewModel(w, sv.mgr.Network()).Evaluate(mp).Combined
}

// HandleCrash runs the detect → repair → redeploy loop for a server
// crash at virtual time t: the manager marks the server down and
// re-places its orphaned operations onto the survivors, the remapper
// pushes each move onto the live substrate, and the incident — costs
// before and after, operations moved, detection and repair times — is
// logged. A repair that cannot proceed (no survivors) is logged as
// failed rather than crashing the run.
func (sv *Supervisor) HandleCrash(t float64, s int) Repair {
	rep := sv.handleCrash(t, s)
	sv.notifyIncident(rep.Incident)
	return rep
}

func (sv *Supervisor) handleCrash(t float64, s int) Repair {
	start := time.Now()
	sv.mu.Lock()
	defer sv.mu.Unlock()

	sp := sv.parent.StartChild("chaos.incident")
	sp.SetAttr("kind", string(ServerCrash))
	sp.SetInt("server", int64(s))
	sp.SetFloat("time_vs", t)
	defer sp.End()

	inc := Incident{
		Time:     t,
		Kind:     ServerCrash,
		Server:   s,
		Detected: t + sv.cfg.DetectDelay,
	}
	before, _ := sv.mgr.Mapping(sv.id)
	inc.CostBefore = sv.combinedCost()

	moved, err := sv.mgr.MarkDown(s)
	after, _ := sv.mgr.Mapping(sv.id)
	inc.OpsMoved = moved
	inc.CostAfter = sv.combinedCost()
	inc.Repaired = inc.Detected + sv.cfg.RepairBase + sv.cfg.RepairPerOp*float64(moved)

	var movedOps []int
	switch {
	case err != nil:
		inc.Action = "failed: " + err.Error()
		inc.Repaired = inc.Detected
		obsRepairFails.Inc()
	case moved == 0:
		inc.Action = "none"
		inc.Repaired = inc.Detected
	default:
		inc.Action = "repair-orphans"
		for op := range after {
			if before != nil && before[op] != after[op] {
				movedOps = append(movedOps, op)
				rsp := sp.StartChild("chaos.remap")
				rsp.SetInt("op", int64(op))
				rsp.SetInt("to_server", int64(after[op]))
				if sv.remap != nil {
					if rerr := sv.remap(op, after[op]); rerr != nil {
						inc.Action = "failed: " + rerr.Error()
						rsp.SetAttr("err", rerr.Error())
						obsRepairFails.Inc()
					}
				}
				rsp.End()
			}
		}
	}
	inc.Wall = time.Since(start)
	obsIncidents.Inc()
	obsOpsMoved.Add(int64(moved))
	obsRepairHist.Observe(inc.Repaired - inc.Time)
	obsHandleHist.ObserveDuration(inc.Wall)
	sp.SetAttr("action", inc.Action)
	sp.SetInt("ops_moved", int64(moved))
	return Repair{Incident: sv.log.append(inc), Moved: movedOps, Mapping: after}
}

// HandleRejoin processes a crashed server coming back at virtual time
// t. Nothing is re-placed — live operations stay where the repair put
// them, so a rejoin can never double-place work — but the event is
// logged and the capacity becomes available to subsequent repairs.
func (sv *Supervisor) HandleRejoin(t float64, s int) Repair {
	rep := sv.handleRejoin(t, s)
	sv.notifyIncident(rep.Incident)
	return rep
}

func (sv *Supervisor) handleRejoin(t float64, s int) Repair {
	start := time.Now()
	sv.mu.Lock()
	defer sv.mu.Unlock()

	sp := sv.parent.StartChild("chaos.incident")
	sp.SetAttr("kind", string(ServerRejoin))
	sp.SetInt("server", int64(s))
	sp.SetFloat("time_vs", t)
	defer sp.End()

	inc := Incident{
		Time:     t,
		Kind:     ServerRejoin,
		Server:   s,
		Detected: t + sv.cfg.DetectDelay,
	}
	inc.Repaired = inc.Detected
	inc.CostBefore = sv.combinedCost()
	inc.CostAfter = inc.CostBefore
	if err := sv.mgr.MarkUp(s); err != nil {
		inc.Action = "failed: " + err.Error()
		obsRepairFails.Inc()
	} else {
		inc.Action = "rejoin"
	}
	inc.Wall = time.Since(start)
	obsIncidents.Inc()
	obsHandleHist.ObserveDuration(inc.Wall)
	sp.SetAttr("action", inc.Action)
	mp, _ := sv.mgr.Mapping(sv.id)
	return Repair{Incident: sv.log.append(inc), Mapping: mp}
}

// notifyIncident fires the AttachObs hook outside the supervisor's
// lock, so a dump callback may freely call back into the supervisor.
func (sv *Supervisor) notifyIncident(inc Incident) {
	sv.mu.Lock()
	fn := sv.onIncident
	sv.mu.Unlock()
	if fn != nil {
		fn(inc)
	}
}
