package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/fabric"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// FabricOutcome reports one chaos episode on the wall-clock fabric.
type FabricOutcome struct {
	Run          fabric.RunResult
	Stats        fabric.Stats
	Log          *Log
	FinalMapping deploy.Mapping
}

// RunFabric executes one chaos episode on the HTTP fabric: real hosts,
// real XML messages, and a scheduler goroutine firing the plan's faults
// at their (time-scaled) wall-clock moments. With SelfHeal the
// Supervisor repairs each crash through the manager and pushes the
// re-placements onto the live fabric via Remap; senders mid-retry
// follow the moves. The canonical incident log carries only virtual
// plan times and deterministic manager-derived values, so replaying the
// same plan yields byte-identical logs despite wall-clock jitter; the
// scheduler always plays the plan to its end — even after the run
// completes — so log coverage never depends on a wall-clock race.
func RunFabric(ctx context.Context, w *workflow.Workflow, n *network.Network, mp deploy.Mapping, plan *Plan, cfg RunConfig) (*FabricOutcome, error) {
	root := cfg.Tracer.StartSpan("chaos.episode")
	root.SetAttr("backend", "fabric")
	root.SetAttr("workflow", w.Name)
	defer root.End()

	psp := root.StartChild("chaos.plan")
	psp.SetInt("events", int64(len(plan.Events)))
	if err := plan.Validate(n.N()); err != nil {
		psp.End()
		return nil, err
	}
	psp.End()

	dsp := root.StartChild("chaos.deploy")
	ctrl := newController(plan.Seed)
	f, err := fabric.Deploy(w, n, mp, fabric.Config{
		TimeScale: cfg.TimeScale,
		Seed:      cfg.Seed,
		Faults:    ctrl,
		Tracer:    cfg.Tracer,
	})
	if err != nil {
		dsp.End()
		return nil, err
	}
	defer f.Close()

	var sv *Supervisor
	if cfg.SelfHeal {
		mgr := manager.New(n)
		if err := mgr.Adopt(supervisedID, w, mp); err != nil {
			dsp.End()
			return nil, err
		}
		sv = NewSupervisor(mgr, supervisedID)
		sv.AttachRemapper(f.Remap)
		sv.AttachObs(root, cfg.incidentDumper())
	}
	dsp.End()

	scale := cfg.TimeScale
	if scale <= 0 {
		scale = time.Millisecond
	}
	start := time.Now()
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		for _, ev := range plan.Sorted() {
			if wait := time.Duration(ev.Time*float64(scale)) - time.Since(start); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
			// Strike first, heal second: the host starts rejecting before
			// the supervisor moves its operations, exactly as a real crash
			// would be observed.
			ctrl.apply(ev)
			if sv == nil {
				continue
			}
			switch ev.Kind {
			case ServerCrash:
				sv.HandleCrash(ev.Time, ev.Server)
			case ServerRejoin:
				sv.HandleRejoin(ev.Time, ev.Server)
			}
		}
	}()

	rsp := root.StartChild("chaos.run")
	res, runErr := f.RunContext(ctx)
	<-schedDone
	rsp.SetInt("executed_ops", int64(res.ExecutedOps))
	rsp.SetFloat("makespan_s", res.Makespan.Seconds())
	rsp.End()

	out := &FabricOutcome{
		Run:          res,
		Stats:        f.Stats(),
		Log:          &Log{},
		FinalMapping: f.Mapping(),
	}
	if sv != nil {
		out.Log = sv.Log()
	}
	if runErr != nil {
		return out, fmt.Errorf("chaos: fabric episode: %w", runErr)
	}
	return out, nil
}

// controller adapts the fault state machine to the fabric's
// FaultController interface. Hosts and senders query it from many
// goroutines while the scheduler applies events, so every access locks.
type controller struct {
	mu  sync.Mutex
	st  *state
	rng *stats.RNG // loss coin flips
}

func newController(seed uint64) *controller {
	return &controller{st: newState(), rng: stats.NewRNG(seed)}
}

func (c *controller) apply(ev Event) {
	c.mu.Lock()
	c.st.apply(ev)
	c.mu.Unlock()
}

func (c *controller) ServerDown(s int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.serverDown(s)
}

func (c *controller) Unreachable(from, to int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.unreachable(from, to)
}

func (c *controller) TransferFactor(from, to int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.transferFactor(from, to)
}

func (c *controller) DropMessage(from, to int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.st.lossProb(from, to)
	return p > 0 && c.rng.Float64() < p
}

func (c *controller) ProcFactor(s int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.procFactor(s)
}
