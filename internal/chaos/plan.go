// Package chaos is the reproduction's fault-injection and self-healing
// runtime. A seeded, deterministic Plan of timed fault events — server
// crashes and rejoins, link slowdowns, partitions, message loss,
// latency spikes — is injected into either execution backend (the
// internal/sim discrete-event simulator or the internal/fabric
// wall-clock HTTP fabric), while a Supervisor watches the faults,
// drives the deployment manager's repair machinery (detect → re-place
// orphans → redeploy) and records a structured incident log.
//
// The paper's §2.1 motivates exactly this scenario — a hospital server
// failing mid-workflow and the deployment healing around it — but
// evaluates placements only statically. This package closes that loop:
// it measures what the paper's algorithms cost *under* failures
// (availability, makespan inflation) rather than in their absence.
package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/stats"
)

// Kind labels a fault event. Events come in state-toggle pairs: the
// first member opens a fault window, the second closes it.
type Kind string

const (
	// ServerCrash fail-stops a server: it accepts no new messages and
	// starts no new operations (executing operations complete — fail-stop
	// at operation boundaries). Event.Server selects the victim.
	ServerCrash Kind = "server-crash"
	// ServerRejoin brings a crashed server back. Placements do not move
	// back automatically — the manager reuses the capacity for later
	// arrivals and rebalances, never double-placing live operations.
	ServerRejoin Kind = "server-rejoin"

	// LinkDegrade multiplies transfer times between Event.From and
	// Event.To by Event.Factor (>1); From=-1,To=-1 degrades every link.
	LinkDegrade Kind = "link-degrade"
	// LinkRestore ends a degradation window.
	LinkRestore Kind = "link-restore"

	// LossStart makes each delivery attempt between Event.From and
	// Event.To be lost with probability Event.Factor (0..1);
	// From=-1,To=-1 applies to every link. Senders retry under the
	// fabric's retry policy (fabric.MaxAttempts, fabric.Backoff).
	LossStart Kind = "loss-start"
	// LossStop ends a loss window.
	LossStop Kind = "loss-stop"

	// LatencySpike multiplies processing time on Event.Server by
	// Event.Factor (>1).
	LatencySpike Kind = "latency-spike"
	// LatencyCalm ends a latency spike.
	LatencyCalm Kind = "latency-calm"

	// Partition isolates Event.Servers from the rest of the fleet:
	// traffic crossing the cut is unreachable until Heal.
	Partition Kind = "partition"
	// Heal removes the partition.
	Heal Kind = "heal"

	// DiskFault makes the control plane's journal disk misbehave:
	// Event.Fault names a faultfs fault kind (write-error, short-write,
	// no-space, sync-error, rename-error, slow-io) armed sticky from
	// this event's time. Unlike the fleet-level events above, it targets
	// the daemon's own durability layer, driving a store into degraded
	// read-only mode rather than crashing a workflow server.
	DiskFault Kind = "disk-fault"
	// DiskHeal clears the armed disk fault; the recovery probe can then
	// bring degraded stores back.
	DiskHeal Kind = "disk-heal"
)

// Event is one timed fault. Times are virtual seconds — the cost
// model's unit — so the same plan drives both the discrete-event
// simulator and the wall-clock fabric (scaled by its TimeScale).
type Event struct {
	Time    float64 `json:"time"`
	Kind    Kind    `json:"kind"`
	Server  int     `json:"server,omitempty"`  // crash/rejoin/latency events
	From    int     `json:"from,omitempty"`    // link/loss events; -1 = any
	To      int     `json:"to,omitempty"`      // link/loss events; -1 = any
	Factor  float64 `json:"factor,omitempty"`  // slowdown × or loss probability
	Servers []int   `json:"servers,omitempty"` // partition group
	Fault   string  `json:"fault,omitempty"`   // disk-fault kind (faultfs.Kind)
}

// Plan is a deterministic schedule of fault events.
type Plan struct {
	Name string `json:"name,omitempty"`
	// Seed drives every probabilistic consequence of the plan (message
	// loss coin flips, retry jitter) so that replaying the plan is
	// byte-for-byte reproducible.
	Seed uint64 `json:"seed"`
	// Horizon is the virtual-seconds span the plan covers (informational;
	// events beyond it are still applied).
	Horizon float64 `json:"horizon,omitempty"`
	Events  []Event `json:"events"`
}

// Validate checks every event against a fleet of n servers.
func (p *Plan) Validate(n int) error {
	for i, ev := range p.Events {
		if ev.Time < 0 {
			return fmt.Errorf("chaos: event %d (%s) at negative time %g", i, ev.Kind, ev.Time)
		}
		switch ev.Kind {
		case ServerCrash, ServerRejoin, LatencySpike, LatencyCalm:
			if ev.Server < 0 || ev.Server >= n {
				return fmt.Errorf("chaos: event %d (%s) names non-existent server %d", i, ev.Kind, ev.Server)
			}
		case LinkDegrade, LinkRestore, LossStart, LossStop:
			if ev.From != -1 || ev.To != -1 {
				if ev.From < 0 || ev.From >= n || ev.To < 0 || ev.To >= n {
					return fmt.Errorf("chaos: event %d (%s) names non-existent link %d-%d", i, ev.Kind, ev.From, ev.To)
				}
			}
		case Partition:
			if len(ev.Servers) == 0 {
				return fmt.Errorf("chaos: event %d: empty partition", i)
			}
			for _, s := range ev.Servers {
				if s < 0 || s >= n {
					return fmt.Errorf("chaos: event %d (%s) names non-existent server %d", i, ev.Kind, s)
				}
			}
		case Heal, DiskHeal:
		case DiskFault:
			if _, err := faultfs.ParseKind(ev.Fault); err != nil {
				return fmt.Errorf("chaos: event %d (%s): %v", i, ev.Kind, err)
			}
		default:
			return fmt.Errorf("chaos: event %d has unknown kind %q", i, ev.Kind)
		}
		switch ev.Kind {
		case LinkDegrade, LatencySpike:
			if ev.Factor < 1 {
				return fmt.Errorf("chaos: event %d (%s) has factor %g < 1", i, ev.Kind, ev.Factor)
			}
		case LossStart:
			if ev.Factor <= 0 || ev.Factor >= 1 {
				return fmt.Errorf("chaos: event %d (%s) has loss probability %g outside (0,1)", i, ev.Kind, ev.Factor)
			}
		}
	}
	return nil
}

// Sorted returns the events ordered by time (stable, so same-time
// events keep their authored order).
func (p *Plan) Sorted() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	return evs
}

// ParsePlan decodes a JSON plan.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("chaos: decoding plan: %w", err)
	}
	return &p, nil
}

// LoadPlan reads a JSON plan from a file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return ParsePlan(data)
}

// GenerateConfig parameterizes a random plan.
type GenerateConfig struct {
	// Servers is the fleet size the plan targets.
	Servers int
	// Horizon is the virtual-seconds span to fill with faults.
	Horizon float64
	// Rate is the per-server crash rate in crashes per virtual second
	// (crash inter-arrivals are exponential with this rate). The study's
	// "fault rate" axis.
	Rate float64
	// Seed makes generation deterministic and doubles as the plan seed.
	Seed uint64
}

// Generate draws a random but fully deterministic fault plan: per-server
// Poisson crash processes — a quarter of them permanent, the rest with
// bounded downtimes — plus (at higher rates) a message-loss window, a
// latency spike and a link degradation. Server 0 is the designated
// survivor — it never crashes — so the self-healing controller always
// has somewhere to move work, matching the paper's assumption that the
// hospital's core server outlives the episode.
func Generate(cfg GenerateConfig) *Plan {
	r := stats.NewRNG(cfg.Seed)
	p := &Plan{
		Name:    fmt.Sprintf("generated-rate%g", cfg.Rate),
		Seed:    cfg.Seed,
		Horizon: cfg.Horizon,
	}
	exp := func(rate float64) float64 { // exponential inter-arrival
		return -math.Log(1-r.Float64()) / rate
	}
	if cfg.Rate > 0 {
		for s := 1; s < cfg.Servers; s++ {
			for t := exp(cfg.Rate); t < cfg.Horizon; t += exp(cfg.Rate) {
				// A quarter of the crashes are permanent: without a
				// self-healing controller, whatever ran there is lost.
				if r.Bool(0.25) {
					p.Events = append(p.Events, Event{Time: t, Kind: ServerCrash, Server: s})
					break
				}
				down := (0.05 + 0.10*r.Float64()) * cfg.Horizon
				p.Events = append(p.Events,
					Event{Time: t, Kind: ServerCrash, Server: s},
					Event{Time: t + down, Kind: ServerRejoin, Server: s})
				t += down
			}
		}
		// A global loss window, a latency spike and a link slowdown,
		// each present with probability growing in the fault rate.
		if r.Bool(math.Min(1, cfg.Rate*20)) {
			t0 := r.Float64() * cfg.Horizon * 0.5
			p.Events = append(p.Events,
				Event{Time: t0, Kind: LossStart, From: -1, To: -1, Factor: math.Min(0.3, cfg.Rate*2)},
				Event{Time: t0 + 0.2*cfg.Horizon, Kind: LossStop, From: -1, To: -1})
		}
		if cfg.Servers > 1 && r.Bool(math.Min(1, cfg.Rate*20)) {
			s := r.Range(1, cfg.Servers-1)
			t0 := r.Float64() * cfg.Horizon * 0.5
			p.Events = append(p.Events,
				Event{Time: t0, Kind: LatencySpike, Server: s, Factor: 2 + 2*r.Float64()},
				Event{Time: t0 + 0.15*cfg.Horizon, Kind: LatencyCalm, Server: s})
		}
		if cfg.Servers > 1 && r.Bool(math.Min(1, cfg.Rate*20)) {
			s := r.Range(1, cfg.Servers-1)
			t0 := r.Float64() * cfg.Horizon * 0.5
			p.Events = append(p.Events,
				Event{Time: t0, Kind: LinkDegrade, From: 0, To: s, Factor: 3},
				Event{Time: t0 + 0.15*cfg.Horizon, Kind: LinkRestore, From: 0, To: s})
		}
	}
	sort.SliceStable(p.Events, func(a, b int) bool { return p.Events[a].Time < p.Events[b].Time })
	return p
}

// pairKey is an unordered server pair (links are symmetric).
type pairKey struct{ a, b int }

func keyOf(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

var anyPair = pairKey{-1, -1}

// state is the instantaneous fault condition of the fleet, built by
// folding plan events in time order. It is not synchronized; callers
// that share one across goroutines must lock around apply and queries.
type state struct {
	down       map[int]bool
	proc       map[int]float64
	linkFactor map[pairKey]float64
	loss       map[pairKey]float64
	part       map[int]bool
}

func newState() *state {
	return &state{
		down:       map[int]bool{},
		proc:       map[int]float64{},
		linkFactor: map[pairKey]float64{},
		loss:       map[pairKey]float64{},
		part:       map[int]bool{},
	}
}

// apply folds one event into the state.
func (st *state) apply(ev Event) {
	switch ev.Kind {
	case ServerCrash:
		st.down[ev.Server] = true
	case ServerRejoin:
		delete(st.down, ev.Server)
	case LinkDegrade:
		st.linkFactor[keyOf(ev.From, ev.To)] = ev.Factor
	case LinkRestore:
		delete(st.linkFactor, keyOf(ev.From, ev.To))
	case LossStart:
		st.loss[keyOf(ev.From, ev.To)] = ev.Factor
	case LossStop:
		delete(st.loss, keyOf(ev.From, ev.To))
	case LatencySpike:
		st.proc[ev.Server] = ev.Factor
	case LatencyCalm:
		delete(st.proc, ev.Server)
	case Partition:
		for _, s := range ev.Servers {
			st.part[s] = true
		}
	case Heal:
		st.part = map[int]bool{}
	}
}

func (st *state) serverDown(s int) bool { return st.down[s] }

func (st *state) unreachable(a, b int) bool {
	return st.part[a] != st.part[b] // traffic crossing the partition cut
}

func (st *state) transferFactor(a, b int) float64 {
	f := 1.0
	if v, ok := st.linkFactor[anyPair]; ok {
		f *= v
	}
	if v, ok := st.linkFactor[keyOf(a, b)]; ok {
		f *= v
	}
	return f
}

func (st *state) lossProb(a, b int) float64 {
	p := 0.0
	if v, ok := st.loss[anyPair]; ok && v > p {
		p = v
	}
	if v, ok := st.loss[keyOf(a, b)]; ok && v > p {
		p = v
	}
	return p
}

func (st *state) procFactor(s int) float64 {
	if v, ok := st.proc[s]; ok {
		return v
	}
	return 1
}

// stateAt replays the sorted events up to and including time t into a
// fresh state — a side-effect-free snapshot query.
func stateAt(sorted []Event, t float64) *state {
	st := newState()
	for _, ev := range sorted {
		if ev.Time > t {
			break
		}
		st.apply(ev)
	}
	return st
}
