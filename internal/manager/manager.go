// Package manager is an online deployment controller built on the
// paper's algorithms: it maintains the live placements of many workflows
// over a mutable server fleet. Workflows arrive and depart, servers fail
// and join, and the manager keeps the combined load fair and the
// messages off the network — incrementally where possible (GreedyPlace
// fills the valleys of the current load landscape; failures repair only
// the orphaned operations) and with a global rebalance on demand.
//
// The paper plans one static workflow; the manager is the system a
// provider would actually run, stitched from the paper's own primitives:
// FairLoad-style packing (§3.3), probability-amortised costs (§3.4),
// multi-workflow budgets (§6) and the §2.1 failure scenario.
package manager

import (
	"fmt"
	"math"
	"sort"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/workflow"
)

// Process-wide fleet-controller metrics on the shared obs registry:
// /metrics shows repair traffic next to the engine's planning series
// and the fabric's delivery series. The down-server gauge tracks the
// fleet's current degradation.
var (
	obsMarkDowns   = obs.Default().Counter("manager.markdowns")
	obsMarkUps     = obs.Default().Counter("manager.markups")
	obsOrphanMoves = obs.Default().Counter("manager.orphans_replaced")
	obsDownServers = obs.Default().Gauge("manager.down_servers")
)

// Manager holds the live state. It is not safe for concurrent use; wrap
// it in your own synchronization if needed (every method is a fast pure
// computation, so a single mutex suffices).
type Manager struct {
	net       *network.Network
	workflows map[string]*workflow.Workflow
	mappings  map[string]deploy.Mapping
	order     []string     // insertion order, for deterministic iteration
	down      map[int]bool // servers failed in place (stable indices)
}

// New builds a manager over an initial network.
func New(net *network.Network) *Manager {
	return &Manager{
		net:       net,
		workflows: map[string]*workflow.Workflow{},
		mappings:  map[string]deploy.Mapping{},
		down:      map[int]bool{},
	}
}

// Network returns the current fleet.
func (m *Manager) Network() *network.Network { return m.net }

// Workflows returns the deployed workflow ids in arrival order.
func (m *Manager) Workflows() []string {
	return append([]string(nil), m.order...)
}

// Mapping returns the live mapping of a workflow id.
func (m *Manager) Mapping(id string) (deploy.Mapping, bool) {
	mp, ok := m.mappings[id]
	if !ok {
		return nil, false
	}
	return mp.Clone(), true
}

// Adopt registers an existing workflow/mapping pair — typically one
// computed by a planning algorithm or the portfolio engine — without
// re-placing anything. The id must be unused and the mapping total over
// the manager's network.
func (m *Manager) Adopt(id string, w *workflow.Workflow, mp deploy.Mapping) error {
	if _, dup := m.workflows[id]; dup {
		return fmt.Errorf("manager: workflow %q already deployed", id)
	}
	if err := mp.Validate(w, m.net); err != nil {
		return fmt.Errorf("manager: adopting %q: %w", id, err)
	}
	m.workflows[id] = w
	m.mappings[id] = mp.Clone()
	m.order = append(m.order, id)
	return nil
}

// SetMapping replaces the live mapping of a deployed workflow, e.g. with
// a globally re-optimized plan from the portfolio engine. The mapping
// must be total and must not place anything on a down server.
func (m *Manager) SetMapping(id string, mp deploy.Mapping) error {
	w, ok := m.workflows[id]
	if !ok {
		return fmt.Errorf("manager: unknown workflow %q", id)
	}
	if err := mp.Validate(w, m.net); err != nil {
		return fmt.Errorf("manager: setting mapping of %q: %w", id, err)
	}
	for op, s := range mp {
		if m.down[s] {
			return fmt.Errorf("manager: setting mapping of %q: operation %d targets down server %d", id, op, s)
		}
	}
	m.mappings[id] = mp.Clone()
	return nil
}

// combinedCycles returns the probability-amortised cycles each server
// currently hosts across all workflows.
func (m *Manager) combinedCycles() []float64 {
	cycles := make([]float64, m.net.N())
	for _, id := range m.order {
		w := m.workflows[id]
		model := cost.NewModel(w, m.net)
		for op, s := range m.mappings[id] {
			if s != deploy.Unassigned {
				cycles[s] += model.NodeProb(op) * w.Nodes[op].Cycles
			}
		}
	}
	return cycles
}

// maskDown overlays the down set onto per-server cycles: down servers
// become +Inf, which GreedyPlace reads as "unavailable".
func (m *Manager) maskDown(cycles []float64) []float64 {
	for s := range cycles {
		if m.down[s] {
			cycles[s] = math.Inf(1)
		}
	}
	return cycles
}

// Deploy places a new workflow into the valleys of the current combined
// load, avoiding down servers. The id must be unused.
func (m *Manager) Deploy(id string, w *workflow.Workflow) error {
	if _, dup := m.workflows[id]; dup {
		return fmt.Errorf("manager: workflow %q already deployed", id)
	}
	mp, err := core.GreedyPlace(w, m.net, m.maskDown(m.combinedCycles()))
	if err != nil {
		return err
	}
	m.workflows[id] = w
	m.mappings[id] = mp
	m.order = append(m.order, id)
	return nil
}

// MarkDown fails server s in place: unlike ServerDown the server stays in
// the network — indices remain stable, so a live execution substrate
// (fabric hosts, sim placements) can follow the repair without
// renumbering — but it is excluded from placement and every operation it
// hosted is re-placed onto the survivors. Marking an already-down server
// is a no-op, which makes duplicate crash detections harmless. Returns
// the number of operations that moved.
func (m *Manager) MarkDown(s int) (moved int, err error) {
	if s < 0 || s >= m.net.N() {
		return 0, fmt.Errorf("manager: MarkDown(%d) out of range", s)
	}
	if m.down[s] {
		return 0, nil
	}
	if len(m.down)+1 >= m.net.N() {
		return 0, fmt.Errorf("manager: cannot mark down server %d: no survivors would remain", s)
	}
	m.down[s] = true
	obsMarkDowns.Inc()
	obsDownServers.Set(float64(len(m.down)))
	defer func() { obsOrphanMoves.Add(int64(moved)) }()
	for _, id := range m.order {
		mp := m.mappings[id]
		var orphans []int
		for op, srv := range mp {
			if srv == s {
				mp[op] = deploy.Unassigned
				orphans = append(orphans, op)
			}
		}
		if len(orphans) == 0 {
			continue
		}
		moved += len(orphans)
		if err := m.placeOrphans(m.workflows[id], mp, orphans); err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// MarkUp rejoins a server previously failed with MarkDown. Existing
// placements stay put — nothing is double-placed on the returning
// machine; its capacity is used by subsequent arrivals, repairs and
// rebalances. Rejoining an up server is a no-op.
func (m *Manager) MarkUp(s int) error {
	if s < 0 || s >= m.net.N() {
		return fmt.Errorf("manager: MarkUp(%d) out of range", s)
	}
	if m.down[s] {
		obsMarkUps.Inc()
	}
	delete(m.down, s)
	obsDownServers.Set(float64(len(m.down)))
	return nil
}

// IsDown reports whether server s is currently marked down.
func (m *Manager) IsDown(s int) bool { return m.down[s] }

// DownServers returns the indices of servers currently marked down, in
// ascending order.
func (m *Manager) DownServers() []int {
	var out []int
	for s := range m.down {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Remove withdraws a workflow; its capacity is freed for future arrivals.
func (m *Manager) Remove(id string) error {
	if _, ok := m.workflows[id]; !ok {
		return fmt.Errorf("manager: unknown workflow %q", id)
	}
	delete(m.workflows, id)
	delete(m.mappings, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// ServerDown removes a failed server and repairs every workflow's
// mapping, moving only the orphaned operations (core.RepairOrphans
// semantics across the whole portfolio). It returns the number of
// operations that had to move.
//
// A removal that cannot re-place its orphans (no surviving server is
// up) fails and leaves the manager as it was.
//
// Like MarkDown, a removal feeds the fleet metrics on the shared obs
// registry once it succeeds: the markdown counter ticks once and the
// down-server gauge is recomputed under the surviving numbering (a
// permanently removed server does not linger in the gauge).
func (m *Manager) ServerDown(s int) (moved int, err error) {
	degraded, remap, err := m.net.RemoveServer(s)
	if err != nil {
		return 0, err
	}
	// Every field the removal changes is replaced, not edited in place,
	// so the old values restore the manager on failure.
	prev := *m
	defer func() {
		if err != nil {
			*m, moved = prev, 0
			return
		}
		obsMarkDowns.Inc()
		obsDownServers.Set(float64(len(m.down)))
		obsOrphanMoves.Add(int64(moved))
	}()
	// Remap survivors first so that the per-workflow repairs see the
	// combined surviving load.
	newMappings := map[string]deploy.Mapping{}
	var orphaned []struct {
		id string
		op int
	}
	for _, id := range m.order {
		old := m.mappings[id]
		mp := deploy.NewUnassigned(len(old))
		for op, srv := range old {
			ns := -1
			if srv >= 0 {
				ns = remap[srv]
			}
			if ns < 0 {
				orphaned = append(orphaned, struct {
					id string
					op int
				}{id, op})
				continue
			}
			mp[op] = ns
		}
		newMappings[id] = mp
	}
	m.net = degraded
	m.mappings = newMappings
	// In-place failures keep their mark under the new numbering.
	newDown := map[int]bool{}
	for olds := range m.down {
		if ns := remap[olds]; ns >= 0 {
			newDown[ns] = true
		}
	}
	m.down = newDown

	// Re-place orphans workflow by workflow against the evolving combined
	// load: heaviest orphan first within each workflow.
	for _, id := range m.order {
		w := m.workflows[id]
		mp := m.mappings[id]
		var orphans []int
		for _, o := range orphaned {
			if o.id == id {
				orphans = append(orphans, o.op)
			}
		}
		if len(orphans) == 0 {
			continue
		}
		moved += len(orphans)
		if err := m.placeOrphans(w, mp, orphans); err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// placeOrphans assigns the given unplaced operations of one workflow,
// worst-fit against the combined ideal budget with gain tie-breaks. Down
// servers receive no budget and are never candidates.
func (m *Manager) placeOrphans(w *workflow.Workflow, mp deploy.Mapping, orphans []int) error {
	model := cost.NewModel(w, m.net)
	combined := m.combinedCycles()
	var total float64
	for _, c := range combined {
		total += c
	}
	for _, op := range orphans {
		total += model.NodeProb(op) * w.Nodes[op].Cycles
	}
	budget := make([]float64, m.net.N())
	var power float64
	for s := range budget {
		if !m.down[s] {
			power += m.net.Servers[s].PowerHz
		}
	}
	if power <= 0 {
		return fmt.Errorf("manager: no surviving server to place orphans on")
	}
	for s := range budget {
		if m.down[s] {
			budget[s] = math.Inf(-1)
			continue
		}
		budget[s] = total*m.net.Servers[s].PowerHz/power - combined[s]
	}
	// Heaviest orphan first.
	sort.SliceStable(orphans, func(a, b int) bool {
		ca := model.NodeProb(orphans[a]) * w.Nodes[orphans[a]].Cycles
		cb := model.NodeProb(orphans[b]) * w.Nodes[orphans[b]].Cycles
		if ca != cb {
			return ca > cb
		}
		return orphans[a] < orphans[b]
	})
	for _, op := range orphans {
		bestS, bestKey, bestGain := -1, 0.0, -1.0
		for s := 0; s < m.net.N(); s++ {
			if m.down[s] {
				continue
			}
			gain := 0.0
			for _, ei := range w.In(op) {
				if mp[w.Edges[ei].From] == s {
					gain += model.EdgeProb(ei) * w.Edges[ei].SizeBits
				}
			}
			for _, ei := range w.Out(op) {
				if mp[w.Edges[ei].To] == s {
					gain += model.EdgeProb(ei) * w.Edges[ei].SizeBits
				}
			}
			if bestS < 0 || budget[s] > bestKey || (budget[s] == bestKey && gain > bestGain) {
				bestS, bestKey, bestGain = s, budget[s], gain
			}
		}
		mp[op] = bestS
		budget[bestS] -= model.NodeProb(op) * w.Nodes[op].Cycles
	}
	return nil
}

// ServerUp joins a fresh server to a bus fleet and returns its index.
// Existing placements stay put; subsequent arrivals and rebalances use
// the capacity. The join counts on the markup counter and refreshes the
// down-server gauge, mirroring MarkUp on the obs fleet metrics.
func (m *Manager) ServerUp(name string, powerHz float64) (int, error) {
	grown, err := m.net.AddBusServer(name, powerHz)
	if err != nil {
		return -1, err
	}
	m.net = grown
	obsMarkUps.Inc()
	obsDownServers.Set(float64(len(m.down)))
	return grown.N() - 1, nil
}

// Rebalance redeploys the whole portfolio from scratch (heaviest
// workflow first) and returns the number of operations that changed
// servers. Use after fleet growth or workflow churn has skewed the
// placement.
func (m *Manager) Rebalance() (moved int, err error) {
	ids := append([]string(nil), m.order...)
	sort.SliceStable(ids, func(a, b int) bool {
		return m.workflows[ids[a]].ExpectedCycles() > m.workflows[ids[b]].ExpectedCycles()
	})
	cycles := m.maskDown(make([]float64, m.net.N()))
	newMappings := map[string]deploy.Mapping{}
	for _, id := range ids {
		w := m.workflows[id]
		mp, err := core.GreedyPlace(w, m.net, cycles)
		if err != nil {
			return 0, err
		}
		newMappings[id] = mp
		model := cost.NewModel(w, m.net)
		for op, s := range mp {
			cycles[s] += model.NodeProb(op) * w.Nodes[op].Cycles
		}
	}
	for _, id := range ids {
		old := m.mappings[id]
		for op, s := range newMappings[id] {
			if old[op] != s {
				moved++
			}
		}
	}
	m.mappings = newMappings
	return moved, nil
}

// Status reports the portfolio's health.
type Status struct {
	Servers     int
	Down        []int // servers currently failed in place
	Workflows   int
	Loads       []float64 // combined per-server load, seconds
	TimePenalty float64
	TotalExec   float64            // Σ per-workflow amortised exec time
	PerWorkflow map[string]float64 // per-workflow exec time
}

// Status computes the combined metrics.
func (m *Manager) Status() Status {
	st := Status{
		Servers:     m.net.N(),
		Down:        m.DownServers(),
		Workflows:   len(m.order),
		Loads:       make([]float64, m.net.N()),
		PerWorkflow: map[string]float64{},
	}
	for _, id := range m.order {
		w := m.workflows[id]
		model := cost.NewModel(w, m.net)
		mp := m.mappings[id]
		exec := model.ExecutionTime(mp)
		st.PerWorkflow[id] = exec
		st.TotalExec += exec
		for s, l := range model.Loads(mp) {
			st.Loads[s] += l
		}
	}
	st.TimePenalty = cost.PenaltyOfLoads(st.Loads)
	return st
}
