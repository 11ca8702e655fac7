package reconcile

import (
	"fmt"
	"sort"
	"strings"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/geo"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// Region-pinned execution. A spec with Regions set never plans over the
// whole fleet: every placement step resolves the pinned regions against
// the live network, masks out down servers, and runs the planner on the
// induced sub-network (geo.Subnetwork). Unknown regions are action
// errors, not silent fleet-wide fallbacks — a pass that cannot resolve
// the pins reports the error and does not converge.

// regionServers resolves the pinned regions against a live network: the
// union of their servers in server order, minus the down set.
func regionServers(n *network.Network, regions []string, down []int) ([]int, error) {
	isDown := map[int]bool{}
	for _, s := range down {
		isDown[s] = true
	}
	var unknown []string
	pick := map[int]bool{}
	for _, r := range regions {
		idx := n.RegionServers(r)
		if len(idx) == 0 {
			unknown = append(unknown, fmt.Sprintf("%q", r))
			continue
		}
		for _, s := range idx {
			if !isDown[s] {
				pick[s] = true
			}
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("reconcile: unknown region(s) %s (fleet %q has regions %v)",
			strings.Join(unknown, ", "), n.Name, n.Regions())
	}
	out := make([]int, 0, len(pick))
	for s := range pick {
		out = append(out, s)
	}
	sort.Ints(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("reconcile: regions %v have no live servers", regions)
	}
	return out, nil
}

// regionSub builds the masked planning sub-network for a region-pinned
// spec over the live fleet.
func (e *FleetExecutor) regionSub(v Versioned) (*network.Network, []int, error) {
	n := e.Fleet.Network()
	servers, err := regionServers(n, v.Spec.Regions, e.Fleet.DownServers())
	if err != nil {
		return nil, nil, err
	}
	return geo.Subnetwork(n, fmt.Sprintf("%s@%s", n.Name, strings.Join(v.Spec.Regions, "+")), servers)
}

// regionPlan places one workflow on the sub-network: the spec's
// algorithm hint when set, else valley-filling GreedyPlace over the
// given background cycles (nil is a fresh region).
func (e *FleetExecutor) regionPlan(w *workflow.Workflow, sub *network.Network, v Versioned, cycles []float64) (deploy.Mapping, error) {
	if v.Spec.Algorithm != "" {
		alg, err := core.NewByName(v.Spec.Algorithm, e.Seed)
		if err != nil {
			return nil, err
		}
		return alg.Deploy(w, sub)
	}
	return core.GreedyPlace(w, sub, cycles)
}

// liftMapping translates a total sub-network mapping back to global
// server indices.
func liftMapping(mp deploy.Mapping, toGlobal []int, m int) (deploy.Mapping, error) {
	if len(mp) != m {
		return nil, fmt.Errorf("reconcile: region plan covers %d operations, workflow has %d", len(mp), m)
	}
	global := deploy.NewUnassigned(m)
	for op, ls := range mp {
		if ls < 0 || ls >= len(toGlobal) {
			return nil, fmt.Errorf("reconcile: region plan maps operation %d to out-of-range server %d", op, ls)
		}
		global[op] = toGlobal[ls]
	}
	return global, nil
}

// localizeMapping translates a global mapping into sub-network indices;
// ok is false when any operation sits outside the subset (the class
// leaked out of its pinned regions and needs a full re-plan).
func localizeMapping(mp deploy.Mapping, toLocal map[int]int) (deploy.Mapping, bool) {
	local := deploy.NewUnassigned(len(mp))
	for op, gs := range mp {
		ls, ok := toLocal[gs]
		if !ok {
			return nil, false
		}
		local[op] = ls
	}
	return local, true
}

// applyRegionDeploy places one workflow entirely inside the pinned
// regions and adopts the lifted mapping.
func (e *FleetExecutor) applyRegionDeploy(id string, v Versioned, c *Compiled) (int, error) {
	w, ok := c.Workflows[id]
	if !ok {
		return 0, fmt.Errorf("reconcile: spec %q has no workflow %q", v.Name, id)
	}
	sub, toGlobal, err := e.regionSub(v)
	if err != nil {
		return 0, err
	}
	mp, err := e.regionPlan(w, sub, v, nil)
	if err != nil {
		return 0, err
	}
	global, err := liftMapping(mp, toGlobal, w.M())
	if err != nil {
		return 0, err
	}
	if err := e.Fleet.Adopt(id, w, global); err != nil {
		return 0, err
	}
	return 0, e.backendDeploy(id, w)
}

// applyRegionRemap is the bounded delta-remap confined to the pinned
// regions: classes that leaked outside them are pulled back wholesale;
// classes already inside get a PlanDelta pass on the sub-network.
func (e *FleetExecutor) applyRegionRemap(v Versioned, c *Compiled) (int, error) {
	classes := e.classes()
	if len(classes) == 0 {
		return 0, nil
	}
	sub, toGlobal, err := e.regionSub(v)
	if err != nil {
		return 0, err
	}
	toLocal := make(map[int]int, len(toGlobal))
	for li, gi := range toGlobal {
		toLocal[gi] = li
	}

	moved := 0
	var inside []autopilot.Class
	for _, cl := range classes {
		local, ok := localizeMapping(cl.Mapping, toLocal)
		if !ok {
			n, err := e.pullIntoRegion(cl, sub, toGlobal, v)
			if err != nil {
				return moved, err
			}
			moved += n
			continue
		}
		cl.Mapping = local
		inside = append(inside, cl)
	}
	if len(inside) == 0 {
		return moved, nil
	}

	mappings, moves, err := autopilot.PlanDelta(inside, sub, v.Spec.movesPerPass(), remapMigrationWeight)
	if err != nil {
		return moved, err
	}
	changed := map[string]bool{}
	for _, mv := range moves {
		changed[mv.Class] = true
	}
	for i, cl := range inside {
		if !changed[cl.ID] {
			continue
		}
		global, err := liftMapping(mappings[i], toGlobal, len(mappings[i]))
		if err != nil {
			return moved, err
		}
		if err := e.setMapping(cl.ID, global); err != nil {
			return moved, err
		}
	}
	return moved + len(moves), nil
}

// applyRegionRedeploy re-plans the whole portfolio inside the pinned
// regions — the region-pinned replacement for Fleet.Rebalance, which
// would otherwise spread placements fleet-wide. Classes are replanned
// in sorted order with accumulated background cycles so the sub-fleet
// valley-fills.
func (e *FleetExecutor) applyRegionRedeploy(v Versioned, c *Compiled) (int, error) {
	sub, toGlobal, err := e.regionSub(v)
	if err != nil {
		return 0, err
	}
	ids := e.Fleet.Workflows()
	sort.Strings(ids)
	cycles := make([]float64, sub.N())
	moved := 0
	for _, id := range ids {
		w, ok := e.Fleet.Workflow(id)
		if !ok {
			continue
		}
		old, _ := e.Fleet.Mapping(id)
		mp, err := e.regionPlan(w, sub, v, cycles)
		if err != nil {
			return moved, err
		}
		model := cost.NewModel(w, sub)
		for op, ls := range mp {
			cycles[ls] += model.NodeProb(op) * w.Nodes[op].Cycles
		}
		global, err := liftMapping(mp, toGlobal, w.M())
		if err != nil {
			return moved, err
		}
		delta := 0
		for op := range global {
			if op >= len(old) || old[op] != global[op] {
				delta++
			}
		}
		if delta == 0 {
			continue
		}
		if err := e.setMapping(id, global); err != nil {
			return moved, err
		}
		moved += delta
	}
	return moved, nil
}

// confineToRegions sweeps every class with operations outside the
// pinned regions back onto the region sub-network (the post-repair
// cleanup: MarkDown's emergency remap plans fleet-wide).
func (e *FleetExecutor) confineToRegions(v Versioned) (int, error) {
	sub, toGlobal, err := e.regionSub(v)
	if err != nil {
		return 0, err
	}
	toLocal := make(map[int]int, len(toGlobal))
	for li, gi := range toGlobal {
		toLocal[gi] = li
	}
	moved := 0
	for _, cl := range e.classes() {
		if _, ok := localizeMapping(cl.Mapping, toLocal); ok {
			continue
		}
		n, err := e.pullIntoRegion(cl, sub, toGlobal, v)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// pullIntoRegion re-plans one leaked class onto the sub-network and
// counts every relocated operation as a move.
func (e *FleetExecutor) pullIntoRegion(cl autopilot.Class, sub *network.Network, toGlobal []int, v Versioned) (int, error) {
	mp, err := e.regionPlan(cl.Workflow, sub, v, nil)
	if err != nil {
		return 0, err
	}
	global, err := liftMapping(mp, toGlobal, cl.Workflow.M())
	if err != nil {
		return 0, err
	}
	delta := 0
	for op := range global {
		if op >= len(cl.Mapping) || cl.Mapping[op] != global[op] {
			delta++
		}
	}
	if err := e.setMapping(cl.ID, global); err != nil {
		return 0, err
	}
	return delta, nil
}
