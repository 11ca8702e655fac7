package core

import (
	"context"
	"fmt"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/geo"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// GeoPlace is the partition-then-place planner family for multi-region
// networks (internal/geo): it cuts the workflow into one part per
// region with minimal cross-region traffic, deploys each part onto its
// region's local sub-network with the Inner planner, stitches the
// per-region sub-mappings into one global mapping, and keeps it only if
// it beats running Inner directly on the global network — so GeoPlace
// is never worse than its inner planner under the global objective.
//
// On networks without region labels (the paper's single-site
// configurations) it degenerates to the inner planner, which keeps it
// total over every registry configuration and safe to race in the
// portfolio engine.
type GeoPlace struct {
	// Inner places each region-local part; nil means FairLoad{}.
	Inner Algorithm
}

// Name implements Algorithm.
func (a GeoPlace) Name() string { return fmt.Sprintf("GeoPlace(%s)", a.inner().Name()) }

func (a GeoPlace) inner() Algorithm {
	if a.Inner == nil {
		return FairLoad{}
	}
	return a.Inner
}

// Deploy implements Algorithm.
func (a GeoPlace) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	return a.DeployContext(context.Background(), w, n)
}

// DeployContext implements ContextAlgorithm: the context is threaded
// into every inner per-region run (and the global fallback run), so a
// deadline interrupts the slowest stage while the stitched best-so-far
// result is still returned when possible.
func (a GeoPlace) DeployContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	if w.M() == 0 {
		return nil, fmt.Errorf("core: empty workflow")
	}
	regions := n.Regions()
	if len(regions) < 2 {
		// Single site: geo-partitioning is a no-op, run the inner
		// planner directly.
		return DeployContext(ctx, a.inner(), w, n)
	}

	assign, err := geo.PartitionWorkflow(w, n)
	if err != nil {
		return nil, fmt.Errorf("core: GeoPlace partition: %w", err)
	}

	parts := make([]deploy.Mapping, len(regions))
	toGlobal := make([][]int, len(regions))
	counts := make([]int, len(regions))
	for _, r := range assign {
		counts[r]++
	}
	for r, name := range regions {
		if counts[r] == 0 {
			continue // region owns no operations; nothing to place
		}
		sub, tg, err := geo.RegionSubnetwork(n, name)
		if err != nil {
			return nil, fmt.Errorf("core: GeoPlace: %w", err)
		}
		proj, err := geo.ProjectWorkflow(w, assign, r)
		if err != nil {
			return nil, fmt.Errorf("core: GeoPlace: %w", err)
		}
		mp, err := DeployContext(ctx, a.inner(), proj, sub)
		if err != nil {
			return nil, fmt.Errorf("core: GeoPlace inner %s on region %q: %w", a.inner().Name(), name, err)
		}
		parts[r] = mp
		toGlobal[r] = tg
	}
	stitched, err := geo.Stitch(assign, parts, toGlobal)
	if err != nil {
		return nil, fmt.Errorf("core: GeoPlace stitch: %w", err)
	}

	// Validate against the global objective: a partition can only help
	// when cross-region traffic dominates, so fall back to the inner
	// planner's global mapping whenever that one scores better.
	model := cost.NewModel(w, n)
	best := stitched
	if global, err := DeployContext(ctx, a.inner(), w, n); err == nil && global != nil {
		if model.Combined(global) < model.Combined(stitched) {
			best = global
		}
	}
	return validated(best, w, n, a.Name())
}
