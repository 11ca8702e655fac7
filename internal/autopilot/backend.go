package autopilot

import (
	"context"
	"fmt"
	"time"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/fabric"
	"wsdeploy/internal/network"
	"wsdeploy/internal/sim"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// Backend is the substrate a traffic run executes arrivals on: the
// discrete-event simulator or the wall-clock HTTP fabric. Deploy, Remap
// and Remove keep the substrate in step with the fleet's placements;
// Run executes one instance of a deployed class and returns per-server
// virtual busy seconds — the quantity the closed loops sum into windows.
// Both implementations report virtual time, so a seeded run is
// byte-identical on either. A Backend is single-use: its seeds advance
// per deployed class and per executed arrival, so only a fresh one
// reproduces a run.
type Backend interface {
	// Name is "sim" or "fabric".
	Name() string
	Deploy(id string, w *workflow.Workflow, n *network.Network, mp deploy.Mapping) error
	Remap(id string, mp deploy.Mapping) error
	Remove(id string) error
	Run(id string, w *workflow.Workflow, n *network.Network, mp deploy.Mapping) ([]float64, error)
	Close()
}

// SimBackend runs every arrival as one simulator run against the
// fleet's live mapping. The placement hooks are no-ops: each run reads
// the mapping fresh.
type SimBackend struct {
	rng  *stats.RNG
	seed uint64
}

// NewSimBackend returns a simulator backend; each executed arrival takes
// one Split of an RNG seeded with seed.
func NewSimBackend(seed uint64) *SimBackend {
	return &SimBackend{rng: stats.NewRNG(seed), seed: seed}
}

func (*SimBackend) Name() string { return "sim" }

func (*SimBackend) Deploy(string, *workflow.Workflow, *network.Network, deploy.Mapping) error {
	return nil
}

func (*SimBackend) Remap(string, deploy.Mapping) error { return nil }

func (*SimBackend) Remove(string) error { return nil }

func (b *SimBackend) Run(_ string, w *workflow.Workflow, n *network.Network, mp deploy.Mapping) ([]float64, error) {
	return sim.RunOnce(w, n, mp, b.rng.Split(), sim.Config{Seed: b.seed}).BusyTime, nil
}

func (*SimBackend) Close() {}

// FabricBackend runs every arrival as a real HTTP workflow instance on
// an emulated host fleet per deployed class. The k-th class deployed
// gets fabric seed seed + k·1e6. Instances run sequentially.
type FabricBackend struct {
	timeScale time.Duration
	seed      uint64
	deployed  uint64
	fabrics   map[string]*fabric.Fabric
}

// NewFabricBackend returns a fabric backend. timeScale is the wall time
// one virtual second of emulated busy-wait takes (e.g. 100µs keeps tests
// fast); every reported quantity stays virtual.
func NewFabricBackend(seed uint64, timeScale time.Duration) *FabricBackend {
	return &FabricBackend{timeScale: timeScale, seed: seed, fabrics: map[string]*fabric.Fabric{}}
}

func (*FabricBackend) Name() string { return "fabric" }

func (b *FabricBackend) Deploy(id string, w *workflow.Workflow, n *network.Network, mp deploy.Mapping) error {
	f, err := fabric.Deploy(w, n, mp, fabric.Config{
		TimeScale: b.timeScale,
		Seed:      b.seed + b.deployed*1e6,
	})
	if err != nil {
		return fmt.Errorf("autopilot: fabric for %s: %w", id, err)
	}
	b.deployed++
	if old, ok := b.fabrics[id]; ok {
		old.Close()
	}
	b.fabrics[id] = f
	return nil
}

// Remap routes every operation of class id to its server in mp. A class
// with no fabric (removed mid-pass) is not an error.
func (b *FabricBackend) Remap(id string, mp deploy.Mapping) error {
	f, ok := b.fabrics[id]
	if !ok {
		return nil
	}
	for op, s := range mp {
		if err := f.Remap(op, s); err != nil {
			return err
		}
	}
	return nil
}

func (b *FabricBackend) Remove(id string) error {
	if f, ok := b.fabrics[id]; ok {
		f.Close()
		delete(b.fabrics, id)
	}
	return nil
}

func (b *FabricBackend) Run(id string, _ *workflow.Workflow, _ *network.Network, _ deploy.Mapping) ([]float64, error) {
	f, ok := b.fabrics[id]
	if !ok {
		return nil, fmt.Errorf("autopilot: no fabric for class %s", id)
	}
	res, err := f.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Busy, nil
}

func (b *FabricBackend) Close() {
	for _, f := range b.fabrics {
		f.Close()
	}
}
