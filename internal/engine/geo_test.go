package engine

import (
	"context"
	"strings"
	"testing"

	"wsdeploy/internal/core"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// geoPair returns a 3-region network and a three-pipeline workflow whose
// best deployments keep each chatty pipeline inside one region.
func geoPair(t *testing.T) (*workflow.Workflow, *network.Network) {
	t.Helper()
	n, err := network.NewRegions("geo3",
		[]network.RegionSpec{
			{Name: "eu", Powers: []float64{2e9, 1.5e9, 1e9}, SpeedBps: 1e9, PropDelay: 50e-6},
			{Name: "us", Powers: []float64{1.5e9, 2e9, 1e9}, SpeedBps: 1e9, PropDelay: 50e-6},
			{Name: "ap", Powers: []float64{1e9, 1.5e9, 2e9}, SpeedBps: 1e9, PropDelay: 50e-6},
		},
		[]network.WANLink{
			{A: "eu", B: "us", SpeedBps: 5e7, PropDelay: 30e-3},
			{A: "us", B: "ap", SpeedBps: 5e7, PropDelay: 40e-3},
			{A: "eu", B: "ap", SpeedBps: 5e7, PropDelay: 60e-3},
		})
	if err != nil {
		t.Fatal(err)
	}
	b := workflow.NewBuilder("tri")
	split := b.Split(workflow.AndSplit, "fan", 1e7)
	join := b.Join(workflow.AndSplit, "/fan", 1e7)
	for br := 0; br < 3; br++ {
		ids := make([]workflow.NodeID, 6)
		for i := range ids {
			ids[i] = b.Op("op", 1e9*float64(2+(br*5+i*3)%4))
		}
		for i := 0; i+1 < len(ids); i++ {
			b.Link(ids[i], ids[i+1], 4e6*float64(2+(br*3+i*2)%3))
		}
		b.Link(split, ids[0], 8e3)
		b.Link(ids[5], join, 8e3)
	}
	return b.MustBuild(), n
}

// TestPortfolioRacesGeoplace pins the engine integration of the geo
// family: the default portfolio (full registry) runs every geoplace
// variant, and on a strongly geo-distributed instance one of them wins
// the race.
func TestPortfolioRacesGeoplace(t *testing.T) {
	w, n := geoPair(t)
	e := New(Options{Parallelism: 4, CacheSize: -1})
	res, err := e.Run(context.Background(), Request{Workflow: w, Network: n, Seed: 2007})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != len(core.RegistryOrder()) {
		t.Fatalf("got %d plans, want the full registry (%d)", len(res.Plans), len(core.RegistryOrder()))
	}
	raced := 0
	for _, p := range res.Plans {
		if strings.HasPrefix(p.Key, "geoplace") {
			raced++
			if p.Err != "" {
				t.Fatalf("%s errored on a region-labelled network: %v", p.Key, p.Err)
			}
		}
	}
	if raced != 3 {
		t.Fatalf("raced %d geoplace variants, want 3", raced)
	}
	if res.Best == nil || !strings.HasPrefix(res.Best.Key, "geoplace") {
		t.Fatalf("winner = %+v, want a geoplace variant on this fixture", res.Best)
	}
	if err := res.Best.Mapping.Validate(w, n); err != nil {
		t.Fatal(err)
	}
}
