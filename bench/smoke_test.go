package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsdeploy/internal/engine"
	"wsdeploy/internal/httpapi"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// TestWorkloadsSmoke runs every workload for one second against the
// durable API handler in-process, with every output check on, then
// reopens the handler on the same data directory and demands back
// everything acknowledged.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*httptest.Server, func()) {
				reg, err := tenant.Open(tenant.Config{DataDir: dir, Store: store.Options{Sync: store.SyncAlways}})
				if err != nil {
					t.Fatal(err)
				}
				api, err := httpapi.NewHandlerWith(httpapi.Options{Tenants: reg})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(api)
				return srv, func() {
					srv.Close()
					api.Close()
					reg.Close()
				}
			}
			in, err := newInputs(1)
			if err != nil {
				t.Fatal(err)
			}
			cl, conns := newClient(2)
			defer cl.Transport.(*http.Transport).CloseIdleConnections()

			srv, closeSrv := open()
			s := newSession(in, srv.URL, cl, 1)
			if err := wl.loadFixture(ctx, s); err != nil {
				closeSrv()
				t.Fatalf("fixture: %v", err)
			}
			run := func(ctx context.Context, stream, seq int) error { return wl.streams[stream].run(ctx, s, seq) }
			rng := stats.NewRNG(1)
			warm := runOpen(ctx, schedule(rng, wl.rates(), time.Second/2), 2, run)
			hits0, misses0 := engine.M.CacheHits.Value(), engine.M.CacheMisses.Value()
			res := runOpen(ctx, schedule(rng, wl.rates(), time.Second), 2, run)
			res.samples = append(res.samples, warm.samples...)
			hits, misses := float64(engine.M.CacheHits.Value()-hits0), float64(engine.M.CacheMisses.Value()-misses0)
			closeSrv()
			cl.Transport.(*http.Transport).CloseIdleConnections()

			if len(res.samples) == 0 {
				t.Fatal("no operations ran")
			}
			for _, smp := range res.samples {
				if smp.err != nil {
					t.Errorf("stream %s: %v", wl.streams[smp.stream].name, smp.err)
				}
			}
			if wl.hits != nil {
				if err := wl.hits(hits, misses); err != nil {
					t.Error(err)
				}
			}
			if peak := conns.peakOpen(); peak > 2 {
				t.Errorf("client held %d connections, budget 2", peak)
			}

			srv, closeSrv = open()
			defer closeSrv()
			s.base = srv.URL
			if err := s.verifyDurable(ctx); err != nil {
				t.Errorf("after reopening: %v", err)
			}
		})
	}
}
