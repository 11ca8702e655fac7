// Command wsdeployd runs the deployment planner as an HTTP service.
//
// Usage:
//
//	wsdeployd -addr :8080
//	wsdeployd -addr :8080 -data /var/lib/wsdeploy    # crash-safe durable state
//	wsdeployd -addr :8080 -autopilot -traffic skew   # drift self-check at startup
//	wsdeployd -addr :8080 -reconcile                 # declarative reconciler loop
//
//	curl -s localhost:8080/v1/algorithms
//	curl -s -X POST localhost:8080/v1/deploy -d '{
//	  "workflow": {...wfio schema...},
//	  "network":  {...wfio schema...},
//	  "algorithm": "portfolio"
//	}'
//	curl -s localhost:8080/metrics       # Prometheus text exposition
//	curl -s localhost:8080/debug/trace   # recent spans (flight recorder)
//	curl -s localhost:8080/debug/vars    # engine metrics (expvar)
//	go tool pprof localhost:8080/debug/pprof/profile
//
// See internal/httpapi for the endpoint reference. With -tracefile,
// every finished span is additionally appended to the given file as
// JSONL. The daemon traps SIGINT/SIGTERM and drains in-flight plans
// before exiting.
//
// The daemon is multi-tenant: every stateful route is namespaced by
// the X-Tenant header or the /v1/tenants/{tenant}/... path prefix
// (neither means the "default" tenant, so single-tenant usage is
// unchanged). Tenants spread across -shards planner shards by
// consistent hashing; -maxshardqueue bounds each shard's in-flight
// admitted requests (overflow sheds with 503) and -planrate sets the
// default per-tenant plans/sec quota (over-quota sheds with 429).
// POST /v1/deploy additionally runs through a per-shard ingest
// pipeline (batched planning with canonical-key coalescing; see
// internal/ingest): -ingestqueue bounds the deploy queue (overflow
// sheds with 503 + Retry-After), -ingestbatch caps requests per flush,
// -ingestdelay trades latency for batch size, and -ingest=false
// restores request-at-a-time planning.
//
// With -data, every tenant's state mutations (fleet operations,
// acknowledged deployments, autopilot runs) are journaled to that
// tenant's own write-ahead log under -data/<tenant>/ before they are
// acknowledged; on boot the daemon replays each tenant's snapshot+log
// — truncating torn tails from a mid-write crash — and on graceful
// shutdown it folds every tenant's state into a snapshot so the next
// boot replays nothing. kill -9 at any point loses no acknowledged
// mutation in any tenant. A pre-tenancy data directory (WAL at the
// root) is migrated into the default tenant's namespace on first boot.
// -fsync picks the WAL fsync discipline: "always" survives power loss
// per record, "interval" (default) syncs roughly once a second, "none"
// leaves flushing to the OS — all three survive a process crash.
//
// With -reconcile, a background loop runs one reconcile pass per
// tenant every -reconcileinterval, converging each tenant's fleet onto
// its posted /v1/specs desired state. GET /v1/readyz answers 503 until
// durable recovery has replayed and the loop (when enabled) is
// running; probes should prefer it over state-coupled endpoints.
//
// When a tenant's journal fail-stops (EIO/failed fsync on its WAL) the
// tenant enters degraded read-only mode: reads, compute and status keep
// serving while durability-requiring mutations answer 503 + Retry-After
// and /v1/readyz names the degraded tenants. A background probe retries
// store recovery every -faultprobe (backing off while the disk stays
// sick) and restores full service once the journal reopens. -faultinject
// backs every tenant store with a disk-fault injector and exposes
// POST/GET /v1/debug/diskfault for chaos drills — never set it outside
// a drill.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/httpapi"
	"wsdeploy/internal/ingest"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// autopilotSelfCheck runs the built-in seeded drift study on the
// simulator — baseline vs closed loop — and logs the one-line summary.
// It exercises the whole control path (traffic generator, drift
// detector, bounded migration planning, fleet application) in well
// under a second, so a misbuilt controller fails the daemon fast
// instead of failing the first /v1/autopilot request.
func autopilotSelfCheck(shapeName string) error {
	shape, err := autopilot.ParseShape(shapeName)
	if err != nil {
		return err
	}
	classes, n, err := autopilot.DemoScenario()
	if err != nil {
		return err
	}
	lc := autopilot.LoopConfig{Traffic: autopilot.DemoTraffic(shape)}
	baseline, err := autopilot.Run(classes, n, lc, autopilot.NewSimBackend(7))
	if err != nil {
		return err
	}
	lc.Enabled = true
	res, err := autopilot.Run(classes, n, lc, autopilot.NewSimBackend(7))
	if err != nil {
		return err
	}
	fmt.Printf("autopilot self-check (%s traffic): tail time penalty %.4f disabled vs %.4f enabled; %d actions, %d migrations\n",
		shape, baseline.TailPenalty, res.TailPenalty, len(res.Actions), res.Migrations)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown timeout for in-flight requests")
	traceFile := flag.String("tracefile", "", "append finished spans to this file as JSONL")
	dataDir := flag.String("data", "", "durable state directory, one namespace per tenant (empty: in-memory only)")
	fsyncMode := flag.String("fsync", "interval", "WAL fsync discipline with -data: always|interval|none")
	shards := flag.Int("shards", tenant.DefaultShards, "planner shards tenants hash across")
	maxShardQueue := flag.Int("maxshardqueue", 0, "max in-flight admitted requests per planner shard (0: unbounded)")
	planRate := flag.Float64("planrate", 0, "default per-tenant plans/sec quota for tenants without an explicit one (0: unlimited)")
	autoCheck := flag.Bool("autopilot", false, "run the seeded closed-loop drift self-check before serving and log its summary")
	traffic := flag.String("traffic", "skew", "traffic shape for the -autopilot self-check: steady|diurnal|skew")
	reconcileOn := flag.Bool("reconcile", false, "run the declarative reconciler loop (one pass per tenant per interval)")
	reconcileEvery := flag.Duration("reconcileinterval", 2*time.Second, "reconcile pass cadence with -reconcile")
	ingestOn := flag.Bool("ingest", true, "batch POST /v1/deploy through the per-shard ingest pipeline (false: plan request-at-a-time)")
	ingestBatch := flag.Int("ingestbatch", 0, "max deploy requests per ingest flush (0: default 64)")
	ingestDelay := flag.Duration("ingestdelay", 0, "how long an ingest flush waits for more requests (0: flush immediately)")
	ingestQueue := flag.Int("ingestqueue", 0, "bounded deploy queue per shard; overflow sheds with 503 (0: default 256)")
	faultInject := flag.Bool("faultinject", false, "back the tenant stores with a disk-fault injector and expose POST/GET /v1/debug/diskfault (chaos tooling only)")
	faultProbe := flag.Duration("faultprobe", 2*time.Second, "base cadence of the degraded-store recovery probe (backs off exponentially while the disk stays sick)")
	flag.Parse()

	if *autoCheck {
		if err := autopilotSelfCheck(*traffic); err != nil {
			log.Fatalf("autopilot self-check: %v", err)
		}
	}

	tcfg := tenant.Config{
		Shards:        *shards,
		MaxShardQueue: *maxShardQueue,
		DefaultQuota:  tenant.Quota{PlansPerSec: *planRate},
	}
	var injector *faultfs.Injector
	if *dataDir != "" {
		mode, err := store.ParseSyncMode(*fsyncMode)
		if err != nil {
			log.Fatalf("-fsync: %v", err)
		}
		tcfg.DataDir = *dataDir
		tcfg.Store = store.Options{Sync: mode}
		if *faultInject {
			// One injector under every tenant store: the debug endpoint
			// arms faults against the live daemon's real I/O.
			injector = faultfs.NewInjector(nil)
			tcfg.Store.FS = injector
			fmt.Println("wsdeployd: DISK-FAULT INJECTION ENABLED — /v1/debug/diskfault is live")
		}
	}
	reg, err := tenant.Open(tcfg)
	if err != nil {
		log.Fatalf("opening tenant registry: %v", err)
	}
	defer reg.Close()
	if *dataDir != "" {
		for _, t := range reg.List() {
			rec := t.Recovery()
			if rec == nil {
				continue
			}
			fmt.Printf("wsdeployd: tenant %s: recovered snapshot seq %d + %d log records\n",
				t.Name(), rec.SnapshotSeq, len(rec.Records))
			if rec.TornBytes > 0 {
				fmt.Printf("wsdeployd: tenant %s: truncated %d bytes of torn WAL tail (%s)\n",
					t.Name(), rec.TornBytes, rec.TornNote)
			}
		}
		fmt.Printf("wsdeployd: %d tenants across %d planner shards (fsync %s, data %s)\n",
			len(reg.List()), reg.Shards(), *fsyncMode, *dataDir)
	}
	// The handler is constructed not-ready: /v1/readyz flips to 200 only
	// once recovery has replayed (NewHandlerWith returning is that
	// proof) and the reconciler loop, when enabled, is running.
	api, err := httpapi.NewHandlerWith(httpapi.Options{
		Tenants:   reg,
		HoldReady: true,
		Ingest: &ingest.Config{
			MaxBatch:   *ingestBatch,
			FlushDelay: *ingestDelay,
			MaxQueue:   *ingestQueue,
		},
		DisableIngest: !*ingestOn,
		FaultInjector: injector,
	})
	if err != nil {
		log.Fatalf("replaying recovered state: %v", err)
	}
	defer api.Close()
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("open tracefile: %v", err)
		}
		defer f.Close()
		api.Tracer().AddExporter(obs.NewJSONLExporter(f))
	}

	// The API handler serves /metrics, /debug/trace and /debug/vars
	// itself; pprof needs explicit registration because the api mux,
	// not http.DefaultServeMux, fronts the daemon.
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reconcileDone := make(chan struct{})
	if *reconcileOn {
		// One pass per tenant per tick, at virtual time = seconds since
		// boot (the reconciler only uses it to label incident reasons and
		// detector windows).
		start := time.Now()
		ticker := time.NewTicker(*reconcileEvery)
		go func() {
			defer close(reconcileDone)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					api.RunReconcilePass(time.Since(start).Seconds())
				}
			}
		}()
		fmt.Printf("wsdeployd: reconciler loop running (every %s)\n", *reconcileEvery)
	} else {
		close(reconcileDone)
	}
	// Degraded-store recovery probe: whenever any tenant's journal has
	// fail-stopped (disk fault mid-append), keep trying store.Reopen on a
	// backoff until the disk heals, then log the recovery. Healthy
	// periods cost one DegradedTenants scan per base interval.
	probeDone := make(chan struct{})
	if *dataDir != "" && *faultProbe > 0 {
		policy := chaos.RetryPolicy{BaseBackoff: *faultProbe, MaxBackoff: 16 * *faultProbe}
		go func() {
			defer close(probeDone)
			attempt := 0
			for {
				if !policy.Sleep(ctx, attempt) {
					return
				}
				if len(api.DegradedTenants()) == 0 {
					attempt = 0
					continue
				}
				recovered, degraded := api.ProbeDegraded()
				if len(recovered) > 0 {
					log.Printf("wsdeployd: recovered degraded tenants %v", recovered)
				}
				if len(degraded) > 0 {
					attempt++
					log.Printf("wsdeployd: tenants still degraded after probe: %v (next probe in %s)",
						degraded, policy.Backoff(attempt))
				} else {
					attempt = 0
				}
			}
		}()
	} else {
		close(probeDone)
	}
	api.SetReady(true)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("wsdeployd listening on %s\n", *addr)

	select {
	case err := <-errc:
		// The listener failed before any signal (e.g. the port is taken).
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	api.SetReady(false)
	<-reconcileDone
	<-probeDone

	fmt.Printf("wsdeployd shutting down (draining up to %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// With the listener drained, fold the final state into a snapshot so
	// the next boot replays nothing. A failure here is not fatal: the
	// WAL already holds every mutation.
	if err := api.SnapshotNow(); err != nil {
		log.Printf("final state snapshot: %v", err)
	} else if *dataDir != "" {
		fmt.Println("wsdeployd: state snapshot written")
	}
	fmt.Println("wsdeployd stopped")
}
