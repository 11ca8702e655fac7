// Command wsdeployd runs the deployment planner as an HTTP service.
//
// Usage:
//
//	wsdeployd -addr :8080
//	wsdeployd -addr :8080 -data /var/lib/wsdeploy    # crash-safe durable state
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
// unchanged). A tenant created with a plans/sec quota (POST
// /v1/tenants) sheds over-quota requests with 429. Every tenant plans
// on one engine, and POST /v1/deploy and POST /v1/portfolio run
// through its one ingest pipeline (each plans on arrival, on its own
// request; see internal/ingest): -ingestqueue bounds the plans in
// flight (overflow sheds with 503 + Retry-After).
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
// per record, "interval" (default) syncs at most every 100 ms, "none"
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
// store recovery every -faultprobe (doubling the wait up to 16× while
// the disk stays sick) and restores full service once the journal
// reopens. -faultinject backs every tenant store with a disk-fault
// injector and exposes POST/GET /v1/debug/diskfault for chaos drills —
// never set it outside a drill.
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
	"runtime/debug"
	"syscall"
	"time"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/httpapi"
	"wsdeploy/internal/ingest"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// gcPercent is the daemon's GC target when GOGC is unset or empty. Its
// live heap is ~1.3 MB (the ledger, the flight recorder and the plan
// cache), under the runtime's 4 MiB heap-goal floor at the default of
// 100, so the goal sat at that floor and ~2 MiB of the resident set was
// headroom. At 50 the floor halves and the goal follows the live set:
// live plus half of live, stacks and globals, ~2.4 MB. A cached deploy
// allocates ~15 KB, so the extra GC cycles cost the hot path little.
const gcPercent = 50

// setGCTarget applies gcPercent unless GOGC names a target, which the
// runtime has already applied.
func setGCTarget() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
}

// probeDelay is the degraded-store probe's wait before its next probe:
// the base cadence after a healthy or successful probe, doubling with
// every failed probe up to 16× base.
func probeDelay(base time.Duration, attempt int) time.Duration {
	return base << min(attempt, 4)
}

// probeWait sleeps for probeDelay(base, attempt) and reports whether
// the probe should go on: false as soon as ctx is cancelled.
func probeWait(ctx context.Context, base time.Duration, attempt int) bool {
	t := time.NewTimer(probeDelay(base, attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// checkReconcileInterval refuses a reconcile cadence time.NewTicker
// would panic on.
func checkReconcileInterval(reconcileOn bool, every time.Duration) error {
	if reconcileOn && every <= 0 {
		return fmt.Errorf("-reconcileinterval must be positive with -reconcile, got %s", every)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown timeout for in-flight requests")
	traceFile := flag.String("tracefile", "", "append finished spans to this file as JSONL")
	dataDir := flag.String("data", "", "durable state directory, one namespace per tenant (empty: in-memory only)")
	fsyncMode := flag.String("fsync", "interval", "WAL fsync discipline with -data: always|interval|none")
	reconcileOn := flag.Bool("reconcile", false, "run the declarative reconciler loop (one pass per tenant per interval)")
	reconcileEvery := flag.Duration("reconcileinterval", 2*time.Second, "reconcile pass cadence with -reconcile")
	ingestQueue := flag.Int("ingestqueue", 0, "plans (deploys and portfolio races) in flight; overflow sheds with 503 (0: default 256)")
	faultInject := flag.Bool("faultinject", false, "back the tenant stores with a disk-fault injector and expose POST/GET /v1/debug/diskfault (chaos tooling only)")
	faultProbe := flag.Duration("faultprobe", 2*time.Second, "base cadence of the degraded-store recovery probe (backs off exponentially while the disk stays sick)")
	flag.Parse()
	if err := checkReconcileInterval(*reconcileOn, *reconcileEvery); err != nil {
		fmt.Fprintf(os.Stderr, "wsdeployd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	setGCTarget()

	var tcfg tenant.Config
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
	recovered := false
	if *dataDir != "" {
		for _, t := range reg.List() {
			st := t.Store().Status()
			recovered = recovered || st.SnapshotSeq > 0 || st.Replayed > 0
			fmt.Printf("wsdeployd: tenant %s: recovered snapshot seq %d + %d log records\n",
				t.Name(), st.SnapshotSeq, st.Replayed)
			if st.TornBytes > 0 {
				fmt.Printf("wsdeployd: tenant %s: truncated %d bytes of torn WAL tail (%s)\n",
					t.Name(), st.TornBytes, st.TornNote)
			}
		}
		fmt.Printf("wsdeployd: %d tenants (fsync %s, data %s)\n",
			len(reg.List()), *fsyncMode, *dataDir)
	}
	// The handler is constructed not-ready: /v1/readyz flips to 200 only
	// once recovery has replayed (NewHandlerWith returning is that
	// proof) and the reconciler loop, when enabled, is running.
	api, err := httpapi.NewHandlerWith(httpapi.Options{
		Tenants:       reg,
		HoldReady:     true,
		Ingest:        &ingest.Config{MaxQueue: *ingestQueue},
		FaultInjector: injector,
	})
	if err != nil {
		log.Fatalf("replaying recovered state: %v", err)
	}
	defer api.Close()
	if recovered {
		// Replay's garbage grew the heap well past the live state; give
		// those pages back once rather than keep them for the process's
		// life. A fresh data directory recovers nothing and skips this.
		debug.FreeOSMemory()
	}
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("open tracefile: %v", err)
		}
		defer f.Close()
		api.Tracer().AddExporter(obs.NewJSONLExporter(f))
	}

	// The API handler serves /metrics and /debug/trace itself; pprof
	// needs explicit registration because the api mux, not
	// http.DefaultServeMux, fronts the daemon.
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
		go func() {
			defer close(probeDone)
			attempt := 0
			for {
				if !probeWait(ctx, *faultProbe, attempt) {
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
						degraded, probeDelay(*faultProbe, attempt))
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
