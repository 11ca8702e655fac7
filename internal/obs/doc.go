// Package obs is the reproduction's zero-dependency observability
// subsystem: lightweight nested tracing, log-bucketed latency/size
// histograms, a process-wide metric registry with Prometheus-style text
// exposition, and a bounded flight recorder that retains the most
// recent spans for post-incident forensics.
//
// The paper's whole evaluation rests on knowing where time goes —
// execution cost per operation versus communication cost per message
// hop — so the instrumentation has to be cheap enough to leave on in
// the serving path:
//
//   - a nil *Tracer (tracing off) makes every call on it, and on the
//     nil *Span it returns, a no-op with zero allocations; the fabric's
//     send path is benchmarked at 0 allocs/op with tracing disabled
//     (BenchmarkObsDisabled in internal/fabric);
//   - Counter, Gauge and Histogram are lock-free atomics; Observe is a
//     handful of atomic operations and never allocates;
//   - the FlightRecorder is a fixed-size ring buffer; recording a span
//     overwrites the oldest slot and never grows.
//
// The pieces compose:
//
//	rec := obs.NewFlightRecorder(1024)
//	tr  := obs.NewTracer(rec, obs.NewJSONLExporter(file))
//	sp  := tr.StartSpan("engine.run")
//	child := sp.StartChild("engine.plan")
//	child.SetAttr("algo", "holm")
//	child.End() // delivered to the recorder and every exporter
//	sp.End()
//
//	reg := obs.Default()
//	reg.Counter("fabric.retries").Inc()
//	reg.Histogram("fabric.send_attempt_seconds").Observe(0.002)
//	http.Handle("/metrics", obs.MetricsHandler(reg))
//	http.Handle("/debug/trace", obs.TraceHandler(rec))
package obs
