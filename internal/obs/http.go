package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// MetricsHandler serves the registry in the Prometheus text exposition
// format — mount it at /metrics. Each scrape first reads the Go
// runtime's go.heap_live_bytes, go.heap_goal_bytes and go.gc_cycles
// into the registry.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.readRuntime()
		r.WritePrometheus(w)
	})
}

// TraceHandler serves the flight recorder's retained spans as JSON —
// mount it at /debug/trace. The optional ?n= query bounds the response
// to the most recent n spans.
func TraceHandler(rec *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if rec == nil {
			_, _ = w.Write([]byte(`{"spans":[],"total":0}` + "\n"))
			return
		}
		spans := rec.Snapshot()
		if s := r.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"total": rec.Total(), "spans": spans})
	})
}
