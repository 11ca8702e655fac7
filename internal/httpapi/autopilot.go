package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/wfio"
)

// Autopilot endpoints expose the closed-loop drift study as a service:
//
//	POST /v1/autopilot — run one seeded closed-loop study: workflow
//	                     classes + network + traffic shape, autopilot
//	                     on or off, sim or fabric backend; responds
//	                     with the per-window drift trace, the action
//	                     log, and the tail Time Penalty.
//	GET  /v1/autopilot — the normalized controller defaults, known
//	                     traffic shapes, and the last run's summary.
//
// Runs are synchronous and deterministic: the same request body yields
// byte-identical responses, so the endpoint doubles as a remote
// experiment runner.
//
// With a durable handler every run appends one "autopilot.run" record
// carrying the summary and the drift detector's final hysteresis
// state; after a restart GET still serves the last run, and a POST
// with "resume": true feeds the persisted detector state back in so a
// rebooted controller keeps its cooldowns instead of re-firing on
// drift it already acted on.

// autopilotState keeps one tenant's last run and persisted detector
// state.
type autopilotState struct {
	mu   sync.Mutex
	last json.RawMessage
	det  *autopilot.DetectorState
}

// registerAutopilot wires the autopilot endpoints onto the handler's mux.
func (h *Handler) registerAutopilot() {
	h.mux.HandleFunc("POST /v1/autopilot", h.admit(requireDurable(func(ts *tenantState, w http.ResponseWriter, r *http.Request) {
		ts.pilot.run(ts, w, r)
	})))
	h.mux.HandleFunc("GET /v1/autopilot", h.withTenant(func(ts *tenantState, w http.ResponseWriter, r *http.Request) {
		ts.pilot.get(w, r)
	}))
}

// autopilotRequest describes one closed-loop run.
type autopilotRequest struct {
	Network json.RawMessage `json:"network"`
	Classes []struct {
		ID          string          `json:"id"`
		Workflow    json.RawMessage `json:"workflow,omitempty"`
		WorkflowWDL string          `json:"workflowWdl,omitempty"`
	} `json:"classes"`
	Traffic struct {
		Rate      float64 `json:"rate,omitempty"`
		Shape     string  `json:"shape,omitempty"`
		Amplitude float64 `json:"amplitude,omitempty"`
		Period    float64 `json:"period,omitempty"`
		HotClass  int     `json:"hotClass,omitempty"`
		HotShare  float64 `json:"hotShare,omitempty"`
		Horizon   float64 `json:"horizon,omitempty"`
		Seed      uint64  `json:"seed,omitempty"`
	} `json:"traffic"`
	Pilot struct {
		Window          float64 `json:"window,omitempty"`
		MaxMoves        int     `json:"maxMoves,omitempty"`
		MigrationWeight float64 `json:"migrationWeight,omitempty"`
		Cooldown        float64 `json:"cooldown,omitempty"`
		ReArm           float64 `json:"rearm,omitempty"`
		EWMAAlpha       float64 `json:"ewmaAlpha,omitempty"`
		AllowScale      bool    `json:"allowScale,omitempty"`
	} `json:"pilot"`
	Enabled bool   `json:"enabled"`
	Seed    uint64 `json:"seed,omitempty"`
	// Resume restores the drift detector's persisted hysteresis state
	// from the last run (surviving daemon restarts when durable), so a
	// continued study does not re-fire on drift it already acted on.
	Resume bool `json:"resume,omitempty"`
	// Backend selects the substrate: "sim" (default) or "fabric".
	Backend string `json:"backend,omitempty"`
	// TimeScaleUs is the fabric's microseconds of wall time per virtual
	// second; default 200.
	TimeScaleUs int64 `json:"timeScaleUs,omitempty"`
}

// autopilotWindow is one observation window of the response.
type autopilotWindow struct {
	Time     float64 `json:"t"`
	Drift    float64 `json:"drift"`
	Penalty  float64 `json:"penalty"`
	Level    string  `json:"level,omitempty"`
	Moves    int     `json:"moves,omitempty"`
	Arrivals int     `json:"arrivals"`
}

// autopilotAction is one ladder firing of the response.
type autopilotAction struct {
	Time   float64 `json:"t"`
	Level  string  `json:"level"`
	Drift  float64 `json:"drift"`
	Moves  int     `json:"moves"`
	Scaled int     `json:"scaled,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// loopSummary converts a LoopResult into the response shape.
func loopSummary(res *autopilot.LoopResult, enabled bool, backend string) map[string]any {
	windows := make([]autopilotWindow, len(res.Windows))
	for i, w := range res.Windows {
		aw := autopilotWindow{
			Time: w.Time, Drift: w.Drift, Penalty: w.Penalty,
			Moves: w.Moves, Arrivals: w.Arrivals,
		}
		if w.Level != autopilot.LevelNone {
			aw.Level = w.Level.String()
		}
		windows[i] = aw
	}
	actions := make([]autopilotAction, len(res.Actions))
	for i, a := range res.Actions {
		actions[i] = autopilotAction{
			Time: a.Time, Level: a.Level.String(), Drift: a.Drift,
			Moves: a.Moves, Scaled: a.Scaled, Detail: a.Detail,
		}
	}
	return map[string]any{
		"enabled":     enabled,
		"backend":     backend,
		"arrivals":    res.Arrivals,
		"perClass":    res.PerClass,
		"windows":     windows,
		"actions":     actions,
		"migrations":  res.Migrations,
		"meanDrift":   res.MeanDrift,
		"tailDrift":   res.TailDrift,
		"meanPenalty": res.MeanPenalty,
		"tailPenalty": res.TailPenalty,
	}
}

func (st *autopilotState) run(ts *tenantState, w http.ResponseWriter, r *http.Request) {
	var req autopilotRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Network) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("autopilot run needs a network"))
		return
	}
	n, err := wfio.DecodeNetwork(bytes.NewReader(req.Network))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Classes) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("autopilot run needs at least one workflow class"))
		return
	}
	classes := make([]autopilot.ClassSpec, 0, len(req.Classes))
	for i, c := range req.Classes {
		if c.ID == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("class %d needs an id", i))
			return
		}
		wf, err := decodeWorkflowField(c.Workflow, c.WorkflowWDL)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("class %s: %w", c.ID, err))
			return
		}
		classes = append(classes, autopilot.ClassSpec{ID: c.ID, Workflow: wf})
	}

	shape := autopilot.Shape(req.Traffic.Shape)
	if req.Traffic.Shape != "" {
		if shape, err = autopilot.ParseShape(req.Traffic.Shape); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	lc := autopilot.LoopConfig{
		Traffic: autopilot.TrafficConfig{
			Rate:      req.Traffic.Rate,
			Shape:     shape,
			Amplitude: req.Traffic.Amplitude,
			Period:    req.Traffic.Period,
			HotClass:  req.Traffic.HotClass,
			HotShare:  req.Traffic.HotShare,
			Horizon:   req.Traffic.Horizon,
			Seed:      req.Traffic.Seed,
		},
		Pilot: autopilot.Config{
			Window: req.Pilot.Window,
			Detector: autopilot.DetectorConfig{
				Cooldown: req.Pilot.Cooldown,
				ReArm:    req.Pilot.ReArm,
			},
			MaxMoves:        req.Pilot.MaxMoves,
			MigrationWeight: req.Pilot.MigrationWeight,
			EWMAAlpha:       req.Pilot.EWMAAlpha,
			AllowScale:      req.Pilot.AllowScale,
			Tracer:          ts.h.tracer,
		},
		Enabled: req.Enabled,
	}
	if req.Resume {
		st.mu.Lock()
		if st.det != nil {
			det := *st.det
			lc.Resume = &det
		}
		st.mu.Unlock()
	}

	var b autopilot.Backend
	switch req.Backend {
	case "", "sim":
		b = autopilot.NewSimBackend(req.Seed)
	case "fabric":
		scale := time.Duration(req.TimeScaleUs) * time.Microsecond
		if scale <= 0 {
			scale = 200 * time.Microsecond
		}
		b = autopilot.NewFabricBackend(req.Seed, scale)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown backend %q (sim|fabric)", req.Backend))
		return
	}
	res, err := autopilot.Run(classes, n, lc, b)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	out := loopSummary(res, req.Enabled, b.Name())
	raw, err := json.Marshal(out)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	det := res.Detector
	ts.mutate(func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		if ts.store != nil {
			if _, err := ts.store.Append(recAutopilotRun, apRunRecord{Summary: raw, Detector: det}); err != nil {
				err = fmt.Errorf("autopilot run finished but %w: %v", manager.ErrJournal, err)
				writeErr(w, mutationStatus(err, http.StatusInternalServerError), err)
				return
			}
		}
		st.last = raw
		st.det = &det
		writeJSON(w, http.StatusOK, json.RawMessage(raw))
	})
}

func (st *autopilotState) get(w http.ResponseWriter, _ *http.Request) {
	cfg := autopilot.Config{}.WithDefaults()
	out := map[string]any{
		"shapes": []autopilot.Shape{autopilot.Steady, autopilot.Diurnal, autopilot.Skew},
		"defaults": map[string]any{
			"window":          cfg.Window,
			"maxMoves":        cfg.MaxMoves,
			"migrationWeight": cfg.MigrationWeight,
			"ewmaAlpha":       cfg.EWMAAlpha,
			"cooldown":        cfg.Detector.Cooldown,
			"rearm":           cfg.Detector.ReArm,
			"bands": map[string]any{
				"touchup":   cfg.Detector.TouchUp,
				"delta":     cfg.Detector.Delta,
				"rebalance": cfg.Detector.Rebalance,
			},
		},
	}
	st.mu.Lock()
	if st.last != nil {
		out["lastRun"] = st.last
	}
	if st.det != nil {
		out["detector"] = *st.det
	}
	st.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
