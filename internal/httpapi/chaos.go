package httpapi

import (
	"fmt"
	"net/http"

	"wsdeploy/internal/chaos"
	"wsdeploy/internal/deploy"
)

// POST /v1/chaos — run a chaos study on the simulator: a deployment is
// executed for a number of episodes under a fault plan (given
// explicitly, or generated from a crash rate) and the response reports
// availability, makespan inflation and the first episode's incident
// log.

// chaosRequest describes one chaos study.
type chaosRequest struct {
	pairSpec
	Mapping []int `json:"mapping"`
	// Plan is an explicit fault plan (the chaos JSON schema). When
	// absent, a plan is generated per episode from Rate and Horizon.
	Plan *chaos.Plan `json:"plan,omitempty"`
	// Rate is the per-server crash rate (crashes per virtual second)
	// for generated plans.
	Rate float64 `json:"rate,omitempty"`
	// Horizon is the generated plans' virtual-seconds span; zero means
	// twice the deployment's fault-free makespan.
	Horizon float64 `json:"horizon,omitempty"`
	// Episodes is the number of executions (default 20, at most
	// maxChaosEpisodes).
	Episodes int    `json:"episodes,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// SelfHeal runs the supervisor (default true).
	SelfHeal *bool `json:"selfHeal,omitempty"`
}

func (h *Handler) chaos(w http.ResponseWriter, r *http.Request) {
	var req chaosRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Episodes > maxChaosEpisodes {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("episodes %d exceeds the limit of %d", req.Episodes, maxChaosEpisodes))
		return
	}
	wf, n, err := req.build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mp := deploy.Mapping(req.Mapping)
	if req.Plan == nil && req.Rate <= 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("request needs a plan or a positive rate"))
		return
	}
	episodes := req.Episodes
	if episodes <= 0 {
		episodes = 20
	}
	heal := req.SelfHeal == nil || *req.SelfHeal

	base, err := chaos.RunSim(wf, n, mp, &chaos.Plan{}, chaos.RunConfig{Seed: req.Seed, Tracer: h.tracer})
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	horizon := req.Horizon
	if horizon <= 0 {
		horizon = 2 * base.Run.Makespan
	}

	var (
		completed     int
		makespanSum   float64
		lostOps       int
		lostMessages  int
		firstLog      []chaos.Incident
		firstMapping  deploy.Mapping
		incidentCount int
	)
	for ep := 0; ep < episodes; ep++ {
		plan := req.Plan
		if plan == nil {
			plan = chaos.Generate(chaos.GenerateConfig{
				Servers: n.N(),
				Horizon: horizon,
				Rate:    req.Rate,
				Seed:    req.Seed + uint64(ep)*0x9e3779b97f4a7c15,
			})
		}
		out, err := chaos.RunSim(wf, n, mp, plan, chaos.RunConfig{
			Seed:     req.Seed + uint64(ep),
			SelfHeal: heal,
			Tracer:   h.tracer,
		})
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		if out.Run.Completed {
			completed++
			makespanSum += out.Run.Makespan
		}
		lostOps += out.Run.LostOps
		lostMessages += out.Run.LostMessages
		incidentCount += out.Log.Len()
		if ep == 0 {
			firstLog = out.Log.Incidents()
			firstMapping = out.FinalMapping
		}
	}
	resp := map[string]any{
		"episodes":         episodes,
		"selfHeal":         heal,
		"availability":     float64(completed) / float64(episodes),
		"baselineMakespan": base.Run.Makespan,
		"lostOps":          lostOps,
		"lostMessages":     lostMessages,
		"incidents":        incidentCount,
		"firstIncidents":   firstLog,
		"firstFinalMap":    firstMapping,
	}
	if completed > 0 {
		mean := makespanSum / float64(completed)
		resp["meanMakespan"] = mean
		if base.Run.Makespan > 0 {
			resp["makespanInflation"] = mean / base.Run.Makespan
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
