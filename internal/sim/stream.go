package sim

import (
	"fmt"
	"math"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// StreamConfig drives a continuous-execution simulation: workflow
// instances arrive as a Poisson process and *share* the deployed servers,
// so placement quality shows up as queueing delay and saturation — the
// "continuous execution of a workflow" setting the paper's related work
// ([SWMM05]) studies and its §2.1 example implies ("whenever additional
// workflows are deployed ... a reasonable load scale-up is still
// possible").
type StreamConfig struct {
	// ArrivalRate is the mean instance arrival rate in instances per
	// (virtual) second.
	ArrivalRate float64
	// Instances is the number of arrivals to simulate; zero means 500.
	Instances int
	// Seed drives arrivals and XOR choices.
	Seed uint64
}

// StreamResult aggregates a stream simulation.
type StreamResult struct {
	Instances   int
	Sojourn     stats.Summary // per-instance latency (arrival → sink), seconds
	Utilization []float64     // per-server busy fraction over the run
	Span        float64       // virtual time from first arrival to last completion
	Throughput  float64       // completed instances per virtual second
	BitsSent    float64       // total bits that crossed the network
}

// SimulateStream runs a Poisson arrival stream of workflow instances over
// one deployment, with all instances sharing the FIFO servers.
func SimulateStream(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, cfg StreamConfig) (*StreamResult, error) {
	if err := mp.Validate(w, n); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("sim: stream needs a positive arrival rate, got %v", cfg.ArrivalRate)
	}
	instances := cfg.Instances
	if instances <= 0 {
		instances = 500
	}
	r := stats.NewRNG(cfg.Seed)

	// Pre-draw arrivals (exponential inter-arrival times) and branches.
	execs := make([]execution, instances)
	t := 0.0
	for i := range execs {
		t += -math.Log(1-r.Float64()) / cfg.ArrivalRate
		execs[i] = newExecution(w, w.SampleExecution(r), t)
	}
	rr := RunResult{BusyTime: make([]float64, n.N())}
	sojourns := make([]float64, 0, instances)
	execute(w, n, mp, Config{}, execs, &rr, func(i int, done float64) {
		sojourns = append(sojourns, done-execs[i].arrival)
	})
	if len(sojourns) != instances {
		return nil, fmt.Errorf("sim: stream completed %d of %d instances", len(sojourns), instances)
	}

	span := rr.Makespan - execs[0].arrival
	res := &StreamResult{
		Instances:   instances,
		Sojourn:     stats.Summarize(sojourns),
		Utilization: make([]float64, n.N()),
		Span:        span,
		BitsSent:    rr.BitsSent,
	}
	if span > 0 {
		res.Throughput = float64(instances) / span
		for s, busy := range rr.BusyTime {
			res.Utilization[s] = busy / span
		}
	}
	return res, nil
}
