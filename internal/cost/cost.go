// Package cost implements the paper's cost model (Table 1): processing
// time, communication time, per-server load, the fairness "time penalty",
// the workflow execution time, and the equally weighted combination of the
// two metrics the algorithms optimize.
//
// The source text of Table 1 is OCR-garbled; the formulas below are
// reconstructed from the paper's prose and units:
//
//	Tproc(op)        = C(op) / P(Server(op))
//	Tcomm(op_i,op_j) = Σ_{l ∈ Path} ( MsgSize(op_i,op_j)/Speed(l) + Prop(l) ),
//	                   0 when both ends share a server
//	Load(s)          = Σ_{op → s} prob(op) · Tproc(op)
//	TimePenalty      = Σ_s |Load(s) − avgLoad| / 2,  avgLoad = Σ Load / N
//	Texecute         = Σ_op prob(op)·Tproc(op) + Σ_e prob(e)·Tcomm(e)
//	Combined         = wT·Texecute + wF·TimePenalty   (wT = wF = 0.5)
//
// On linear workflows every probability is 1, recovering the paper's
// single-execution formulas; on random graphs the probabilities amortise
// the cost over many executions exactly as §3.4 prescribes. The division
// by two in the time penalty counts each unit of imbalance once (time
// above the average on one server is mirrored by time below it
// elsewhere); in a fair deployment every server dedicates the same time
// to the workflow and the penalty is zero.
package cost

import (
	"fmt"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// DefaultTimeWeight and DefaultFairWeight reproduce the paper's "equally
// weighted sum of the execution time and load distribution". Combined
// and Evaluate weigh with them.
const (
	DefaultTimeWeight = 0.5
	DefaultFairWeight = 0.5
)

// Model evaluates mappings of one workflow onto one network. It caches the
// workflow's execution probabilities; construct a new Model per
// (workflow, network) pair. A Model is safe for concurrent use after
// construction.
type Model struct {
	W *workflow.Workflow
	N *network.Network

	nodeProb []float64
	edgeProb []float64
}

// NewModel builds a cost model for one workflow on one network.
func NewModel(w *workflow.Workflow, n *network.Network) *Model {
	m := &Model{W: w, N: n}
	m.nodeProb, m.edgeProb = w.Probabilities()
	return m
}

// NodeProb returns the cached execution probability of operation op.
func (m *Model) NodeProb(op int) float64 { return m.nodeProb[op] }

// EdgeProb returns the cached execution probability of edge e.
func (m *Model) EdgeProb(e int) float64 { return m.edgeProb[e] }

// Tproc returns the processing time of operation op on server s:
// C(op)/P(s).
func (m *Model) Tproc(op, s int) float64 {
	return m.W.Nodes[op].Cycles / m.N.Servers[s].PowerHz
}

// Tcomm returns the communication time of edge e under mp: the routed
// transfer time of the message, or 0 when both operations share a server.
func (m *Model) Tcomm(e int, mp deploy.Mapping) float64 {
	edge := m.W.Edges[e]
	return m.N.TransferTime(mp[edge.From], mp[edge.To], edge.SizeBits)
}

// walk is the one pass every metric shares: operations first, adding
// each prob(op)·Tproc(op) to its server's entry of loads (which must
// hold N zeros) and to the execution time, then edges, adding each
// prob(e)·Tcomm(e) to the execution and communication times. Every term
// is added as acc += p*x in this order, so each sum is the same bit for
// bit whichever metric asks for it. Unassigned operations, and edges
// touching one, contribute nothing.
func (m *Model) walk(mp deploy.Mapping, loads []float64) (exec, comm float64) {
	for op, s := range mp {
		if s == deploy.Unassigned {
			continue
		}
		t := m.Tproc(op, s)
		loads[s] += m.nodeProb[op] * t
		exec += m.nodeProb[op] * t
	}
	for e, edge := range m.W.Edges {
		from, to := mp[edge.From], mp[edge.To]
		if from == deploy.Unassigned || to == deploy.Unassigned {
			continue
		}
		t := m.N.TransferTime(from, to, edge.SizeBits)
		exec += m.edgeProb[e] * t
		comm += m.edgeProb[e] * t
	}
	return exec, comm
}

// scoreBufServers is how many servers Score keeps its loads for on the
// stack; larger networks allocate them.
const scoreBufServers = 32

// Score returns the execution time and the time penalty of mp, the two
// terms of the combined cost, equal bit for bit to Evaluate's. It
// allocates nothing on networks of up to 32 servers, which makes it the
// evaluator for search loops that score many candidates.
func (m *Model) Score(mp deploy.Mapping) (exec, penalty float64) {
	var buf [scoreBufServers]float64
	var loads []float64
	if n := m.N.N(); n <= len(buf) {
		loads = buf[:n]
	} else {
		loads = make([]float64, n)
	}
	exec, _ = m.walk(mp, loads)
	return exec, PenaltyOfLoads(loads)
}

// Loads returns the probability-weighted load (in seconds) of every
// server under mp: Load(s) = Σ_{op→s} prob(op)·C(op)/P(s). Unassigned
// operations contribute nothing.
func (m *Model) Loads(mp deploy.Mapping) []float64 {
	loads := make([]float64, m.N.N())
	m.walk(mp, loads)
	return loads
}

// TimePenalty returns the fairness penalty of mp: half the total absolute
// deviation of server loads from the average load.
func (m *Model) TimePenalty(mp deploy.Mapping) float64 {
	_, pen := m.Score(mp)
	return pen
}

// PenaltyOfLoads computes the time penalty directly from a load vector.
func PenaltyOfLoads(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	for _, l := range loads {
		sum += l
	}
	avg := sum / float64(len(loads))
	var dev float64
	for _, l := range loads {
		d := l - avg
		if d < 0 {
			d = -d
		}
		dev += d
	}
	return dev / 2
}

// ExecutionTime returns the probability-amortised execution time of the
// workflow under mp: Σ prob(op)·Tproc(op) + Σ prob(e)·Tcomm(e). On a
// linear workflow this is exactly the paper's Texecute for a single
// execution.
func (m *Model) ExecutionTime(mp deploy.Mapping) float64 {
	exec, _ := m.Score(mp)
	return exec
}

// BitsOnNetwork returns the probability-amortised number of bits that
// cross the network under mp — the quantity the paper's gain functions
// minimize ("how many bytes will not be put on the bus").
func (m *Model) BitsOnNetwork(mp deploy.Mapping) float64 {
	var bits float64
	for e, edge := range m.W.Edges {
		from, to := mp[edge.From], mp[edge.To]
		if from == deploy.Unassigned || to == deploy.Unassigned || from == to {
			continue
		}
		bits += m.edgeProb[e] * edge.SizeBits
	}
	return bits
}

// Combined returns the weighted objective the algorithms minimize. Like
// Score, it allocates nothing on networks of up to 32 servers.
func (m *Model) Combined(mp deploy.Mapping) float64 {
	exec, pen := m.Score(mp)
	return DefaultTimeWeight*exec + DefaultFairWeight*pen
}

// Result bundles every metric of one evaluated mapping.
type Result struct {
	ExecTime    float64   // Texecute in seconds
	TimePenalty float64   // fairness penalty in seconds
	Combined    float64   // weighted objective
	CommTime    float64   // communication component of ExecTime
	Loads       []float64 // per-server load in seconds
}

// Evaluate computes all metrics of mp in one pass.
func (m *Model) Evaluate(mp deploy.Mapping) Result {
	loads := make([]float64, m.N.N())
	exec, comm := m.walk(mp, loads)
	pen := PenaltyOfLoads(loads)
	return Result{
		ExecTime:    exec,
		TimePenalty: pen,
		Combined:    DefaultTimeWeight*exec + DefaultFairWeight*pen,
		CommTime:    comm,
		Loads:       loads,
	}
}

// IdealCycles returns the paper's Ideal_Cycles(s) for every server: the
// share of the workflow's total (probability-weighted) cycles that server
// s should host for the load to be proportional to its power:
// Sum_Cycles · P(s) / Sum_Capacity.
func (m *Model) IdealCycles() []float64 {
	var sumCycles float64
	for op, nd := range m.W.Nodes {
		sumCycles += m.nodeProb[op] * nd.Cycles
	}
	total := m.N.TotalPower()
	ideal := make([]float64, m.N.N())
	for s := range ideal {
		ideal[s] = sumCycles * m.N.Servers[s].PowerHz / total
	}
	return ideal
}

// String describes the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("exec=%.6fs penalty=%.6fs combined=%.6fs", r.ExecTime, r.TimePenalty, r.Combined)
}
