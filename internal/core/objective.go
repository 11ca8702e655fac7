package core

import (
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
)

// Objective selects what the search-based algorithms (LocalSearch,
// Anneal) minimize. The paper's algorithms all target the combined
// serial-time/fairness objective; the §6 future work ("the response time
// of individual operations can also be considered as part of the cost
// model") motivates optimizing the expected end-to-end makespan instead
// — parallel branches overlap, so the two objectives prefer different
// mappings on graph workflows.
type Objective int

// Objectives.
const (
	// MinimizeCombined targets the paper's weighted Texecute + TimePenalty.
	MinimizeCombined Objective = iota
	// MinimizeMakespan targets the expected critical-path completion time
	// plus the fairness penalty (same weights), the §6 extension.
	MinimizeMakespan
)

// String names the objective.
func (o Objective) String() string {
	if o == MinimizeMakespan {
		return "makespan"
	}
	return "combined"
}

// valueOf evaluates a mapping under the objective.
func (o Objective) valueOf(m *cost.Model, mp deploy.Mapping) float64 {
	if o == MinimizeMakespan {
		return cost.DefaultTimeWeight*m.MakespanEstimate(mp) + cost.DefaultFairWeight*m.TimePenalty(mp)
	}
	return m.Combined(mp)
}
