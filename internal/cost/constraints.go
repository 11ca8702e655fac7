package cost

import (
	"fmt"

	"wsdeploy/internal/deploy"
)

// Constraints expresses the user constraints C of the paper's broadest
// problem variant (§2.2): "an upper bound on the completion time of a
// workflow or on the distribution of load among the servers". The paper
// defers their detailed study to future work; we implement them as a
// post-hoc admission check plus a helper that filters candidate mappings.
//
// A zero value for any field means "unconstrained".
type Constraints struct {
	MaxExecTime    float64 // upper bound on Texecute, seconds
	MaxTimePenalty float64 // upper bound on the fairness penalty, seconds
	MaxServerLoad  float64 // upper bound on any single server's load, seconds
	// MaxMakespan bounds the expected end-to-end completion time
	// (MakespanEstimate) — the §6 "response time" extension.
	MaxMakespan float64
}

// Unconstrained reports whether no bound is set.
func (c Constraints) Unconstrained() bool {
	return c.MaxExecTime == 0 && c.MaxTimePenalty == 0 && c.MaxServerLoad == 0 && c.MaxMakespan == 0
}

// Violation describes a constraint breach.
type Violation struct {
	Constraint string
	Limit      float64
	Actual     float64
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("constraint %s violated: %.6g exceeds limit %.6g", v.Constraint, v.Actual, v.Limit)
}

// Check evaluates mp against the constraints and returns the first
// violation, or nil when all bounds hold.
func (c Constraints) Check(m *Model, mp deploy.Mapping) error {
	if c.Unconstrained() {
		return nil
	}
	res := m.Evaluate(mp)
	if c.MaxExecTime > 0 && res.ExecTime > c.MaxExecTime {
		return &Violation{Constraint: "MaxExecTime", Limit: c.MaxExecTime, Actual: res.ExecTime}
	}
	if c.MaxTimePenalty > 0 && res.TimePenalty > c.MaxTimePenalty {
		return &Violation{Constraint: "MaxTimePenalty", Limit: c.MaxTimePenalty, Actual: res.TimePenalty}
	}
	if c.MaxServerLoad > 0 {
		for s, l := range res.Loads {
			if l > c.MaxServerLoad {
				return &Violation{
					Constraint: fmt.Sprintf("MaxServerLoad(S%d)", s+1),
					Limit:      c.MaxServerLoad,
					Actual:     l,
				}
			}
		}
	}
	if c.MaxMakespan > 0 {
		if ms := m.MakespanEstimate(mp); ms > c.MaxMakespan {
			return &Violation{Constraint: "MaxMakespan", Limit: c.MaxMakespan, Actual: ms}
		}
	}
	return nil
}
