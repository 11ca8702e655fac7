package reconcile

import (
	"encoding/json"
	"fmt"

	"wsdeploy/internal/core"
	"wsdeploy/internal/network"
	"wsdeploy/internal/wdl"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// Record types journaled through internal/store. A spec revision is
// journaled *before* it is acknowledged; an observed-generation advance
// is journaled *before* status reports it. The WAL's append order is
// therefore a causal order: at any truncation point the recovered
// ObservedGeneration can trail, but never exceed, the recovered
// Generation — the invariant the crash sweep proves byte by byte.
const (
	// RecSpecUpdate carries a SpecRecord: one acknowledged revision of a
	// named spec, with the generation it was assigned.
	RecSpecUpdate = "reconcile.spec"
	// RecSpecDelete carries a DeleteRecord: the spec was withdrawn.
	RecSpecDelete = "reconcile.spec_deleted"
	// RecObserved carries an ObservedRecord: a reconcile pass found no
	// structural diff for this generation and the status advanced.
	RecObserved = "reconcile.observed"
)

// WorkflowSpec names one workflow the spec wants deployed. The body
// arrives either as the wfio JSON schema or as WDL source — the same
// dual intake as POST /v1/deploy.
type WorkflowSpec struct {
	ID          string          `json:"id"`
	Workflow    json.RawMessage `json:"workflow,omitempty"`
	WorkflowWDL string          `json:"workflowWdl,omitempty"`
}

// Spec is the declarative desired state of one tenant deployment: the
// fleet, the workflow portfolio, SLO targets and placement hints. It
// is the unit of versioning — every accepted revision bumps the spec's
// generation.
type Spec struct {
	// Network is the desired fleet (wfio network schema). It is used to
	// create the fleet when none exists; an existing fleet's topology is
	// not rebuilt (servers join and fail through reconciliation, not
	// replacement).
	Network json.RawMessage `json:"network,omitempty"`
	// Workflows is the desired portfolio. The spec owns the fleet's
	// workflow set: ids missing from the fleet are deployed, deployed
	// ids missing from the spec are removed.
	Workflows []WorkflowSpec `json:"workflows"`
	// Algorithm optionally pins the placement algorithm used when a
	// workflow is first deployed (any core registry key). Empty uses the
	// manager's valley-filling GreedyPlace. With servers marked down the
	// hint is ignored for that pass — registry algorithms plan over the
	// full topology, GreedyPlace masks the down set.
	Algorithm string `json:"algorithm,omitempty"`
	// MinServers, when positive, is the smallest acceptable count of
	// *up* servers; reconciliation grows the fleet (at mean power) while
	// the live count is below it. At most network.MaxServers.
	MinServers int `json:"minServers,omitempty"`
	// MaxTimePenalty is the SLO target: when the observed Time Penalty
	// (measured, once a caller feeds traffic windows as the convergence
	// study does, else the fleet's current placement penalty) exceeds
	// it, the reconciler plans a bounded delta-remap — and escalates to
	// a full redeploy when a remap pass cannot improve. Zero disables
	// performance reconciliation.
	MaxTimePenalty float64 `json:"maxTimePenalty,omitempty"`
	// MaxMovesPerPass bounds the migrations one reconcile pass may
	// apply (the delta-remap budget). Default 4.
	MaxMovesPerPass int `json:"maxMovesPerPass,omitempty"`
	// Regions pins the deployment to named regions of a multi-region
	// fleet: deploys, remaps and redeploys plan only over the pinned
	// regions' live servers. Unknown regions are rejected — at Compile
	// when the spec carries its own network, otherwise when the first
	// action resolves them against the live fleet.
	Regions []string `json:"regions,omitempty"`
	// Paused stops reconciliation for this spec without deleting it:
	// the status keeps reporting lag, no actions fire.
	Paused bool `json:"paused,omitempty"`
}

// Compiled is a Spec with its payloads decoded: the desired network
// (nil when the spec has none) and the desired workflows by id, in
// spec order. JSON payloads decode through the wfio instance table, so
// the network and workflows may be shared with other callers and must
// not be mutated.
type Compiled struct {
	Network   *network.Network
	Order     []string
	Workflows map[string]*workflow.Workflow
}

// decodeWorkflow accepts either intake form, exactly one of them.
func (ws WorkflowSpec) decode() (*workflow.Workflow, error) {
	switch {
	case len(ws.Workflow) > 0 && ws.WorkflowWDL != "":
		return nil, fmt.Errorf("workflow %q: pass either workflow (JSON) or workflowWdl, not both", ws.ID)
	case len(ws.Workflow) > 0:
		return wfio.Workflow(ws.Workflow)
	case ws.WorkflowWDL != "":
		return wdl.Parse(ws.WorkflowWDL)
	default:
		return nil, fmt.Errorf("workflow %q: needs workflow (JSON) or workflowWdl", ws.ID)
	}
}

// Compile validates the spec and decodes every payload. It is the
// single validation gate: a spec that compiles is accepted and
// journaled; one that does not is rejected before any state changes.
func (s *Spec) Compile() (*Compiled, error) {
	c := &Compiled{Workflows: map[string]*workflow.Workflow{}}
	if len(s.Workflows) == 0 {
		return nil, fmt.Errorf("reconcile: spec needs at least one workflow")
	}
	if len(s.Network) > 0 {
		n, err := wfio.Network(s.Network)
		if err != nil {
			return nil, fmt.Errorf("reconcile: spec network: %w", err)
		}
		c.Network = n
	}
	if s.Algorithm != "" {
		if _, err := core.NewByName(s.Algorithm, 0); err != nil {
			return nil, fmt.Errorf("reconcile: spec algorithm: %w", err)
		}
	}
	if len(s.Regions) > 0 {
		seen := map[string]bool{}
		for _, r := range s.Regions {
			if r == "" {
				return nil, fmt.Errorf("reconcile: spec pins an empty region name")
			}
			if seen[r] {
				return nil, fmt.Errorf("reconcile: duplicate region %q", r)
			}
			seen[r] = true
		}
		if c.Network != nil {
			known := map[string]bool{}
			for _, r := range c.Network.Regions() {
				known[r] = true
			}
			for _, r := range s.Regions {
				if !known[r] {
					return nil, fmt.Errorf("reconcile: unknown region %q (network %q has regions %v)",
						r, c.Network.Name, c.Network.Regions())
				}
			}
		}
	}
	if s.MinServers < 0 {
		return nil, fmt.Errorf("reconcile: negative minServers %d", s.MinServers)
	}
	if s.MinServers > network.MaxServers {
		return nil, fmt.Errorf("reconcile: minServers %d exceeds the limit of %d", s.MinServers, network.MaxServers)
	}
	if s.MaxTimePenalty < 0 {
		return nil, fmt.Errorf("reconcile: negative maxTimePenalty %g", s.MaxTimePenalty)
	}
	for _, ws := range s.Workflows {
		if ws.ID == "" {
			return nil, fmt.Errorf("reconcile: spec workflow needs an id")
		}
		if _, dup := c.Workflows[ws.ID]; dup {
			return nil, fmt.Errorf("reconcile: duplicate workflow id %q", ws.ID)
		}
		w, err := ws.decode()
		if err != nil {
			return nil, fmt.Errorf("reconcile: %w", err)
		}
		c.Workflows[ws.ID] = w
		c.Order = append(c.Order, ws.ID)
	}
	return c, nil
}

// movesPerPass returns the spec's bounded action budget.
func (s *Spec) movesPerPass() int {
	if s.MaxMovesPerPass > 0 {
		return s.MaxMovesPerPass
	}
	return 4
}

// SpecRecord is the durable image of one acknowledged spec revision.
type SpecRecord struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Spec       Spec   `json:"spec"`
}

// DeleteRecord is the durable image of a spec withdrawal.
type DeleteRecord struct {
	Name string `json:"name"`
}

// ObservedRecord is the durable image of one observed-generation
// advance: reconciliation of Generation completed with no structural
// diff remaining.
type ObservedRecord struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
}

// IsSpecRecord reports whether a store record type belongs to the
// reconcile layer (the composite-replay dispatch reads it).
func IsSpecRecord(typ string) bool {
	switch typ {
	case RecSpecUpdate, RecSpecDelete, RecObserved:
		return true
	}
	return false
}
