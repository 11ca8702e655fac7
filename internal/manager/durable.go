package manager

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// Fleet mutations journal through the Locked wrapper as typed WAL
// records; ApplyRecord is the replay side. Replay re-invokes the same
// mutation on the same state, and every placement computation in the
// manager is a deterministic pure function, so a replayed log
// reconstructs the pre-crash state byte-for-byte (the daemon's
// byte-offset crash sweep in internal/httpapi holds this as an
// invariant). The one exception is Deploy, whose record carries the
// mapping the placement produced: replay adopts it verbatim, both to
// skip replanning and to pin the committed result even if a future
// algorithm change alters what GreedyPlace would pick today.

// Fleet record types, as they appear in the WAL.
const (
	RecFleetCreate  = "fleet.create"     // {network}: reset to a fresh fleet
	RecFleetRestore = "fleet.restore"    // {snapshot}: reset from a full snapshot
	RecDeploy       = "fleet.deploy"     // {id, workflow, mapping}
	RecAdopt        = "fleet.adopt"      // {id, workflow, mapping}
	RecSetMapping   = "fleet.setmapping" // {id, mapping}
	RecRemove       = "fleet.remove"     // {id}
	RecServerUp     = "fleet.serverup"   // {name, powerHz}
	RecServerDown   = "fleet.serverdown" // {index}
	RecMarkDown     = "fleet.markdown"   // {index}
	RecMarkUp       = "fleet.markup"     // {index}
	RecRebalance    = "fleet.rebalance"  // {} — replay re-runs the deterministic rebalance
)

// IsFleetRecord reports whether a WAL record type belongs to the fleet
// domain (other domains — the deployment ledger, the autopilot — share
// the same log).
func IsFleetRecord(typ string) bool {
	switch typ {
	case RecFleetCreate, RecFleetRestore, RecDeploy, RecAdopt, RecSetMapping,
		RecRemove, RecServerUp, RecServerDown, RecMarkDown, RecMarkUp, RecRebalance:
		return true
	}
	return false
}

// ErrJournal marks a mutation whose journal append failed. A Locked
// mutation has already applied in memory, so the fleet is ahead of the
// log. The HTTP layer answers it with 503: the store is sick, not the
// request. A failed write or fsync fail-stops the store, so the tenant
// serves reads but rejects mutations (degraded read-only mode) until
// the daemon's recovery probe reopens the journal and snapshots the
// live state.
var ErrJournal = errors.New("journal write failed")

// Record payload shapes. Workflows and networks travel as their wfio
// JSON encodings, the same schema snapshots use.
type (
	recFleetCreate struct {
		Network json.RawMessage `json:"network"`
	}
	recFleetRestore struct {
		Snapshot json.RawMessage `json:"snapshot"`
	}
	recDeploy struct {
		ID       string          `json:"id"`
		Workflow json.RawMessage `json:"workflow"`
		Mapping  []int           `json:"mapping"`
	}
	recSetMapping struct {
		ID      string `json:"id"`
		Mapping []int  `json:"mapping"`
	}
	recID struct {
		ID string `json:"id"`
	}
	recServerUp struct {
		Name    string  `json:"name"`
		PowerHz float64 `json:"powerHz"`
	}
	recIndex struct {
		Index int `json:"index"`
	}
)

// encodeWorkflowJSON serializes a workflow for a journal record.
func encodeWorkflowJSON(w *workflow.Workflow) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := wfio.EncodeWorkflow(&buf, w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CreateRecord builds the fleet.create payload for a fresh fleet over
// net — the handler journals it when PUT /v1/fleet resets the fleet.
func CreateRecord(l *Locked) (any, error) {
	var buf bytes.Buffer
	if err := wfio.EncodeNetwork(&buf, l.Network()); err != nil {
		return nil, fmt.Errorf("manager: encoding fleet.create network: %w", err)
	}
	return recFleetCreate{Network: buf.Bytes()}, nil
}

// RestoreRecord builds the fleet.restore payload from a snapshot blob.
func RestoreRecord(snapshot []byte) any {
	return recFleetRestore{Snapshot: snapshot}
}

// ApplyRecord replays one fleet record onto m. It returns the manager
// to continue with — a new one for fleet.create / fleet.restore, m
// otherwise. A nil m is only legal for those two genesis types; any
// other record without a fleet means the log's head was lost.
func ApplyRecord(m *Manager, typ string, data []byte) (*Manager, error) {
	fail := func(err error) (*Manager, error) {
		return nil, fmt.Errorf("manager: replaying %s: %w", typ, err)
	}
	if m == nil && typ != RecFleetCreate && typ != RecFleetRestore {
		return fail(fmt.Errorf("no fleet exists yet"))
	}
	switch typ {
	case RecFleetCreate:
		var p recFleetCreate
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		n, err := wfio.Network(p.Network)
		if err != nil {
			return fail(err)
		}
		return New(n), nil
	case RecFleetRestore:
		var p recFleetRestore
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		m2, err := Restore(p.Snapshot)
		if err != nil {
			return fail(err)
		}
		return m2, nil
	case RecDeploy, RecAdopt:
		var p recDeploy
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		w, err := wfio.Workflow(p.Workflow)
		if err != nil {
			return fail(err)
		}
		if err := m.Adopt(p.ID, w, deploy.Mapping(p.Mapping)); err != nil {
			return fail(err)
		}
	case RecSetMapping:
		var p recSetMapping
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		if err := m.SetMapping(p.ID, deploy.Mapping(p.Mapping)); err != nil {
			return fail(err)
		}
	case RecRemove:
		var p recID
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		if err := m.Remove(p.ID); err != nil {
			return fail(err)
		}
	case RecServerUp:
		var p recServerUp
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		if _, err := m.ServerUp(p.Name, p.PowerHz); err != nil {
			return fail(err)
		}
	case RecServerDown:
		var p recIndex
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		if _, err := m.ServerDown(p.Index); err != nil {
			return fail(err)
		}
	case RecMarkDown:
		var p recIndex
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		if _, err := m.MarkDown(p.Index); err != nil {
			return fail(err)
		}
	case RecMarkUp:
		var p recIndex
		if err := json.Unmarshal(data, &p); err != nil {
			return fail(err)
		}
		if err := m.MarkUp(p.Index); err != nil {
			return fail(err)
		}
	case RecRebalance:
		if _, err := m.Rebalance(); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown fleet record type"))
	}
	return m, nil
}
