package manager

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// Snapshot serializes the manager's full state — network, workflows and
// live mappings — so a controller restart (or a standby replica) can
// resume exactly where it left off via Restore.
func (m *Manager) Snapshot() ([]byte, error) {
	var snap snapshot
	var nbuf bytes.Buffer
	if err := wfio.EncodeNetwork(&nbuf, m.net); err != nil {
		return nil, fmt.Errorf("manager: snapshotting network: %w", err)
	}
	snap.Network = nbuf.Bytes()
	snap.Down = m.DownServers()
	for _, id := range m.order {
		var wbuf bytes.Buffer
		if err := wfio.EncodeWorkflow(&wbuf, m.workflows[id]); err != nil {
			return nil, fmt.Errorf("manager: snapshotting workflow %q: %w", id, err)
		}
		snap.Workflows = append(snap.Workflows, snapshotWorkflow{
			ID:       id,
			Workflow: wbuf.Bytes(),
			Mapping:  m.mappings[id],
		})
	}
	return json.MarshalIndent(snap, "", "  ")
}

// Restore reconstructs a manager from a Snapshot. Every restored mapping
// is re-validated against the restored network.
func Restore(data []byte) (*Manager, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("manager: decoding snapshot: %w", err)
	}
	n, err := wfio.Network(snap.Network)
	if err != nil {
		return nil, fmt.Errorf("manager: restoring network: %w", err)
	}
	m := New(n)
	for _, s := range snap.Down {
		if s < 0 || s >= n.N() {
			return nil, fmt.Errorf("manager: snapshot marks non-existent server %d down", s)
		}
		m.down[s] = true
	}
	for _, sw := range snap.Workflows {
		w, err := wfio.Workflow(sw.Workflow)
		if err != nil {
			return nil, fmt.Errorf("manager: restoring workflow %q: %w", sw.ID, err)
		}
		mp := deploy.Mapping(sw.Mapping)
		if err := mp.Validate(w, n); err != nil {
			return nil, fmt.Errorf("manager: restoring workflow %q: %w", sw.ID, err)
		}
		if _, dup := m.workflows[sw.ID]; dup {
			return nil, fmt.Errorf("manager: snapshot has duplicate workflow id %q", sw.ID)
		}
		m.workflows[sw.ID] = w
		m.mappings[sw.ID] = mp
		m.order = append(m.order, sw.ID)
	}
	return m, nil
}

// snapshot is the JSON shape of a manager checkpoint.
type snapshot struct {
	Network   json.RawMessage    `json:"network"`
	Down      []int              `json:"down,omitempty"`
	Workflows []snapshotWorkflow `json:"workflows"`
}

type snapshotWorkflow struct {
	ID       string          `json:"id"`
	Workflow json.RawMessage `json:"workflow"`
	Mapping  []int           `json:"mapping"`
}

// Workflow returns the deployed workflow for an id (read-only; callers
// must not mutate it) and whether the id is known.
func (m *Manager) Workflow(id string) (*workflow.Workflow, bool) {
	w, ok := m.workflows[id]
	return w, ok
}
