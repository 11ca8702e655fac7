package wfio

import (
	"bytes"
	"crypto/sha256"
	"io"
	"unsafe"

	"wsdeploy/internal/lru"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/workflow"
)

// internBudget bounds the instance table by the heap its entries are
// estimated to retain. An 84-operation workflow holds about 13 KB and a
// 12-server bus about 14 KB, so the budget keeps a few dozen distinct
// instances. Both wsbench working sets fit: deploy-cached's four 80–86
// operation workflows on a 12-server bus need about 66 KB, and
// spec-churn's pool of 48 16-operation workflows on an 8-server bus
// about 130 KB.
const internBudget = 256 << 10

// internKey names one instance by what it decodes to and the SHA-256 of
// its raw JSON.
type internKey struct {
	network bool
	sum     [sha256.Size]byte
}

// internTable is a mutex-guarded LRU of decoded instances under a byte
// budget. It keeps neither raw bytes nor decode errors. An instance
// estimated larger than the whole budget is returned but never kept.
type internTable struct {
	cache *lru.Cache[internKey, any] // *workflow.Workflow or *network.Network

	hits, misses, evictions *obs.Counter
	kept                    *obs.Gauge
}

func newInternTable(budget int, reg *obs.Registry) *internTable {
	return &internTable{
		cache:     lru.New[internKey, any](budget),
		hits:      reg.Counter("wfio.intern_hits"),
		misses:    reg.Counter("wfio.intern_misses"),
		evictions: reg.Counter("wfio.intern_evictions"),
		kept:      reg.Gauge("wfio.intern_bytes"),
	}
}

// instances is the process-wide table behind Workflow and Network; it
// reports on the default obs registry, so /metrics shows whether a
// request decoded.
var instances = newInternTable(internBudget, obs.Default())

// Workflow returns the workflow DecodeWorkflow builds from raw, decoding
// each distinct raw JSON once. The result is shared with every caller
// that passes the same bytes, so callers must not mutate it.
func Workflow(raw []byte) (*workflow.Workflow, error) {
	return instances.workflow(raw)
}

// Network returns the network DecodeNetwork builds from raw, decoding
// each distinct raw JSON once. The result is shared with every caller
// that passes the same bytes, so callers must not mutate it.
func Network(raw []byte) (*network.Network, error) {
	return instances.network(raw)
}

func (t *internTable) workflow(raw []byte) (*workflow.Workflow, error) {
	return intern(t, internKey{sum: sha256.Sum256(raw)}, raw, DecodeWorkflow, workflowBytes)
}

func (t *internTable) network(raw []byte) (*network.Network, error) {
	return intern(t, internKey{network: true, sum: sha256.Sum256(raw)}, raw, DecodeNetwork, networkBytes)
}

// intern returns the kept instance for k, or decodes raw outside the
// lock and keeps the result. When two callers miss on the same bytes at
// once, both decode and the second returns the first one's instance, so
// equal bytes always yield the same pointer while it is kept. Under
// concurrent misses the gauge can lag the table until the next miss.
func intern[T any](t *internTable, k internKey, raw []byte, decode func(io.Reader) (T, error), size func(T) int) (T, error) {
	if v, ok := t.cache.Get(k); ok {
		t.hits.Inc()
		return v.(T), nil
	}
	t.misses.Inc()
	v, err := decode(bytes.NewReader(raw))
	if err != nil {
		return v, err
	}
	kept, evicted := t.cache.Add(k, v, size(v))
	t.evictions.Add(int64(evicted))
	t.kept.Set(float64(t.cache.Used()))
	return kept.(T), nil
}

// sliceHeader is the size of a slice header, the per-row cost of every
// [][]T adjacency and routing table.
const sliceHeader = int(unsafe.Sizeof([]int(nil)))

// workflowBytes estimates the heap a decoded workflow retains: its
// struct, nodes and edges, each node's out and in adjacency rows and
// topological slot, each edge's two adjacency entries, and the names.
func workflowBytes(w *workflow.Workflow) int {
	const (
		node = int(unsafe.Sizeof(workflow.Node{})) + 2*sliceHeader + 8
		edge = int(unsafe.Sizeof(workflow.Edge{})) + 2*8
	)
	size := int(unsafe.Sizeof(workflow.Workflow{})) + len(w.Name) + w.M()*node + len(w.Edges)*edge
	for _, nd := range w.Nodes {
		size += len(nd.Name)
	}
	return size
}

// networkBytes estimates the heap a decoded network retains: its
// struct, servers and links, the link adjacency, and the all-pairs
// routing tables, which grow with N²: per pair a transfer coefficient,
// a delay, a hop count, a path header and one entry per hop.
func networkBytes(n *network.Network) int {
	const (
		server = int(unsafe.Sizeof(network.Server{}))
		link   = int(unsafe.Sizeof(network.Link{})) + 2*8
		pair   = 3*8 + sliceHeader
	)
	N := n.N()
	size := int(unsafe.Sizeof(network.Network{})) + len(n.Name) +
		N*(server+5*sliceHeader) + len(n.Links)*link + N*N*pair
	for i, s := range n.Servers {
		size += len(s.Name) + len(s.Region)
		for j := 0; j < N; j++ {
			size += 8 * n.Hops(i, j)
		}
	}
	return size
}
