package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"sync"

	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// cacheKey identifies one (workflow, network, algorithm, seed) planning
// problem by content: the hash covers every field the cost model and the
// algorithms read (node kinds and cycles, edge endpoints, sizes and
// weights, server powers, link endpoints, speeds and delays) and none of
// the display names, so re-submitting the same spec under a different
// name still hits.
type cacheKey [sha256.Size]byte

// planKey hashes one planning problem. Kinds and edges determine the
// execution probabilities, so hashing the raw structure suffices — no
// derived quantity can differ when the hashes match.
func planKey(w *workflow.Workflow, n *network.Network, algorithm string, seed uint64) cacheKey {
	h := sha256.New()
	var buf [8]byte
	writeU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeF := func(f float64) { writeU(math.Float64bits(f)) }

	io.WriteString(h, algorithm)
	h.Write([]byte{0})
	writeU(seed)

	writeU(uint64(w.M()))
	for _, nd := range w.Nodes {
		writeU(uint64(nd.Kind))
		writeF(nd.Cycles)
	}
	writeU(uint64(len(w.Edges)))
	for _, e := range w.Edges {
		writeU(uint64(e.From))
		writeU(uint64(e.To))
		writeF(e.SizeBits)
		writeF(e.Weight)
	}

	writeU(uint64(n.N()))
	for _, s := range n.Servers {
		writeF(s.PowerHz)
	}
	writeU(uint64(len(n.Links)))
	for _, l := range n.Links {
		writeU(uint64(l.A))
		writeU(uint64(l.B))
		writeF(l.SpeedBps)
		writeF(l.PropDelay)
	}

	var k cacheKey
	h.Sum(k[:0])
	return k
}

// planCache is a thread-safe LRU of completed plans — successes and
// deterministic failures (inapplicable algorithms) alike. Truncated
// best-so-far plans are never stored: they depend on the deadline that
// cut them, not just on the problem, so caching one would leak a
// request's time budget into another's answer.
type planCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheItem
	items    map[cacheKey]*list.Element
}

type cacheItem struct {
	key  cacheKey
	plan Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns a copy of the cached plan (mapping and loads cloned, so
// callers never alias cache state) and marks it most recently used.
func (c *planCache) get(k cacheKey) (Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return Plan{}, false
	}
	c.order.MoveToFront(el)
	p := el.Value.(*cacheItem).plan
	p.Mapping, p.Loads = p.Mapping.Clone(), append([]float64(nil), p.Loads...)
	return p, true
}

// put stores a plan, evicting the least recently used entry when full.
func (c *planCache) put(k cacheKey, p Plan) {
	p.Mapping, p.Loads = p.Mapping.Clone(), append([]float64(nil), p.Loads...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheItem).plan = p
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&cacheItem{key: k, plan: p})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
	}
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
