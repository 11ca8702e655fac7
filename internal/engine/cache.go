package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"

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
