package workflow

// Structural analysis helpers: the quantities that distinguish the
// paper's bushy / lengthy / hybrid graph families (§4.2) beyond the raw
// decision ratio — depth and path counts — plus the total message
// volume.

// Depth returns the number of nodes on the longest source→sink path.
func (w *Workflow) Depth() int {
	depth := make([]int, len(w.Nodes))
	max := 0
	for _, u := range w.topo {
		depth[u] = 1
		for _, ei := range w.in[u] {
			if d := depth[w.Edges[ei].From] + 1; d > depth[u] {
				depth[u] = d
			}
		}
		if depth[u] > max {
			max = depth[u]
		}
	}
	return max
}

// PathCount returns the number of distinct source→sink paths. Counts can
// grow exponentially with nested blocks; the float64 return saturates
// gracefully instead of overflowing.
func (w *Workflow) PathCount() float64 {
	paths := make([]float64, len(w.Nodes))
	paths[w.source] = 1
	for _, u := range w.topo {
		for _, ei := range w.out[u] {
			paths[w.Edges[ei].To] += paths[u]
		}
	}
	return paths[w.sink]
}

// TotalMessageBits returns the sum of all message sizes.
func (w *Workflow) TotalMessageBits() float64 {
	var sum float64
	for _, e := range w.Edges {
		sum += e.SizeBits
	}
	return sum
}
