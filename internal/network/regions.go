package network

import "fmt"

// Multi-region fabrics: several per-region server clusters (each a bus,
// line or star of its own) joined by WAN links with high propagation
// delay and lower line speed. The paper's model needs no extension for
// this — a WAN link is just a Link with a large PropDelay — but the
// region labels let partition-aware planners (internal/geo) reason about
// which server pairs are separated by a wide-area crossing.

// RegionTopology selects the intra-region fabric of one region.
type RegionTopology int

// Region fabric kinds.
const (
	RegionBus RegionTopology = iota // all intra-region pairs at equal cost
	RegionLine
	RegionStar // server 0 of the region is the hub
)

// String returns the fabric name.
func (t RegionTopology) String() string {
	switch t {
	case RegionLine:
		return "line"
	case RegionStar:
		return "star"
	default:
		return "bus"
	}
}

// RegionSpec describes one region of a multi-region network.
type RegionSpec struct {
	// Name labels the region ("eu-west", "us-east", ...). Must be
	// non-empty and unique across the spec.
	Name string
	// Powers are the CPU ratings of the region's servers.
	Powers []float64
	// Topology is the intra-region fabric; the zero value is a bus.
	Topology RegionTopology
	// SpeedBps and PropDelay describe every intra-region link.
	SpeedBps  float64
	PropDelay float64
}

// WANLink joins the gateways of two regions (server 0 of each region in
// declaration order). WAN links typically carry a propagation delay one
// or two orders of magnitude above the intra-region links and a lower
// line speed.
type WANLink struct {
	A, B      string // region names
	SpeedBps  float64
	PropDelay float64
}

// NewRegions composes a multi-region network: each region becomes a
// local bus/line/star over its servers, and every WAN link joins the
// first server (the gateway) of its two regions. Server names are
// prefixed with the region ("eu-west/S1") and carry the region label, so
// the resulting network is a General topology that all existing routing
// and cost code handles unchanged.
func NewRegions(name string, regions []RegionSpec, wan []WANLink) (*Network, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("network %q: no regions", name)
	}
	var servers []Server
	var links []Link
	gateway := map[string]int{}
	for _, r := range regions {
		if r.Name == "" {
			return nil, fmt.Errorf("network %q: region with empty name", name)
		}
		if _, dup := gateway[r.Name]; dup {
			return nil, fmt.Errorf("network %q: duplicate region %q", name, r.Name)
		}
		if len(r.Powers) == 0 {
			return nil, fmt.Errorf("network %q: region %q has no servers", name, r.Name)
		}
		base := len(servers)
		gateway[r.Name] = base
		for i, p := range r.Powers {
			servers = append(servers, Server{
				Name:    fmt.Sprintf("%s/S%d", r.Name, i+1),
				PowerHz: p,
				Region:  r.Name,
			})
		}
		switch r.Topology {
		case RegionLine:
			for i := 0; i+1 < len(r.Powers); i++ {
				links = append(links, Link{A: base + i, B: base + i + 1, SpeedBps: r.SpeedBps, PropDelay: r.PropDelay})
			}
		case RegionStar:
			for i := 1; i < len(r.Powers); i++ {
				links = append(links, Link{A: base, B: base + i, SpeedBps: r.SpeedBps, PropDelay: r.PropDelay})
			}
		default: // RegionBus
			for i := 0; i < len(r.Powers); i++ {
				for j := i + 1; j < len(r.Powers); j++ {
					links = append(links, Link{A: base + i, B: base + j, SpeedBps: r.SpeedBps, PropDelay: r.PropDelay})
				}
			}
		}
	}
	for i, l := range wan {
		ga, okA := gateway[l.A]
		gb, okB := gateway[l.B]
		if !okA || !okB {
			return nil, fmt.Errorf("network %q: WAN link %d joins unknown region (%q-%q)", name, i, l.A, l.B)
		}
		if l.A == l.B {
			return nil, fmt.Errorf("network %q: WAN link %d joins region %q to itself", name, i, l.A)
		}
		links = append(links, Link{A: ga, B: gb, SpeedBps: l.SpeedBps, PropDelay: l.PropDelay})
	}
	return New(name, servers, links)
}

// Regions returns the distinct region labels in first-appearance order.
// Single-site networks (no labels) return nil; servers without a label
// on a labelled network are grouped under "".
func (n *Network) Regions() []string {
	var names []string
	seen := map[string]bool{}
	labelled := false
	for _, s := range n.Servers {
		if s.Region != "" {
			labelled = true
		}
		if !seen[s.Region] {
			seen[s.Region] = true
			names = append(names, s.Region)
		}
	}
	if !labelled {
		return nil
	}
	return names
}

// RegionOf returns the region label of server s (empty for unlabelled
// servers).
func (n *Network) RegionOf(s int) string { return n.Servers[s].Region }

// RegionServers returns the indices of the servers in the named region,
// in server order.
func (n *Network) RegionServers(region string) []int {
	var out []int
	for i, s := range n.Servers {
		if s.Region == region {
			out = append(out, i)
		}
	}
	return out
}

// IsWAN reports whether link li joins servers of two different regions.
// On unlabelled networks every link is local.
func (n *Network) IsWAN(li int) bool {
	l := n.Links[li]
	return n.Servers[l.A].Region != n.Servers[l.B].Region
}

// WANCrossings returns how many WAN links lie on the routed path from
// server i to server j (0 when i == j or both servers share a region and
// routing stays local).
func (n *Network) WANCrossings(i, j int) int {
	if i == j {
		return 0
	}
	c := 0
	for _, li := range n.pathLink[i][j] {
		if n.IsWAN(li) {
			c++
		}
	}
	return c
}
