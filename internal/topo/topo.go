// Package topo models the Cray Aries Dragonfly topology used by the paper
// "Mitigating Network Noise on Dragonfly Networks through Application-Aware
// Routing" (De Sensi et al., SC'19).
//
// The Aries interconnect is organized in three connectivity tiers: groups,
// chassis and blades. Each group contains ChassisPerGroup chassis, each
// chassis contains BladesPerChassis blades, and each blade holds one Aries
// router plus NodesPerBlade compute nodes. Within a group a router is directly
// connected to every other router in the same chassis (intra-chassis links)
// and to the routers in the same blade position of every other chassis
// (intra-group, "row" links). Groups are connected by optical global links
// attached to individual routers.
//
// The package provides construction of the topology graph, node-to-router
// mapping, allocation-distance classification, and sampling of minimal and
// non-minimal (Valiant-style) paths used by the routing package.
package topo

import (
	"fmt"
)

// RouterID identifies an Aries router (one per blade).
type RouterID int32

// NodeID identifies a compute node.
type NodeID int32

// GroupID identifies a Dragonfly group.
type GroupID int32

// LinkID indexes a directed router-to-router link in Topology.Links.
type LinkID int32

// InvalidLink is returned by lookups when no link connects two routers.
const InvalidLink LinkID = -1

// LinkType classifies a link by its tier; the network model assigns different
// propagation latencies and widths per type.
type LinkType uint8

const (
	// LinkIntraChassis connects two routers in the same chassis (backplane).
	LinkIntraChassis LinkType = iota
	// LinkIntraGroup connects two routers in the same blade position of two
	// chassis of the same group (electrical cable).
	LinkIntraGroup
	// LinkGlobal connects routers in two different groups (optical cable).
	LinkGlobal
)

// String returns a human-readable link type name.
func (t LinkType) String() string {
	switch t {
	case LinkIntraChassis:
		return "intra-chassis"
	case LinkIntraGroup:
		return "intra-group"
	case LinkGlobal:
		return "global"
	default:
		return fmt.Sprintf("LinkType(%d)", uint8(t))
	}
}

// Coord locates a router inside the machine.
type Coord struct {
	Group   int
	Chassis int
	Blade   int
}

// String formats the coordinate as g<group>c<chassis>b<blade>.
func (c Coord) String() string {
	return fmt.Sprintf("g%dc%db%d", c.Group, c.Chassis, c.Blade)
}

// Link is a directed connection between two routers. Parallel physical tiles
// between the same pair of routers are collapsed into a single Link with a
// Width equal to the number of tiles; the network model scales bandwidth by
// Width.
type Link struct {
	ID    LinkID
	Src   RouterID
	Dst   RouterID
	Type  LinkType
	Width int
}

// Config describes the size and wiring of a Dragonfly system.
type Config struct {
	// Groups is the number of Dragonfly groups (>= 1).
	Groups int
	// ChassisPerGroup is the number of chassis in a group (6 on Aries).
	ChassisPerGroup int
	// BladesPerChassis is the number of blades (routers) per chassis (16 on Aries).
	BladesPerChassis int
	// NodesPerBlade is the number of compute nodes attached to each router (4 on Aries).
	NodesPerBlade int
	// GlobalLinksPerRouter is the number of optical ports per router used for
	// inter-group connections (up to 10 on Aries).
	GlobalLinksPerRouter int
	// IntraGroupLinkWidth is the number of tiles per intra-group (row) connection (3 on Aries).
	IntraGroupLinkWidth int
	// IntraChassisLinkWidth is the number of tiles per intra-chassis connection (1 on Aries).
	IntraChassisLinkWidth int
	// GlobalLinkWidth is the number of tiles aggregated per inter-group connection.
	GlobalLinkWidth int
}

// AriesConfig returns a full-size Aries group geometry (6 chassis x 16 blades
// x 4 nodes) with the requested number of groups.
func AriesConfig(groups int) Config {
	return Config{
		Groups:                groups,
		ChassisPerGroup:       6,
		BladesPerChassis:      16,
		NodesPerBlade:         4,
		GlobalLinksPerRouter:  10,
		IntraGroupLinkWidth:   3,
		IntraChassisLinkWidth: 1,
		GlobalLinkWidth:       2,
	}
}

// PizDaintLikeConfig returns a geometry sized like the Piz Daint allocation
// used in the paper's Figure 8 (six groups of full Aries geometry, enough for
// a 1024-node job spread over 257 routers).
func PizDaintLikeConfig() Config { return AriesConfig(6) }

// CoriLikeConfig returns a geometry sized like the Cori allocation used in the
// paper's Figure 9 (five groups, 64-node job over 33 routers).
func CoriLikeConfig() Config { return AriesConfig(5) }

// SmallConfig returns a reduced geometry convenient for unit tests: g groups,
// 2 chassis per group, 4 blades per chassis, 2 nodes per blade.
func SmallConfig(groups int) Config {
	return Config{
		Groups:                groups,
		ChassisPerGroup:       2,
		BladesPerChassis:      4,
		NodesPerBlade:         2,
		GlobalLinksPerRouter:  2,
		IntraGroupLinkWidth:   3,
		IntraChassisLinkWidth: 1,
		GlobalLinkWidth:       2,
	}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	switch {
	case c.Groups < 1:
		return fmt.Errorf("topo: Groups must be >= 1, got %d", c.Groups)
	case c.ChassisPerGroup < 1:
		return fmt.Errorf("topo: ChassisPerGroup must be >= 1, got %d", c.ChassisPerGroup)
	case c.BladesPerChassis < 1:
		return fmt.Errorf("topo: BladesPerChassis must be >= 1, got %d", c.BladesPerChassis)
	case c.NodesPerBlade < 1:
		return fmt.Errorf("topo: NodesPerBlade must be >= 1, got %d", c.NodesPerBlade)
	case c.Groups > 1 && c.GlobalLinksPerRouter < 1:
		return fmt.Errorf("topo: GlobalLinksPerRouter must be >= 1 when Groups > 1")
	case c.IntraChassisLinkWidth < 1 || c.IntraGroupLinkWidth < 1 || c.GlobalLinkWidth < 1:
		return fmt.Errorf("topo: link widths must be >= 1")
	}
	if c.Groups > 1 {
		ports := c.RoutersPerGroup() * c.GlobalLinksPerRouter
		if ports < c.Groups-1 {
			return fmt.Errorf("topo: %d global ports per group cannot reach %d other groups",
				ports, c.Groups-1)
		}
	}
	return nil
}

// LinkWidth returns the width (tiles) of every link of the given tier.
func (c Config) LinkWidth(typ LinkType) int {
	switch typ {
	case LinkIntraChassis:
		return c.IntraChassisLinkWidth
	case LinkIntraGroup:
		return c.IntraGroupLinkWidth
	default:
		return c.GlobalLinkWidth
	}
}

// RoutersPerGroup returns the number of routers in one group.
func (c Config) RoutersPerGroup() int { return c.ChassisPerGroup * c.BladesPerChassis }

// Routers returns the total number of routers in the system.
func (c Config) Routers() int { return c.Groups * c.RoutersPerGroup() }

// Nodes returns the total number of compute nodes in the system.
func (c Config) Nodes() int { return c.Routers() * c.NodesPerBlade }

// Topology is the constructed Dragonfly graph.
type Topology struct {
	cfg Config

	coords []Coord // router -> coordinate
	links  []Link

	// Adjacency in CSR (compressed sparse row) form: router r's outgoing
	// links occupy adjDst/adjLink[adjOff[r]:adjOff[r+1]], sorted by
	// destination router. Router degree on a Dragonfly is small and bounded
	// (blades-1 + chassis-1 + global ports), so LinkBetween is a short binary
	// search over one cache line or two, while the memory cost is O(links) —
	// a dense |R|×|R| matrix at machine scale (thousands of routers) would
	// dwarf the link state itself. Path construction does not search it: it
	// reads the local and global tables below.
	adjOff  []int32
	adjDst  []RouterID
	adjLink []LinkID

	// revLink maps each link to the link in the opposite direction (or
	// InvalidLink). The fabric walks the reverse path once per packet chunk;
	// precomputing it removes every adjacency lookup from that loop.
	revLink []LinkID

	// localTable serves every intra-group hop. buildLocalLinks wires each
	// group identically and group-major, so the link from router ls to router
	// ld of group g (indices within the group) is
	// g*localPerGroup + localTable[ls*RoutersPerGroup+ld], or no link when the
	// entry is negative. One table of RoutersPerGroup² entries stands for
	// every group (36 KiB on full Aries groups).
	localTable    []int32
	localPerGroup int32

	// GlobalLinks(g1, g2) is globalLinks[globalOff[k]:globalOff[k+1]] with
	// k = g1*Groups+g2: the links from a router of g1 to a router of g2, in
	// link order.
	globalOff   []int32
	globalLinks []LinkID

	// viaGroups[(gs*Groups)+gd] lists the intermediate groups usable for a
	// Valiant detour between gs and gd (connected to both, excluding the
	// endpoints). Precomputed so per-packet non-minimal sampling performs no
	// connectivity scan and no allocation.
	viaGroups [][]GroupID
}

// New builds the topology described by cfg.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		cfg:    cfg,
		coords: make([]Coord, cfg.Routers()),
	}
	for r := 0; r < cfg.Routers(); r++ {
		t.coords[r] = t.coordOf(RouterID(r))
	}
	t.buildLocalLinks()
	t.buildGlobalLinks()
	t.buildPathCaches()
	return t, nil
}

// buildPathCaches derives the lookup structures (CSR adjacency, reverse
// links, the local and global path tables, Valiant intermediate-group
// candidates) from the link graph.
func (t *Topology) buildPathCaches() {
	n := t.cfg.Routers()
	// CSR: count degrees, prefix-sum into row offsets, fill, then sort each
	// row by destination so LinkBetween can binary-search it.
	t.adjOff = make([]int32, n+1)
	for _, l := range t.links {
		t.adjOff[int(l.Src)+1]++
	}
	for r := 0; r < n; r++ {
		t.adjOff[r+1] += t.adjOff[r]
	}
	t.adjDst = make([]RouterID, len(t.links))
	t.adjLink = make([]LinkID, len(t.links))
	fill := make([]int32, n)
	for _, l := range t.links {
		at := t.adjOff[l.Src] + fill[l.Src]
		fill[l.Src]++
		t.adjDst[at] = l.Dst
		t.adjLink[at] = l.ID
	}
	for r := 0; r < n; r++ {
		lo, hi := t.adjOff[r], t.adjOff[r+1]
		// Insertion sort: rows are short (bounded by the router degree) and
		// nearly sorted already, since local links are wired in dst order.
		for i := lo + 1; i < hi; i++ {
			d, id := t.adjDst[i], t.adjLink[i]
			j := i
			for j > lo && t.adjDst[j-1] > d {
				t.adjDst[j], t.adjLink[j] = t.adjDst[j-1], t.adjLink[j-1]
				j--
			}
			t.adjDst[j], t.adjLink[j] = d, id
		}
	}
	t.revLink = make([]LinkID, len(t.links))
	for i, l := range t.links {
		t.revLink[i] = t.LinkBetween(l.Dst, l.Src)
	}
	t.buildLocalTable()
	t.buildGlobalTable()
	t.viaGroups = make([][]GroupID, t.cfg.Groups*t.cfg.Groups)
	for gs := 0; gs < t.cfg.Groups; gs++ {
		for gd := 0; gd < t.cfg.Groups; gd++ {
			var candidates []GroupID
			for g := 0; g < t.cfg.Groups; g++ {
				gi := GroupID(g)
				if g == gs || g == gd {
					continue
				}
				if len(t.GlobalLinks(GroupID(gs), gi)) > 0 && len(t.GlobalLinks(gi, GroupID(gd))) > 0 {
					candidates = append(candidates, gi)
				}
			}
			t.viaGroups[gs*t.cfg.Groups+gd] = candidates
		}
	}
}

// MustNew is like New but panics on configuration errors. It is intended for
// tests and examples with known-good configurations.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

// NumRouters returns the number of routers.
func (t *Topology) NumRouters() int { return len(t.coords) }

// NumNodes returns the number of compute nodes.
func (t *Topology) NumNodes() int { return t.cfg.Nodes() }

// NumLinks returns the number of directed router-to-router links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Links returns the slice of all links. The caller must not modify it.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// coordOf converts a router index to its coordinate.
func (t *Topology) coordOf(r RouterID) Coord {
	perGroup := t.cfg.RoutersPerGroup()
	g := int(r) / perGroup
	rest := int(r) % perGroup
	return Coord{
		Group:   g,
		Chassis: rest / t.cfg.BladesPerChassis,
		Blade:   rest % t.cfg.BladesPerChassis,
	}
}

// RouterAt returns the router at the given coordinate.
func (t *Topology) RouterAt(c Coord) RouterID {
	return RouterID(c.Group*t.cfg.RoutersPerGroup() +
		c.Chassis*t.cfg.BladesPerChassis + c.Blade)
}

// CoordOf returns the coordinate of router r.
func (t *Topology) CoordOf(r RouterID) Coord { return t.coords[r] }

// GroupOf returns the group of router r.
func (t *Topology) GroupOf(r RouterID) GroupID { return GroupID(t.coords[r].Group) }

// RouterOfNode returns the router (blade) a node is attached to.
func (t *Topology) RouterOfNode(n NodeID) RouterID {
	return RouterID(int(n) / t.cfg.NodesPerBlade)
}

// NodesOfRouter returns the node ids attached to router r.
func (t *Topology) NodesOfRouter(r RouterID) []NodeID {
	out := make([]NodeID, t.cfg.NodesPerBlade)
	base := int(r) * t.cfg.NodesPerBlade
	for i := range out {
		out[i] = NodeID(base + i)
	}
	return out
}

// GroupOfNode returns the group a node belongs to.
func (t *Topology) GroupOfNode(n NodeID) GroupID { return t.GroupOf(t.RouterOfNode(n)) }

// LinkBetween returns the link from src to dst, or InvalidLink if the two
// routers are not directly connected. It binary-searches the router's CSR
// adjacency row; rows are degree-bounded, so that is a handful of compares.
func (t *Topology) LinkBetween(src, dst RouterID) LinkID {
	lo, hi := t.adjOff[src], t.adjOff[src+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if t.adjDst[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.adjOff[src+1] && t.adjDst[lo] == dst {
		return t.adjLink[lo]
	}
	return InvalidLink
}

// Degree returns the number of outgoing links of router r.
func (t *Topology) Degree(r RouterID) int {
	return int(t.adjOff[r+1] - t.adjOff[r])
}

// ReverseLink returns the link running opposite to id (Dst -> Src), or
// InvalidLink when the reverse direction is not wired. It is a precomputed
// table: the fabric's response-path walk does one indexed load per hop
// instead of an adjacency lookup.
func (t *Topology) ReverseLink(id LinkID) LinkID { return t.revLink[id] }

// Neighbors returns the routers directly connected to r, in ascending router
// order (the CSR row order).
func (t *Topology) Neighbors(r RouterID) []RouterID {
	return append([]RouterID(nil), t.adjDst[t.adjOff[r]:t.adjOff[r+1]]...)
}

// AdjacencyBytes reports the memory held by the adjacency structures: the
// CSR arrays and the reverse-link table. It is the observable the
// machine-scale tooling (cmd/topoinfo, EXPERIMENTS.md's memory-budget table)
// tracks: O(links), where a dense matrix would be O(routers²).
func (t *Topology) AdjacencyBytes() int {
	return len(t.adjOff)*4 + len(t.adjDst)*4 + len(t.adjLink)*4 + len(t.revLink)*4
}

// GlobalLinks returns the links connecting group g1 directly to group g2, in
// link order. The caller must not modify the result.
func (t *Topology) GlobalLinks(g1, g2 GroupID) []LinkID {
	k := int(g1)*t.cfg.Groups + int(g2)
	lo, hi := t.globalOff[k], t.globalOff[k+1]
	return t.globalLinks[lo:hi:hi]
}

// localLink returns the link from src to dst, two routers of group g, or
// InvalidLink when they are not directly connected. It reads the shared
// per-group table, never the CSR rows.
func (t *Topology) localLink(g int, src, dst RouterID) LinkID {
	perGroup := t.cfg.RoutersPerGroup()
	base := g * perGroup
	e := t.localTable[(int(src)-base)*perGroup+int(dst)-base]
	if e < 0 {
		return InvalidLink
	}
	return LinkID(int32(g)*t.localPerGroup + e)
}

// buildLocalTable fills the shared intra-group table from group 0's links,
// which buildLocalLinks wires first, like every other group's.
func (t *Topology) buildLocalTable() {
	perGroup := t.cfg.RoutersPerGroup()
	t.localTable = make([]int32, perGroup*perGroup)
	for i := range t.localTable {
		t.localTable[i] = -1
	}
	for _, l := range t.links {
		if l.Type == LinkGlobal || t.coords[l.Src].Group != 0 {
			break // local links come first, group-major
		}
		t.localTable[int(l.Src)*perGroup+int(l.Dst)] = int32(l.ID)
		t.localPerGroup++
	}
}

// buildGlobalTable lays out GlobalLinks as one flat slice with a dense
// group-pair offset table: a counting pass, a prefix sum, then a fill pass
// over the link list, which keeps each pair's links in link order.
func (t *Topology) buildGlobalTable() {
	groups := t.cfg.Groups
	t.globalOff = make([]int32, groups*groups+1)
	pairOf := func(l Link) int { return int(t.GroupOf(l.Src))*groups + int(t.GroupOf(l.Dst)) }
	for _, l := range t.links {
		if l.Type == LinkGlobal {
			t.globalOff[pairOf(l)+1]++
		}
	}
	for k := 0; k < groups*groups; k++ {
		t.globalOff[k+1] += t.globalOff[k]
	}
	t.globalLinks = make([]LinkID, t.globalOff[groups*groups])
	next := append([]int32(nil), t.globalOff[:groups*groups]...)
	for _, l := range t.links {
		if l.Type == LinkGlobal {
			k := pairOf(l)
			t.globalLinks[next[k]] = l.ID
			next[k]++
		}
	}
}

// addLink appends a directed link of the given tier; every link of a tier
// has the tier's configured width.
func (t *Topology) addLink(src, dst RouterID, typ LinkType) {
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, Src: src, Dst: dst, Type: typ, Width: t.cfg.LinkWidth(typ)})
}

// buildLocalLinks wires intra-chassis (all-to-all within a chassis) and
// intra-group "row" links (all-to-all among same blade position across the
// chassis of a group).
func (t *Topology) buildLocalLinks() {
	cfg := t.cfg
	for g := 0; g < cfg.Groups; g++ {
		for c := 0; c < cfg.ChassisPerGroup; c++ {
			for b := 0; b < cfg.BladesPerChassis; b++ {
				src := t.RouterAt(Coord{g, c, b})
				// Intra-chassis: connect to every other blade in the same chassis.
				for b2 := 0; b2 < cfg.BladesPerChassis; b2++ {
					if b2 == b {
						continue
					}
					dst := t.RouterAt(Coord{g, c, b2})
					t.addLink(src, dst, LinkIntraChassis)
				}
				// Intra-group rows: connect to the same blade position in every
				// other chassis of the group.
				for c2 := 0; c2 < cfg.ChassisPerGroup; c2++ {
					if c2 == c {
						continue
					}
					dst := t.RouterAt(Coord{g, c2, b})
					t.addLink(src, dst, LinkIntraGroup)
				}
			}
		}
	}
}

// buildGlobalLinks distributes the optical ports of each group's routers over
// the other groups, using the canonical consecutive-port assignment: the k-th
// link between groups g1 < g2 attaches to port index(g2 in g1's peer list)*q+k
// of g1 and port index(g1 in g2's peer list)*q+k of g2, where q is the number
// of links per group pair. Ports map to routers round-robin by port/h.
func (t *Topology) buildGlobalLinks() {
	cfg := t.cfg
	if cfg.Groups < 2 {
		return
	}
	portsPerGroup := cfg.RoutersPerGroup() * cfg.GlobalLinksPerRouter
	q := portsPerGroup / (cfg.Groups - 1)
	if q < 1 {
		q = 1
	}
	routerOfPort := func(g, port int) RouterID {
		r := (port / cfg.GlobalLinksPerRouter) % cfg.RoutersPerGroup()
		return RouterID(g*cfg.RoutersPerGroup() + r)
	}
	peerIndex := func(g, peer int) int {
		// index of peer in g's sorted list of other groups
		if peer < g {
			return peer
		}
		return peer - 1
	}
	// wired[r*h : r*h+nWired[r]] are the destinations of router r's global
	// links so far. Each port carries one outgoing link, so a router has at
	// most h of them; scanning them finds the router pairs an earlier port
	// assignment already connected (local links never cross groups).
	h := cfg.GlobalLinksPerRouter
	wired := make([]RouterID, cfg.Routers()*h)
	nWired := make([]int32, cfg.Routers())
	connect := func(src, dst RouterID) {
		row := wired[int(src)*h : int(src)*h+int(nWired[src])]
		for _, d := range row {
			if d == dst {
				// Already connected: collapse into the existing link (widths
				// already aggregate tiles).
				return
			}
		}
		wired[int(src)*h+len(row)] = dst
		nWired[src]++
		t.addLink(src, dst, LinkGlobal)
	}
	for g1 := 0; g1 < cfg.Groups; g1++ {
		for g2 := g1 + 1; g2 < cfg.Groups; g2++ {
			for k := 0; k < q; k++ {
				p1 := peerIndex(g1, g2)*q + k
				p2 := peerIndex(g2, g1)*q + k
				if p1 >= portsPerGroup || p2 >= portsPerGroup {
					continue
				}
				r1 := routerOfPort(g1, p1)
				r2 := routerOfPort(g2, p2)
				connect(r1, r2)
				connect(r2, r1)
			}
		}
	}
}

// AllocationClass describes the topological distance between two nodes, in the
// terms used by the paper's Figure 3.
type AllocationClass uint8

const (
	// AllocSameNode means both endpoints are the same node.
	AllocSameNode AllocationClass = iota
	// AllocInterNodes means the two nodes share a blade (same router).
	AllocInterNodes
	// AllocInterBlades means the nodes sit on different blades of the same chassis.
	AllocInterBlades
	// AllocInterChassis means the nodes sit on different chassis of the same group.
	AllocInterChassis
	// AllocInterGroups means the nodes sit in different groups.
	AllocInterGroups
)

// String returns the paper's name for the allocation class.
func (a AllocationClass) String() string {
	switch a {
	case AllocSameNode:
		return "Same-Node"
	case AllocInterNodes:
		return "Inter-Nodes"
	case AllocInterBlades:
		return "Inter-Blades"
	case AllocInterChassis:
		return "Inter-Chassis"
	case AllocInterGroups:
		return "Inter-Groups"
	default:
		return fmt.Sprintf("AllocationClass(%d)", uint8(a))
	}
}

// Classify returns the allocation class of the pair (a, b).
func (t *Topology) Classify(a, b NodeID) AllocationClass {
	if a == b {
		return AllocSameNode
	}
	ra, rb := t.RouterOfNode(a), t.RouterOfNode(b)
	if ra == rb {
		return AllocInterNodes
	}
	ca, cb := t.coords[ra], t.coords[rb]
	if ca.Group != cb.Group {
		return AllocInterGroups
	}
	if ca.Chassis != cb.Chassis {
		return AllocInterChassis
	}
	return AllocInterBlades
}
