package topo

import (
	"fmt"
	"math/rand"
)

// Path is an ordered sequence of links from a source router to a destination
// router. An empty path means source and destination are the same router.
type Path []LinkID

// Hops returns the number of router-to-router hops in the path.
func (p Path) Hops() int { return len(p) }

// MaxMinimalHops is the maximum length of a minimal path on a Dragonfly
// (local, global, local within source and destination group: up to 2+1+2).
const MaxMinimalHops = 5

// MaxNonMinimalHops is the maximum length of a Valiant-routed non-minimal path
// (two concatenated minimal segments via an intermediate group).
const MaxNonMinimalHops = 10

// The path constructors append into caller-owned storage: path sampling runs
// once per simulated packet, so it must not allocate. They read links from
// the topology's local and global tables, never from the CSR rows.

// appendIntraGroupPath appends one path between two routers of the same group
// to p, choosing randomly between the two 2-hop alternatives when they are not
// directly connected. It panics if the routers are in different groups.
func (t *Topology) appendIntraGroupPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	cs, cd := t.coords[src], t.coords[dst]
	if cs.Group != cd.Group {
		panic(fmt.Sprintf("topo: intraGroupPath called across groups %d and %d", cs.Group, cd.Group))
	}
	g := cs.Group
	if id := t.localLink(g, src, dst); id != InvalidLink {
		return append(p, id)
	}
	// Not directly connected: two hops, either chassis-first or row-first.
	viaA := t.RouterAt(Coord{cs.Group, cs.Chassis, cd.Blade}) // intra-chassis then row
	viaB := t.RouterAt(Coord{cs.Group, cd.Chassis, cs.Blade}) // row then intra-chassis
	via := viaA
	if rng != nil && rng.Intn(2) == 1 {
		via = viaB
	}
	first := t.localLink(g, src, via)
	second := t.localLink(g, via, dst)
	if first == InvalidLink || second == InvalidLink {
		// Fall back to the other alternative; with full chassis/row wiring this
		// cannot happen, but degenerate test configs may omit one dimension.
		other := viaA
		if via == viaA {
			other = viaB
		}
		first = t.localLink(g, src, other)
		second = t.localLink(g, other, dst)
	}
	return append(p, first, second)
}

// AppendMinimalPath samples one minimal path from src to dst and appends it
// to p. For inter-group pairs the global link is chosen uniformly at random
// among the links connecting the two groups; local segments choose randomly
// among equal-length alternatives. rng may be nil for a deterministic
// (first-alternative) choice.
func (t *Topology) AppendMinimalPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs == gd {
		return t.appendIntraGroupPath(p, src, dst, rng)
	}
	links := t.GlobalLinks(gs, gd)
	if len(links) == 0 {
		// No direct group-to-group connection: fall back to a Valiant path
		// through an intermediate group that connects to both.
		return t.appendThroughIntermediateGroup(p, src, dst, rng)
	}
	var gl LinkID
	if rng != nil {
		gl = links[rng.Intn(len(links))]
	} else {
		gl = links[0]
	}
	l := t.Link(gl)
	p = t.appendIntraGroupPath(p, src, l.Src, rng)
	p = append(p, gl)
	return t.appendIntraGroupPath(p, l.Dst, dst, rng)
}

// appendThroughIntermediateGroup appends a path src -> (router in group gi) ->
// dst where gi is a randomly chosen group different from both endpoints'
// groups and connected to both (the candidate set is precomputed per group
// pair at construction). It is used both for Valiant non-minimal routing and
// as a fallback when two groups have no direct link. When no usable
// intermediate group and no direct link exists, p is returned unchanged
// (the caller treats the pair as unreachable).
func (t *Topology) appendThroughIntermediateGroup(p Path, src, dst RouterID, rng *rand.Rand) Path {
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	candidates := t.viaGroups[int(gs)*t.cfg.Groups+int(gd)]
	if len(candidates) == 0 {
		// No usable intermediate group; as a last resort return a direct
		// minimal path if one exists.
		if links := t.GlobalLinks(gs, gd); len(links) > 0 {
			return t.AppendMinimalPath(p, src, dst, rng)
		}
		return p
	}
	var gi GroupID
	if rng != nil {
		gi = candidates[rng.Intn(len(candidates))]
	} else {
		gi = candidates[0]
	}
	// Enter the intermediate group through one of its inbound global links and
	// leave through one of its outbound links towards the destination group.
	in := t.GlobalLinks(gs, gi)
	out := t.GlobalLinks(gi, gd)
	var inL, outL LinkID
	if rng != nil {
		inL, outL = in[rng.Intn(len(in))], out[rng.Intn(len(out))]
	} else {
		inL, outL = in[0], out[0]
	}
	li, lo := t.Link(inL), t.Link(outL)
	p = t.appendIntraGroupPath(p, src, li.Src, rng)
	p = append(p, inL)
	p = t.appendIntraGroupPath(p, li.Dst, lo.Src, rng)
	p = append(p, outL)
	return t.appendIntraGroupPath(p, lo.Dst, dst, rng)
}

// AppendNonMinimalPath samples one Valiant-style non-minimal path from src to
// dst and appends it to p. For inter-group pairs the path traverses a random
// intermediate group; for intra-group pairs it traverses a random
// intermediate router of the same group. rng may be nil for a deterministic
// choice.
func (t *Topology) AppendNonMinimalPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs != gd && t.cfg.Groups > 2 {
		if q := t.appendThroughIntermediateGroup(p, src, dst, rng); len(q) > len(p) {
			return q
		}
	}
	// Intra-group (or two-group systems): detour through an intermediate
	// router of the source group.
	perGroup := t.cfg.RoutersPerGroup()
	base := int(gs) * perGroup
	var via RouterID
	for attempt := 0; attempt < 8; attempt++ {
		idx := 0
		if rng != nil {
			idx = rng.Intn(perGroup)
		} else {
			idx = attempt
		}
		via = RouterID(base + idx%perGroup)
		if via != src && via != dst {
			break
		}
	}
	if via == src || via == dst {
		return t.AppendMinimalPath(p, src, dst, rng)
	}
	p = t.appendIntraGroupPath(p, src, via, rng)
	if gs == gd {
		return t.appendIntraGroupPath(p, via, dst, rng)
	}
	return t.AppendMinimalPath(p, via, dst, rng)
}

// PathBuffer holds reusable candidate-path storage for SamplePathsInto. The
// zero value is ready to use. A buffer must not be shared across goroutines;
// the routing policy owns one per simulated system.
type PathBuffer struct {
	minimal    []Path
	nonMinimal []Path
}

// growPaths extends ps to n entries, keeping the backing arrays of existing
// entries for reuse.
func growPaths(ps []Path, n int) []Path {
	if cap(ps) < n {
		ps = append(ps[:cap(ps)], make([]Path, n-cap(ps))...)
	}
	return ps[:n]
}

// SamplePathsInto samples nMin minimal and nNonMin non-minimal candidate
// paths into buf, mirroring the Aries UGAL implementation which considers two
// of each per packet. Candidates may coincide when few distinct paths exist.
// The returned slices (and the paths they hold) alias the buffer and are
// valid until the next call with the same buffer.
func (t *Topology) SamplePathsInto(buf *PathBuffer, src, dst RouterID, nMin, nNonMin int, rng *rand.Rand) (minimal, nonMinimal []Path) {
	buf.minimal = growPaths(buf.minimal, nMin)
	buf.nonMinimal = growPaths(buf.nonMinimal, nNonMin)
	for i := 0; i < nMin; i++ {
		buf.minimal[i] = t.AppendMinimalPath(buf.minimal[i][:0], src, dst, rng)
	}
	for i := 0; i < nNonMin; i++ {
		buf.nonMinimal[i] = t.AppendNonMinimalPath(buf.nonMinimal[i][:0], src, dst, rng)
	}
	return buf.minimal, buf.nonMinimal
}

// MinimalHops returns the number of hops of the deterministic minimal path
// between the two routers, the one AppendMinimalPath builds with a nil rng.
// It counts the hops without building the path, so it does not allocate.
func (t *Topology) MinimalHops(src, dst RouterID) int {
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs == gd {
		return t.intraGroupHops(src, dst)
	}
	links := t.GlobalLinks(gs, gd)
	if len(links) == 0 {
		// No direct link between the groups (Validate admits no such
		// wiring): count the Valiant detour AppendMinimalPath falls back to.
		return len(t.AppendMinimalPath(nil, src, dst, nil))
	}
	l := t.Link(links[0])
	return t.intraGroupHops(src, l.Src) + 1 + t.intraGroupHops(l.Dst, dst)
}

// intraGroupHops is the hop count of appendIntraGroupPath between two routers
// of one group: none, one direct link, or two.
func (t *Topology) intraGroupHops(src, dst RouterID) int {
	switch {
	case src == dst:
		return 0
	case t.localLink(t.coords[src].Group, src, dst) != InvalidLink:
		return 1
	default:
		return 2
	}
}

// ValidatePath reports an error if the path is not a connected chain of links
// from src to dst.
func (t *Topology) ValidatePath(src, dst RouterID, p Path) error {
	cur := src
	for i, id := range p {
		if int(id) < 0 || int(id) >= len(t.links) {
			return fmt.Errorf("topo: hop %d: invalid link id %d", i, id)
		}
		l := t.Link(id)
		if l.Src != cur {
			return fmt.Errorf("topo: hop %d: link %d starts at %d, expected %d", i, id, l.Src, cur)
		}
		cur = l.Dst
	}
	if cur != dst {
		return fmt.Errorf("topo: path ends at router %d, expected %d", cur, dst)
	}
	return nil
}
