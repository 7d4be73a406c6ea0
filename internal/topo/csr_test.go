package topo

import (
	"sort"
	"testing"
)

// adjKey identifies a directed router pair.
type adjKey struct{ src, dst RouterID }

// csrGeometries are the shapes the CSR adjacency is cross-checked on,
// including degenerate single-dimension layouts.
var csrGeometries = []Config{
	SmallConfig(1),
	SmallConfig(4),
	AriesConfig(2),
	{Groups: 3, ChassisPerGroup: 1, BladesPerChassis: 4, NodesPerBlade: 1,
		GlobalLinksPerRouter: 2, IntraGroupLinkWidth: 1, IntraChassisLinkWidth: 1, GlobalLinkWidth: 1},
	{Groups: 2, ChassisPerGroup: 3, BladesPerChassis: 1, NodesPerBlade: 2,
		GlobalLinksPerRouter: 2, IntraGroupLinkWidth: 2, IntraChassisLinkWidth: 1, GlobalLinkWidth: 1},
}

// TestCSRMatchesLinkList rebuilds the adjacency relation from the flat link
// list and checks LinkBetween against it for every router pair: the CSR
// binary search must agree exactly with the ground truth (including
// InvalidLink for unconnected pairs).
func TestCSRMatchesLinkList(t *testing.T) {
	for _, cfg := range csrGeometries {
		tp := MustNew(cfg)
		want := make(map[adjKey]LinkID, tp.NumLinks())
		for _, l := range tp.Links() {
			if prev, dup := want[adjKey{l.Src, l.Dst}]; dup {
				t.Fatalf("%+v: duplicate link %d and %d for pair (%d,%d)", cfg, prev, l.ID, l.Src, l.Dst)
			}
			want[adjKey{l.Src, l.Dst}] = l.ID
		}
		n := tp.NumRouters()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				wantID, ok := want[adjKey{RouterID(src), RouterID(dst)}]
				if !ok {
					wantID = InvalidLink
				}
				if got := tp.LinkBetween(RouterID(src), RouterID(dst)); got != wantID {
					t.Fatalf("%+v: LinkBetween(%d,%d) = %d, want %d", cfg, src, dst, got, wantID)
				}
			}
		}
	}
}

// TestCSRNeighborsSortedAndComplete pins the Neighbors contract of the CSR
// layout: ascending router order, no duplicates, degree matching the link
// list.
func TestCSRNeighborsSortedAndComplete(t *testing.T) {
	for _, cfg := range csrGeometries {
		tp := MustNew(cfg)
		degree := make(map[RouterID]int)
		for _, l := range tp.Links() {
			degree[l.Src]++
		}
		for r := 0; r < tp.NumRouters(); r++ {
			nb := tp.Neighbors(RouterID(r))
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				t.Fatalf("%+v: Neighbors(%d) not sorted: %v", cfg, r, nb)
			}
			for i := 1; i < len(nb); i++ {
				if nb[i] == nb[i-1] {
					t.Fatalf("%+v: Neighbors(%d) has duplicate %d", cfg, r, nb[i])
				}
			}
			if len(nb) != degree[RouterID(r)] || len(nb) != tp.Degree(RouterID(r)) {
				t.Fatalf("%+v: router %d degree mismatch: Neighbors=%d Degree()=%d links=%d",
					cfg, r, len(nb), tp.Degree(RouterID(r)), degree[RouterID(r)])
			}
		}
	}
}

// TestCSRMemoryScalesWithLinks is the machine-scale motivation: the
// adjacency arrays grow with the link count, not quadratically with the
// router count. On a full Aries 14-group system (1344 routers) a dense
// |R|²-entry matrix would hold ~1.8M entries; the CSR rows plus the
// reverse-link table stay within a small multiple of the ~29k directed links.
func TestCSRMemoryScalesWithLinks(t *testing.T) {
	tp := MustNew(AriesConfig(14))
	got := tp.AdjacencyBytes()
	// offsets (n+1), dst, link and reverse-link arrays, 4 bytes each.
	want := (tp.NumRouters()+1)*4 + tp.NumLinks()*12
	if got != want {
		t.Fatalf("AdjacencyBytes = %d, want %d", got, want)
	}
	dense := tp.NumRouters() * tp.NumRouters() * 4
	if got*10 > dense {
		t.Fatalf("CSR adjacency (%d B) is not an order of magnitude under the dense matrix (%d B)", got, dense)
	}
	// The CSR row search (the LinkBetween path) must agree
	// with the ground-truth link list; sample pairs around each router.
	truth := make(map[adjKey]LinkID, tp.NumLinks())
	for _, l := range tp.Links() {
		truth[adjKey{l.Src, l.Dst}] = l.ID
	}
	for src := 0; src < tp.NumRouters(); src += 7 {
		for dst := 0; dst < tp.NumRouters(); dst += 11 {
			wantID, ok := truth[adjKey{RouterID(src), RouterID(dst)}]
			if !ok {
				wantID = InvalidLink
			}
			if gotID := tp.LinkBetween(RouterID(src), RouterID(dst)); gotID != wantID {
				t.Fatalf("CSR search LinkBetween(%d,%d) = %d, want %d", src, dst, gotID, wantID)
			}
		}
	}
}

// TestReverseLinkTable pins ReverseLink against LinkBetween on a small and a
// machine-scale topology.
func TestReverseLinkTable(t *testing.T) {
	for _, cfg := range []Config{SmallConfig(4), AriesConfig(14)} {
		tp := MustNew(cfg)
		for _, l := range tp.Links() {
			if got, want := tp.ReverseLink(l.ID), tp.LinkBetween(l.Dst, l.Src); got != want {
				t.Fatalf("%+v: ReverseLink(%d) = %d, want %d", cfg, l.ID, got, want)
			}
		}
	}
}
