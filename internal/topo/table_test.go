package topo

import "testing"

// tableGeometries are the shapes the path tables are cross-checked on: the
// geometry ladder (Small; the quick-suite geometry, which is also the Medium
// rung; Large; Daint) and degenerate layouts — one chassis per group, one
// blade per chassis, two groups, a single group.
var tableGeometries = func() []Config {
	quick := SmallConfig(6)
	quick.BladesPerChassis = 8
	quick.GlobalLinksPerRouter = 4
	return append([]Config{
		SmallConfig(4), quick, AriesConfig(6), AriesConfig(14), SmallConfig(2),
	}, csrGeometries...)
}()

// TestLocalTableMatchesCSR checks the shared per-group table against the CSR
// LinkBetween for every ordered pair of routers in every group, including
// the unconnected pairs and a router paired with itself.
func TestLocalTableMatchesCSR(t *testing.T) {
	for _, cfg := range tableGeometries {
		tp := MustNew(cfg)
		perGroup := cfg.RoutersPerGroup()
		for g := 0; g < cfg.Groups; g++ {
			for ls := 0; ls < perGroup; ls++ {
				for ld := 0; ld < perGroup; ld++ {
					src, dst := RouterID(g*perGroup+ls), RouterID(g*perGroup+ld)
					if got, want := tp.localLink(g, src, dst), tp.LinkBetween(src, dst); got != want {
						t.Fatalf("%+v: localLink(%d, %d, %d) = %d, LinkBetween = %d", cfg, g, src, dst, got, want)
					}
				}
			}
		}
	}
}

// TestGlobalTableMatchesLinkList checks GlobalLinks for every ordered group
// pair against a filter of Links(): the global links from a router of g1 to
// a router of g2, in link order.
func TestGlobalTableMatchesLinkList(t *testing.T) {
	for _, cfg := range tableGeometries {
		tp := MustNew(cfg)
		want := make(map[[2]GroupID][]LinkID)
		for _, l := range tp.Links() {
			if l.Type == LinkGlobal {
				k := [2]GroupID{tp.GroupOf(l.Src), tp.GroupOf(l.Dst)}
				want[k] = append(want[k], l.ID)
			}
		}
		for g1 := 0; g1 < cfg.Groups; g1++ {
			for g2 := 0; g2 < cfg.Groups; g2++ {
				got := tp.GlobalLinks(GroupID(g1), GroupID(g2))
				w := want[[2]GroupID{GroupID(g1), GroupID(g2)}]
				if len(got) != len(w) {
					t.Fatalf("%+v: GlobalLinks(%d, %d) has %d links, want %d", cfg, g1, g2, len(got), len(w))
				}
				for i := range got {
					if got[i] != w[i] {
						t.Fatalf("%+v: GlobalLinks(%d, %d)[%d] = %d, want %d", cfg, g1, g2, i, got[i], w[i])
					}
				}
			}
		}
	}
}

// TestLinkWidthsPerTier pins what the fabric's per-tier cost tables rely on:
// every link of a tier has the width Config.LinkWidth gives for it.
func TestLinkWidthsPerTier(t *testing.T) {
	for _, cfg := range tableGeometries {
		tp := MustNew(cfg)
		for _, l := range tp.Links() {
			if l.Width != cfg.LinkWidth(l.Type) {
				t.Fatalf("%+v: link %d (%s) has width %d, want %d", cfg, l.ID, l.Type, l.Width, cfg.LinkWidth(l.Type))
			}
		}
	}
}

// TestMinimalHopsMatchesPath checks the hop count MinimalHops derives without
// building a path against the deterministic path itself, for every router
// pair of the smaller table geometries.
func TestMinimalHopsMatchesPath(t *testing.T) {
	for _, cfg := range tableGeometries {
		if cfg.Routers() > 600 {
			continue
		}
		tp := MustNew(cfg)
		var p Path
		for src := 0; src < tp.NumRouters(); src++ {
			for dst := 0; dst < tp.NumRouters(); dst++ {
				p = tp.AppendMinimalPath(p[:0], RouterID(src), RouterID(dst), nil)
				if got := tp.MinimalHops(RouterID(src), RouterID(dst)); got != len(p) {
					t.Fatalf("%+v: MinimalHops(%d, %d) = %d, path has %d hops", cfg, src, dst, got, len(p))
				}
			}
		}
	}
}
