package network

import (
	"math/rand"
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// TestPathCostMatchesPerLinkSum checks the fused per-tier PathCost against
// the per-link reference it replaces: the sum over the path of QueueCycles,
// PropagationCycles and SerializationCycles. Paths are sampled routes and
// random link sequences; flit counts cover single packets, multi-packet
// chunks and a full input buffer, interleaved so the per-tier memo is
// recomputed between calls; times fall on both sides of CreditDelay after
// each link's last change, on a fabric loaded with real traffic.
func TestPathCostMatchesPerLinkSum(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(3)) // three tiers, three widths
	cfg := DefaultConfig()
	cfg.PacketsPerChunk = 4
	eng := sim.NewEngine(3)
	f := MustNew(eng, tt, routing.MustNewPolicy(tt, routing.DefaultParams()), cfg)
	for i := 0; i < tt.NumNodes(); i += 3 {
		dst := topo.NodeID((i*7 + 5) % tt.NumNodes())
		if err := f.Send(topo.NodeID(i), dst, 16<<10, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(3000); err != nil {
		t.Fatal(err)
	}

	flitCounts := []int{
		cfg.PutRequestFlits, cfg.GetRequestFlits, cfg.ResponseFlits * cfg.PacketsPerChunk,
		cfg.PutRequestFlits * cfg.PacketsPerChunk, cfg.BufferFlits, 7,
	}
	rng := rand.New(rand.NewSource(11))
	var buf topo.PathBuffer
	stale, fresh, phantom := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		var path topo.Path
		if trial%2 == 0 {
			src := topo.RouterID(rng.Intn(tt.NumRouters()))
			dst := topo.RouterID(rng.Intn(tt.NumRouters()))
			minimal, nonMinimal := tt.SamplePathsInto(&buf, src, dst, 1, 1, rng)
			path = minimal[0]
			if trial%4 == 0 {
				path = nonMinimal[0]
			}
		} else {
			path = make(topo.Path, 1+rng.Intn(topo.MaxNonMinimalHops))
			for i := range path {
				path[i] = topo.LinkID(rng.Intn(tt.NumLinks()))
			}
		}
		if len(path) == 0 {
			continue
		}
		// Anchor the time on one hop's last change, just inside or outside
		// its credit window.
		last := f.links[path[rng.Intn(len(path))]].lastChange
		now := last + cfg.CreditDelay + int64(rng.Intn(5)) - 2
		if now-last < cfg.CreditDelay {
			stale++
		} else {
			fresh++
		}
		flits := flitCounts[rng.Intn(len(flitCounts))]
		var want int64
		for _, id := range path {
			q := f.QueueCycles(id, now)
			if q != max(f.links[id].freeAt-now, 0) {
				phantom++ // the stale view differs from the link's real backlog
			}
			want += q + f.PropagationCycles(id) + f.SerializationCycles(id, flits)
		}
		if got := f.PathCost(path, flits, now); got != want {
			t.Fatalf("PathCost(%v, %d flits, now=%d) = %d, per-link sum = %d", path, flits, now, got, want)
		}
	}
	if stale == 0 || fresh == 0 || phantom == 0 {
		t.Fatalf("times did not straddle CreditDelay: %d stale, %d fresh, %d stale-view hops", stale, fresh, phantom)
	}
}
