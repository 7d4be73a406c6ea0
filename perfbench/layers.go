package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dragonfly"
	"dragonfly/internal/alloc"
	"dragonfly/internal/arrival"
	"dragonfly/internal/mpi"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// perLayer lists every per-layer metric in output order. A traced run prints
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.noisesweep_s", "s"},
	{"experiments.baselines_s", "s"},
	{"experiments.collalgos_s", "s"},
	{"experiments.biassweep_s", "s"},
	{"harness.trials", "count"},
	{"harness.trial_p50_ms", "ms"},
	{"routing.decisions", "count"},
	{"routing.route_ns", "ns"},
	{"routing.share", "frac"},
	{"routing.minimal_frac", "frac"},
	{"topo.sample_ns", "ns"},
	{"topo.link_between_ns", "ns"},
	{"network.packets", "count"},
	{"network.messages", "count"},
	{"network.view_ns", "ns"},
	{"sim.events", "count"},
	{"sim.pending_max", "count"},
	{"sim.event_ns", "ns"},
	{"mpi.ranks", "count"},
	{"mpi.block_ns", "ns"},
	{"core.evaluations", "count"},
	{"core.switches", "count"},
	{"core.bias_msg_frac", "frac"},
	{"alloc.allocate_ns", "ns"},
	{"alloc.fragmentation_ns", "ns"},
	{"alloc.fragmentation_calls", "count"},
	{"arrival.next_ns", "ns"},
	{"stats.digest_add_ns", "ns"},
	{"sched.job_events", "count"},
	{"sched.max_queue", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
}

// layerValue is one per-layer measurement and its sample count.
type layerValue struct {
	value float64
	n     int
}

type layerSet map[string]layerValue

func (v layerSet) set(name string, value float64, n int) { v[name] = layerValue{value, n} }

// addTo appends every per-layer metric to m in perLayer order.
func (v layerSet) addTo(m *metrics) error {
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.name] = true
		x := v[d.name]
		m.add(d.name, x.value, d.unit, x.n)
	}
	for name := range v {
		if !known[name] {
			return fmt.Errorf("per-layer metric %s is not in the perLayer list", name)
		}
	}
	return nil
}

// sink keeps the compiler from discarding the timed calls.
var sink int64

// timePerOp times pass, which performs n operations, over at least 5 passes
// and 200 ms. It returns the median over passes of the mean ns per operation,
// and the number of passes.
func timePerOp(n int, pass func()) (float64, int) {
	var per []float64
	start := time.Now()
	for len(per) < 5 || (time.Since(start) < 200*time.Millisecond && len(per) < 1000) {
		t0 := time.Now()
		pass()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), len(per)
}

// --- suite-quick -----------------------------------------------------------

func suiteLayers(seed int64, tr *tracer, plain []rep, v layerSet) error {
	var trials []float64
	for _, id := range suiteIDs {
		var xs []float64
		for _, r := range plain {
			xs = append(xs, r.spans[id])
		}
		v.set("experiments."+id+"_s", median(xs), len(xs))
	}
	for _, r := range plain {
		trials = append(trials, r.trialMs...)
	}
	v.set("harness.trials", float64(len(plain[0].trialMs)), len(plain))
	v.set("harness.trial_p50_ms", median(trials), len(trials))
	wall, err := suiteProxy(seed, tr)
	if err != nil {
		return fmt.Errorf("suite proxy: %w", err)
	}
	return packetLayers(seed, tr, wall, v)
}

// suiteProxy stands in for the suite's trials, whose decision traces stay
// inside the harness: an alltoall with the quick suite's job size, background
// noise and iteration count on the suite's geometry, under AppAware. It runs
// untraced for its wall time (median of several runs), then once traced into
// tr.
func suiteProxy(seed int64, tr *tracer) (float64, error) {
	o := suiteOptions(seed)
	run := func(t *tracer) (time.Duration, error) {
		opts := append([]dragonfly.Option{
			dragonfly.WithGeometry(suiteGeometry),
			dragonfly.WithSeed(seed),
			dragonfly.WithNoise(dragonfly.NoiseConfig{
				Pattern:        dragonfly.NoiseUniform,
				Nodes:          o.NoiseNodes,
				IntervalCycles: o.NoiseIntervalCycles,
			}),
		}, traceOptions(t)...)
		sys, err := dragonfly.New(opts...)
		if err != nil {
			return 0, err
		}
		job, err := sys.Allocate(dragonfly.GroupStriped, o.Nodes)
		if err != nil {
			return 0, err
		}
		if t != nil {
			t.observe(sys)
		}
		t0 := time.Now()
		res, err := job.Run(&workloads.Alltoall{MessageBytes: 4 << 10, Iterations: 1}, dragonfly.RunOptions{
			Routing:    dragonfly.AppAware(),
			Iterations: o.Iterations,
		})
		wall := time.Since(t0)
		if t != nil {
			t.job, t.res = job, res
		}
		return wall, err
	}
	var walls []float64
	for i := 0; i < 5; i++ {
		w, err := run(nil)
		if err != nil {
			return 0, err
		}
		walls = append(walls, w.Seconds())
	}
	_, err := run(tr)
	return median(walls), err
}

// --- packet path: suite-quick and daint-halo3d ------------------------------

func halo3dLayers(seed int64, tr *tracer, plain []rep, v layerSet) error {
	var walls []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
	}
	return packetLayers(seed, tr, median(walls), v)
}

// packetLayers reports the routing, topo, network, sim, mpi and core layers
// of the traced system in tr, whose untraced wall time is wall seconds.
func packetLayers(seed int64, tr *tracer, wall float64, v layerSet) error {
	sys := tr.sys
	fab := sys.Fabric()
	decisions := float64(sys.DecisionTrace().Recorded())
	v.set("routing.decisions", decisions, 1)
	v.set("network.packets", float64(fab.PacketsInjected()), 1)
	v.set("network.messages", float64(tr.messages), 1)
	routeNs, err := replayDecisions(seed, sys, v)
	if err != nil {
		return err
	}
	v.set("routing.share", decisions*routeNs*1e-9/wall, 1)
	if c := tr.res.Counters; c.MinimalPackets+c.NonMinimalPackets > 0 {
		v.set("routing.minimal_frac", float64(c.MinimalPackets)/float64(c.MinimalPackets+c.NonMinimalPackets), 1)
	}
	sel := tr.res.SelectorStats
	v.set("core.evaluations", float64(sel.Evaluations), 1)
	v.set("core.switches", float64(sel.Switches), 1)
	if sel.Messages > 0 {
		v.set("core.bias_msg_frac", float64(sel.BiasMessages)/float64(sel.Messages), 1)
	}
	eventNs := engineLayers(sys, tr.pendingMax, v)
	ranks := tr.job.Size()
	v.set("mpi.ranks", float64(ranks), 1)
	blockNs, n, err := rankBlockNs(sys.Topology().Config(), ranks, seed)
	if err != nil {
		return fmt.Errorf("mpi block driver: %w", err)
	}
	v.set("mpi.block_ns", blockNs-eventNs, n)
	return nil
}

// replayDecisions replays the recorded decisions of sys through a fresh
// Policy with the same parameters, using the live fabric as CongestionView,
// and times the topology and fabric calls Route makes on the same inputs. It
// returns the ns per Policy.Route.
func replayDecisions(seed int64, sys *dragonfly.System, v layerSet) (float64, error) {
	type decision struct {
		now      int64
		mode     routing.Mode
		src, dst topo.RouterID
		flits    int
		cands    []routing.TracedCandidate
	}
	var ds []decision
	sys.DecisionTrace().ForEach(func(_ int, d *routing.TracedDecision) {
		cands := append([]routing.TracedCandidate(nil), d.Candidates[:d.NumCandidates]...)
		ds = append(ds, decision{d.Now, d.Mode, d.Src, d.Dst, int(d.Flits), cands})
	})
	if len(ds) == 0 {
		return 0, nil
	}
	// The trace is stored per group; replay it in simulated-time order, as the
	// run interleaved the groups.
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].now < ds[j].now })
	var links []topo.LinkID
	var linkFlits []int
	for _, d := range ds {
		for i := range d.cands {
			for _, id := range d.cands[i].Path() {
				links = append(links, id)
				linkFlits = append(linkFlits, d.flits)
			}
		}
	}
	t := sys.Topology()
	fab := sys.Fabric()
	pol, err := routing.NewPolicy(t, fab.Policy().Params())
	if err != nil {
		return 0, err
	}
	params := pol.Params()
	now := sys.Now()
	rng := rand.New(rand.NewSource(seed))

	routeNs, n := timePerOp(len(ds), func() {
		for _, d := range ds {
			sink += pol.Route(d.mode, d.src, d.dst, d.flits, 0, fab, now, rng).Cost
		}
	})
	v.set("routing.route_ns", routeNs, n*len(ds))

	var buf topo.PathBuffer
	sampleNs, n := timePerOp(len(ds), func() {
		for _, d := range ds {
			minimal, nonMinimal := t.SamplePathsInto(&buf, d.src, d.dst,
				params.MinimalCandidates, params.NonMinimalCandidates, rng)
			sink += int64(len(minimal) + len(nonMinimal))
		}
	})
	v.set("topo.sample_ns", sampleNs, n*len(ds))

	pairs := make([][2]topo.RouterID, len(links))
	for i, id := range links {
		l := t.Link(id)
		pairs[i] = [2]topo.RouterID{l.Src, l.Dst}
	}
	betweenNs, n := timePerOp(len(pairs), func() {
		for _, p := range pairs {
			sink += int64(t.LinkBetween(p[0], p[1]))
		}
	})
	v.set("topo.link_between_ns", betweenNs, n*len(pairs))

	viewNs, n := timePerOp(len(links), func() {
		for i, id := range links {
			sink += fab.QueueCycles(id, now) + fab.PropagationCycles(id) + fab.SerializationCycles(id, linkFlits[i])
		}
	})
	v.set("network.view_ns", viewNs, n*len(links))
	return routeNs, nil
}

// --- sim and mpi -------------------------------------------------------------

// nopHandler is the no-op event body of the engine micro-driver.
type nopHandler struct{}

func (nopHandler) HandleEvent(*sim.Engine, int64, int64) {}

// engineLayers reports the sim layer of sys and returns sim.event_ns: one
// ScheduleCall plus the dispatch of a no-op Handler on an engine holding
// depth pending events.
func engineLayers(sys *dragonfly.System, depth int, v layerSet) float64 {
	v.set("sim.events", float64(sys.Engine().ExecutedEvents()), 1)
	v.set("sim.pending_max", float64(depth), 1)
	eng := sim.NewEngine(1)
	var h nopHandler
	for i := 0; i < depth; i++ {
		eng.ScheduleCall(sim.Time(1)<<40+sim.Time(i), h, 0, 0)
	}
	const ops = 4096
	ns, n := timePerOp(ops, func() {
		for i := 0; i < ops; i++ {
			eng.ScheduleCall(eng.Now()+1, h, 0, 0)
			if _, err := eng.Step(); err != nil {
				panic(err) // a plain engine without an event limit cannot fail
			}
		}
	})
	v.set("sim.event_ns", ns, n*ops)
	return ns
}

// rankBlockNs runs a compute-only program of ranks ranks on a fresh system of
// the given geometry, each rank blocking in Compute repeatedly, and returns
// the host ns per block (Comm.Start plus Scheduler.Run, over all blocks; the
// median of three runs) and the number of blocks timed.
func rankBlockNs(geometry dragonfly.Geometry, ranks int, seed int64) (float64, int, error) {
	sys, err := dragonfly.New(dragonfly.WithGeometry(geometry), dragonfly.WithSeed(seed))
	if err != nil {
		return 0, 0, err
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, ranks)
	if err != nil {
		return 0, 0, err
	}
	comm, err := mpi.NewComm(sys.Fabric(), job.Allocation(), mpi.Config{})
	if err != nil {
		return 0, 0, err
	}
	sched := mpi.NewScheduler(sys.Engine())
	// About 64k blocks per run, whatever the rank count.
	blocks := 1 + 65536/ranks
	program := func(r *mpi.Rank) {
		for i := 0; i < blocks; i++ {
			r.Compute(100)
		}
	}
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := comm.Start(sched, program); err != nil {
			return 0, 0, err
		}
		if err := sched.Run(nil); err != nil {
			return 0, 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ranks*blocks))
	}
	return median(per), 3 * ranks * blocks, nil
}

// --- daint-openstream --------------------------------------------------------

func openLayers(seed int64, tr *tracer, plain []rep, v layerSet) error {
	sys := tr.sys
	// The packet path does no work here; report its counters as measured.
	v.set("routing.decisions", float64(sys.DecisionTrace().Recorded()), 1)
	v.set("network.packets", float64(sys.Fabric().PacketsInjected()), 1)
	v.set("network.messages", float64(tr.messages), 1)
	engineLayers(sys, tr.pendingMax, v)
	st := tr.open
	v.set("sched.job_events", float64(st.Finished), 1)
	v.set("sched.max_queue", float64(st.MaxQueueLength), 1)
	v.set("alloc.fragmentation_calls", float64(st.Fragmentation.N), 1)
	return allocLayers(seed, v)
}

// allocLayers times the allocator, arrival streams and streaming digests on
// the open-stream workload's inputs.
func allocLayers(seed int64, v layerSet) error {
	t, err := topo.New(dragonfly.Daint)
	if err != nil {
		return err
	}
	streams, err := arrival.NewStreams(openSpec(), seed)
	if err != nil {
		return err
	}
	const draws = 4096
	nextNs, n := timePerOp(draws, func() {
		for i := 0; i < draws; i++ {
			sink += int64(streams[i%len(streams)].Next().Nodes)
		}
	})
	v.set("arrival.next_ns", nextNs, n*draws)

	// The job-size mix: fresh streams' first arrivals, round robin.
	if streams, err = arrival.NewStreams(openSpec(), seed); err != nil {
		return err
	}
	sizes := make([]int, draws)
	for i := range sizes {
		sizes[i] = streams[i%len(streams)].Next().Nodes
	}
	// Hold the machine near the workload's ~3/4 occupancy: place each job
	// after releasing the oldest ones until it fits under the target.
	k := alloc.NewTracker(t)
	rng := rand.New(rand.NewSource(seed))
	target := t.NumNodes() * 3 / 4
	var live [][]topo.NodeID
	var spare [][]topo.NodeID
	place := func(size int) {
		for len(live) > 0 && (k.FreeNodes() < size || t.NumNodes()-k.FreeNodes()+size > target) {
			k.Free(live[0])
			spare = append(spare, live[0][:0])
			live = live[1:]
		}
		var out []topo.NodeID
		if len(spare) > 0 {
			out, spare = spare[len(spare)-1], spare[:len(spare)-1]
		}
		nodes, err := k.Allocate(alloc.Contiguous, size, rng, out)
		if err != nil {
			panic(err) // the loop above freed enough nodes
		}
		live = append(live, nodes)
	}
	for _, s := range sizes {
		place(s)
	}
	allocNs, n := timePerOp(len(sizes), func() {
		for _, s := range sizes {
			place(s)
		}
	})
	v.set("alloc.allocate_ns", allocNs, n*len(sizes))

	const frags = 1024
	fragNs, n := timePerOp(frags, func() {
		for i := 0; i < frags; i++ {
			sink += int64(k.Fragmentation() * 1e6)
		}
	})
	v.set("alloc.fragmentation_ns", fragNs, n*frags)

	// Past its exact buffer the digest runs P², as the run's million-sample
	// digests do.
	d := stats.NewDigest()
	vals := make([]float64, draws)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	for i := 0; i < 2*stats.DefaultExactSamples; i++ {
		d.Add(vals[i%len(vals)])
	}
	addNs, n := timePerOp(len(vals), func() {
		for _, x := range vals {
			d.Add(x)
		}
	})
	v.set("stats.digest_add_ns", addNs, n*len(vals))
	return nil
}
