package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"dragonfly"
	"dragonfly/internal/arrival"
	"dragonfly/internal/experiments"
	"dragonfly/internal/harness"
	"dragonfly/internal/routing"
	"dragonfly/internal/sched"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// tracer receives what traced repetitions expose through public counters. The
// last traced repetition's system stays alive for the micro-drivers.
type tracer struct {
	sys        *dragonfly.System
	job        *dragonfly.Job
	res        dragonfly.Result
	messages   uint64
	pendingMax int
	open       sched.OpenStats
}

// traceOptions are the facade options of a traced repetition.
func traceOptions(tr *tracer) []dragonfly.Option {
	if tr == nil {
		return nil
	}
	return []dragonfly.Option{dragonfly.WithDecisionTrace(routing.DefaultDecisionCandidates)}
}

// observe attaches the traced repetition's delivery observer: it counts
// messages and samples the engine's pending-event count.
func (tr *tracer) observe(sys *dragonfly.System) {
	tr.sys, tr.job, tr.messages, tr.pendingMax = sys, nil, 0, 0
	eng := sys.Engine()
	sys.Fabric().AddDeliveryObserver(func(dragonfly.Delivery) {
		tr.messages++
		if p := eng.Pending(); p > tr.pendingMax {
			tr.pendingMax = p
		}
	})
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// --- suite-quick -----------------------------------------------------------

// suiteIDs are the experiments of BenchmarkSuiteSerial, in its order.
var suiteIDs = []string{"fig3", "fig4", "fig7", "noisesweep", "baselines", "collalgos", "biassweep"}

// suiteGeometry is the reduced Piz-Daint geometry of the quick suite (what
// experiments.Options builds without FullAries): 96 routers, 192 nodes.
var suiteGeometry = dragonfly.Geometry{
	Groups:                6,
	ChassisPerGroup:       2,
	BladesPerChassis:      8,
	NodesPerBlade:         2,
	GlobalLinksPerRouter:  4,
	IntraGroupLinkWidth:   3,
	IntraChassisLinkWidth: 1,
	GlobalLinkWidth:       2,
}

func suiteOptions(seed int64) experiments.Options {
	o := experiments.QuickOptions()
	o.Iterations = 8
	o.Parallel = 1
	o.Seed = seed
	return o
}

var suiteQuick = workload{
	// The harness pool builds the suite's system once per worker; that build
	// is the suite's set-up.
	setup: func(seed int64) (time.Duration, error) {
		t0 := time.Now()
		_, err := dragonfly.New(dragonfly.WithGeometry(suiteGeometry), dragonfly.WithSeed(seed))
		return time.Since(t0), err
	},
	setupReps: 101,
	run:       runSuite,
	layers:    suiteLayers,
}

// renderHash is the SHA-256 of the rendered tables, as the golden tests hash
// them.
func renderHash(tables []*trace.Table) (string, error) {
	var b strings.Builder
	for _, t := range tables {
		if err := t.Render(&b); err != nil {
			return "", err
		}
	}
	return sha(b.String()), nil
}

func runSuite(seed int64, tr *tracer) (rep, error) {
	r := rep{spans: make(map[string]float64, len(suiteIDs))}
	o := suiteOptions(seed)
	o.Progress = func(p harness.Progress) {
		r.trialMs = append(r.trialMs, float64(p.Elapsed.Nanoseconds())/1e6)
	}
	if tr != nil {
		o.DecisionTrace = routing.DefaultDecisionCandidates
	}
	results := make([][]*trace.Table, len(suiteIDs))
	before := readMem()
	t0 := time.Now()
	for i, id := range suiteIDs {
		s := time.Now()
		tables, err := experiments.Run(id, o)
		r.spans[id] = time.Since(s).Seconds()
		if err != nil {
			return r, fmt.Errorf("experiment %s: %w", id, err)
		}
		results[i] = tables
	}
	r.wall = time.Since(t0)
	r.mem = memSince(before)
	var digest strings.Builder
	for i, id := range suiteIDs {
		h, err := renderHash(results[i])
		if err != nil {
			return r, err
		}
		fmt.Fprintf(&digest, "%s=%s ", id, h)
	}
	r.digest = strings.TrimSpace(digest.String())
	// The harness keeps its engines private, so the suite's unit of work is
	// the trial; each trial is one measured job (two job events).
	r.events = uint64(len(r.trialMs))
	r.jobEvents = 2 * r.events
	return r, nil
}

// --- daint-halo3d ----------------------------------------------------------

// daintNodes is the node count of dragonfly.Daint; the halo3d job fills it.
const daintNodes = 5376

var daintHalo3D = workload{
	setup: func(seed int64) (time.Duration, error) {
		_, _, d, err := halo3dSetup(seed, nil)
		return d, err
	},
	setupReps: 21,
	run:       runHalo3D,
	layers:    halo3dLayers,
}

func halo3dSetup(seed int64, tr *tracer) (*dragonfly.System, *dragonfly.Job, time.Duration, error) {
	opts := append([]dragonfly.Option{dragonfly.WithGeometry(dragonfly.Daint), dragonfly.WithSeed(seed)},
		traceOptions(tr)...)
	t0 := time.Now()
	sys, err := dragonfly.New(opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, daintNodes)
	return sys, job, time.Since(t0), err
}

func runHalo3D(seed int64, tr *tracer) (rep, error) {
	sys, job, _, err := halo3dSetup(seed, tr)
	if err != nil {
		return rep{}, err
	}
	if tr != nil {
		tr.observe(sys)
	}
	before := readMem()
	t0 := time.Now()
	res, err := job.Run(workloads.NewHalo3D(daintNodes, 128, 1), dragonfly.RunOptions{
		Routing:     dragonfly.AppAware(),
		Iterations:  4,
		StreamStats: true,
	})
	r := rep{wall: time.Since(t0), mem: memSince(before)}
	if err != nil {
		return r, err
	}
	if tr != nil {
		tr.job, tr.res = job, res
	}
	r.events = sys.Engine().ExecutedEvents()
	r.jobEvents = 2
	c := res.Counters
	r.digest = fmt.Sprintf("cycles=%d events=%d packets=%d minimal=%d nonminimal=%d selector=%+v",
		res.Time(), r.events, sys.Fabric().PacketsInjected(), c.MinimalPackets, c.NonMinimalPackets,
		res.SelectorStats)
	return r, nil
}

// --- daint-openstream ------------------------------------------------------

const openJobEvents = 1_000_000

// openSpec is the open-stream client mix: six default clients, mean gap
// 12,000 cycles.
func openSpec() dragonfly.ArrivalSpec {
	return dragonfly.ArrivalSpec{Clients: arrival.DefaultClients(6, 12_000)}.Normalize()
}

var daintOpenStream = workload{
	setup: func(seed int64) (time.Duration, error) {
		_, _, d, err := openSetup(seed, nil)
		return d, err
	},
	setupReps: 21,
	run:       runOpenStream,
	layers:    openLayers,
}

func openSetup(seed int64, tr *tracer) (*dragonfly.System, *sched.OpenStream, time.Duration, error) {
	opts := append([]dragonfly.Option{dragonfly.WithGeometry(dragonfly.Daint), dragonfly.WithSeed(seed)},
		traceOptions(tr)...)
	t0 := time.Now()
	sys, err := dragonfly.New(opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	o, err := sched.NewOpenStream(sys.Fabric(), openSpec(), sched.OpenConfig{
		Placement:    sched.PlaceContiguous,
		Seed:         seed,
		MaxJobEvents: openJobEvents,
	})
	return sys, o, time.Since(t0), err
}

func runOpenStream(seed int64, tr *tracer) (rep, error) {
	sys, o, _, err := openSetup(seed, tr)
	if err != nil {
		return rep{}, err
	}
	if tr != nil {
		tr.observe(sys)
	}
	eng := sys.Engine()
	before := readMem()
	t0 := time.Now()
	o.Start()
	if tr == nil {
		err = o.Drive(nil)
	} else {
		// Stepping the engine by hand executes the same events as Drive and
		// samples the heap depth, which no delivery observer sees here.
		for {
			stepped, serr := eng.Step()
			if serr != nil || !stepped {
				err = serr
				break
			}
			if p := eng.Pending(); p > tr.pendingMax {
				tr.pendingMax = p
			}
		}
	}
	r := rep{wall: time.Since(t0), mem: memSince(before)}
	if err != nil {
		return r, err
	}
	st := o.Stats()
	if st.Finished != openJobEvents {
		return r, fmt.Errorf("finished %d of %d job events", st.Finished, openJobEvents)
	}
	if tr != nil {
		tr.open = st
	}
	r.events = eng.ExecutedEvents()
	r.jobEvents = uint64(st.Finished)
	r.digest = fmt.Sprintf("admitted=%d started=%d finished=%d makespan=%d max_queue=%d events=%d stats_sha256=%s",
		st.Admitted, st.Started, st.Finished, st.MakespanCycles, st.MaxQueueLength, r.events,
		sha(fmt.Sprintf("%+v", st)))
	return r, nil
}
