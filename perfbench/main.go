// Command perfbench is the repository benchmark. It runs one named workload
// in this process for a fixed amount of host time, checks the simulated
// output against the digests pinned in digests.json, and prints every metric
// by name and unit. The last line of standard output is the JSON result.
//
// perfbench/run.py builds this program and is the entry point; README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// pins holds the digests the benchmark checks simulated output against.
type pins struct {
	// Workloads maps a workload name to its simulated digest at seed 1.
	Workloads map[string]string `json:"workloads"`
	// Golden copies goldenHashes of internal/experiments/golden_test.go for
	// the suite's experiments that have one. Those experiments do not depend on
	// Iterations, so the pinned suite digest must carry the same hashes.
	Golden map[string]string `json:"golden"`
}

// rep is one execution of a workload: its set-up and its timed section.
type rep struct {
	wall      time.Duration // host time of the timed section
	events    uint64        // numerator of events_per_s
	jobEvents uint64        // numerator of job_events_per_s
	mem       memDelta      // runtime.MemStats delta over the timed section
	digest    string        // simulated output, compared across repetitions

	// spans holds the host seconds of each experiments.Run (suite-quick).
	spans map[string]float64
	// trialMs holds the harness-reported wall time of every trial (suite-quick).
	trialMs []float64
}

// memDelta is the runtime.MemStats difference over a timed section.
type memDelta struct {
	allocBytes, mallocs, gcCycles uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   uint64(after.NumGC - before.NumGC),
	}
}

// workload is one named benchmark workload.
type workload struct {
	// setup builds what the timed section needs, discards it and returns the
	// host time it took. The run repeats it setupReps times on a warm heap, so
	// setup_s is a median of many samples and leaves out page faults a first
	// build in a fresh process would add.
	setup     func(seed int64) (time.Duration, error)
	setupReps int
	// run performs one set-up and timed section. A non-nil tracer selects the
	// traced variant (decision trace and delivery observer on) and receives
	// what the repetition's public counters expose.
	run func(seed int64, tr *tracer) (rep, error)
	// layers reports the per-layer metrics from a traced run's data.
	layers func(seed int64, tr *tracer, plain []rep, v layerSet) error
}

var workloadsByName = map[string]workload{
	"suite-quick":      suiteQuick,
	"daint-halo3d":     daintHalo3D,
	"daint-openstream": daintOpenStream,
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
}

type metrics []metric

func (m *metrics) add(name string, value float64, unit string, n int) {
	*m = append(*m, metric{name: name, unit: unit, value: value, n: n})
}

// checker counts attempted and failed operations. A repetition fails when it
// returns an error or its digest differs from the reference: the pinned digest
// at seed 1, the first successful repetition's at any other seed.
type checker struct {
	want              string
	attempted, failed int
	printed           bool
}

func (c *checker) check(what, digest string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		return
	}
	if !c.printed {
		fmt.Printf("digest %s\n", digest)
		c.printed = true
	}
	if c.want == "" {
		c.want = digest
	}
	if digest != c.want {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s digest mismatch:\n got %s\nwant %s\n", what, digest, c.want)
	}
}

// minReps is the fewest repetitions a run makes, however short --seconds is,
// so every median rests on at least three samples.
const minReps = 3

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	cpuprofile string
	describe   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite-quick, daint-halo3d or daint-openstream")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "traced run: write a CPU profile of one untraced repetition to this file")
	flag.StringVar(&cfg.describe, "describe", "unknown", "source version (git describe) for the environment block")
	flag.Parse()
	if err := benchmark(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(cfg config) error {
	w, ok := workloadsByName[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", cfg.trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	var p pins
	if err := json.Unmarshal(digestsJSON, &p); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	c := &checker{}
	if cfg.seed == 1 {
		if c.want = p.Workloads[cfg.workload]; c.want == "" {
			return fmt.Errorf("digests.json pins no seed-1 digest for %s", cfg.workload)
		}
	}
	if cfg.workload == "suite-quick" {
		pinned := " " + p.Workloads[cfg.workload] + " "
		for id, h := range p.Golden {
			if !strings.Contains(pinned, " "+id+"="+h+" ") {
				return fmt.Errorf("digests.json: the pinned suite-quick digest lacks the golden hash %s=%s", id, h)
			}
		}
	}
	if err := printEnvironment(cfg); err != nil {
		return err
	}
	var m metrics
	var err error
	if cfg.trace == 0 {
		err = measure(w, cfg, c, &m)
	} else {
		err = traced(w, cfg, c, &m)
	}
	if err != nil {
		return err
	}
	return emit(c, m)
}

// measure is the untraced run: it reports every end-to-end metric.
func measure(w workload, cfg config, c *checker, m *metrics) error {
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		d, err := w.setup(cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var walls, events, jobEvents []float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < cfg.seconds; i++ {
		debug.FreeOSMemory()
		r, err := w.run(cfg.seed, nil)
		c.check(fmt.Sprintf("repetition %d", i), r.digest, err)
		if err != nil {
			continue
		}
		wall := r.wall.Seconds()
		walls = append(walls, wall)
		events = append(events, float64(r.events)/wall)
		jobEvents = append(jobEvents, float64(r.jobEvents)/wall)
	}
	if len(walls) == 0 {
		return errors.New("every repetition failed")
	}
	fmt.Printf("samples wall_s %s\n", strings.Trim(fmt.Sprint(walls), "[]"))
	m.add("wall_s", median(walls), "s", len(walls))
	m.add("setup_s", median(setups), "s", len(setups))
	m.add("events_per_s", median(events), "1/s", len(events))
	m.add("job_events_per_s", median(jobEvents), "1/s", len(jobEvents))
	m.add("peak_rss_mb", peakRSSMB(), "MB", 1)
	m.add("ok_frac", 1-float64(c.failed)/float64(c.attempted), "frac", c.attempted)
	return nil
}

// traced is the traced run: untraced and traced repetitions alternate for
// --seconds, one more untraced repetition runs under the CPU profiler, and
// the workload's micro-drivers then time each layer on the traced data. It
// reports every per-layer metric.
func traced(w workload, cfg config, c *checker, m *metrics) error {
	tr := &tracer{}
	var plain []rep
	var plainWalls, tracedWalls []float64
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < cfg.seconds; i++ {
		debug.FreeOSMemory()
		r, err := w.run(cfg.seed, nil)
		c.check(fmt.Sprintf("untraced repetition %d", i), r.digest, err)
		if err == nil {
			plain = append(plain, r)
			plainWalls = append(plainWalls, r.wall.Seconds())
		}
		debug.FreeOSMemory()
		r, err = w.run(cfg.seed, tr)
		// The traced digest must equal the untraced one: counting never
		// perturbs simulated output.
		c.check(fmt.Sprintf("traced repetition %d", i), r.digest, err)
		if err == nil {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
		}
	}
	if len(plain) == 0 || len(tracedWalls) == 0 {
		return errors.New("every repetition failed")
	}
	if cfg.cpuprofile != "" {
		if err := profileRep(w, cfg, c); err != nil {
			return err
		}
	}
	v := layerSet{}
	if err := w.layers(cfg.seed, tr, plain, v); err != nil {
		return err
	}
	var allocMB, mallocs, gcs []float64
	for _, r := range plain {
		allocMB = append(allocMB, float64(r.mem.allocBytes)/(1<<20))
		mallocs = append(mallocs, float64(r.mem.mallocs))
		gcs = append(gcs, float64(r.mem.gcCycles))
	}
	v.set("runtime.alloc_mb", median(allocMB), len(allocMB))
	v.set("runtime.mallocs", median(mallocs), len(mallocs))
	v.set("runtime.gc_cycles", median(gcs), len(gcs))
	v.set("trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1, len(tracedWalls))
	return v.addTo(m)
}

// profileRep runs one untraced repetition under the CPU profiler, so the
// profile's Policy.Route share can be set against the replay estimate of
// routing.share.
func profileRep(w workload, cfg config, c *checker) error {
	f, err := os.Create(cfg.cpuprofile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	debug.FreeOSMemory()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	r, runErr := w.run(cfg.seed, nil)
	pprof.StopCPUProfile()
	c.check("profiled repetition", r.digest, runErr)
	if err := f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	fmt.Printf("cpu profile %s\n", cfg.cpuprofile)
	return nil
}

// emit prints one line per metric, then the JSON result as the last line.
func emit(c *checker, m metrics) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]value{}}
	for _, x := range m {
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return fmt.Errorf("metric %s is not a finite number", x.name)
		}
		fmt.Printf("metric %-28s %-14.6g %-6s n=%d\n", x.name, x.value, x.unit, x.n)
		out.Metrics[x.name] = value{x.value, x.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printEnvironment prints the environment block every result carries.
func printEnvironment(cfg config) error {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"GOMAXPROCS": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"describe":   cfg.describe,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("environment %s\n", b)
	return nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
