// Command wormbench is wormlan's benchmark: it runs one named workload
// (a figure grid or a benchmark-defined grid) on a one-worker sweep for a
// fixed host-time budget, checks every simulated point, and prints the
// workload's metrics as a table followed by one JSON line.
//
// Usage, from the repository root:
//
//	bash wormbench/run.sh --workload fig10-torus --seed 1996 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (cpu_s,
// flit_hops_per_s, setup_s, peak_heap_mb) measured through sim.Run with
// nothing traced, CPU times scaled by the host's speed (calib.go).  With
// --trace 1 it alternates untraced passes with traced ones, in which each
// point is composed from the layers' constructors with a timed span around
// every call and the process is CPU-profiled, and reports the per-layer
// metrics.  README.md explains the workloads and metrics.
//
// Exit status: 0 when every point passed every check, 1 when a point
// failed (the JSON line then says correct=false and names nothing; the
// failures are listed on standard error), 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"wormlan/internal/sim"
	"wormlan/internal/sweep"
)

// defaultSeed is the grids' base seed in the presets and the seed the
// reference digests were recorded at.
const defaultSeed = 1996

// Setup is measured this many times per run; setup_s is the median.
const setupReps = 5

// minPasses is the fewest timed grid passes an end-to-end run makes,
// however short --seconds is, so cpu_s is always a median.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wormbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Uint64("seed", defaultSeed, "base seed of the workload's grid")
	seconds := fs.Int("seconds", 25, "host seconds to keep measuring")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "wormbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(stderr, "wormbench: %v\n", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, log: stderr}
	if *seed == ref.Seed {
		wr, ok := ref.Workloads[w.name]
		if !ok || len(wr) != len(w.points) {
			fmt.Fprintf(stderr, "wormbench: reference.json has no entry for %s's %d points\n", w.name, len(w.points))
			return 2
		}
		b.ref = wr
	}
	var rep *report
	if *traceFlag == 0 {
		rep, err = b.endToEnd()
	} else {
		rep, err = b.traced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "wormbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "wormbench: %s: FAIL %s\n", w.name, p)
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "wormbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// bench runs one workload at one seed.
type bench struct {
	w      *workload
	seed   uint64
	budget time.Duration
	ref    workloadRef // nil unless seed is the reference seed
	log    io.Writer   // per-pass timings
}

// pointOut is what one executed point reports back through the sweep.
type pointOut struct {
	digest string // row digest; "" for composed points
	counts pointCounts
	spans  layerSpans
	fail   string
}

// pass is one execution of the whole grid.
type pass struct {
	cpu     float64 // process CPU seconds, calibration excluded
	calib   float64 // mean CPU seconds of the calibration calls (calibrated passes)
	wall    time.Duration
	elapsed []time.Duration // per-point time the sweep engine reports
	points  []pointOut
	profile map[string]int64 // CPU ns by layer (traced passes)
	allocB  uint64           // heap bytes allocated
	gcs     uint64           // GC cycles completed
}

// runPass executes every point of the grid on a one-worker sweep.  exec
// runs one point; a point's own failures land in pointOut.fail, so one bad
// point does not hide the others.  A calibrated pass runs the reference
// kernel after every point (calib.go) and leaves its time out of cpu.
func (b *bench) runPass(exec func(p pointSpec, seed uint64) pointOut, profile, calibrated bool) (*pass, error) {
	g := sweep.Grid[pointOut]{Name: b.w.grid, BaseSeed: b.seed}
	var calib float64
	for _, p := range b.w.points {
		p := p
		g.Add(p.id, func(_ context.Context, s uint64) (pointOut, error) {
			o := exec(p, s)
			if calibrated {
				calib += calibrate()
			}
			return o, nil
		})
	}
	ps := &pass{elapsed: make([]time.Duration, len(g.Points))}
	eng := &sweep.Engine{Workers: 1, OnProgress: func(pr sweep.Progress) { ps.elapsed[pr.Index] = pr.Elapsed }}
	// Start every pass from a collected heap, so one pass's garbage is
	// not charged to the next.
	runtime.GC()
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	alloc0, gc0 := runtimeMetric(heapAllocs), runtimeMetric(gcCycles)
	c0, t0 := cpuSeconds(), time.Now()
	out, err := sweep.Run(context.Background(), eng, g)
	ps.cpu, ps.wall = cpuSeconds()-c0-calib, time.Since(t0)
	ps.calib = calib / float64(len(b.w.points))
	ps.allocB, ps.gcs = runtimeMetric(heapAllocs)-alloc0, runtimeMetric(gcCycles)-gc0
	if profile {
		pprof.StopCPUProfile()
		if ps.profile, err = foldProfile(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	ps.points = out
	return ps, nil
}

// simPoint runs one point through sim.Run, the program's own composition.
func simPoint(p pointSpec, seed uint64) pointOut {
	r, err := sim.Run(p.config(seed))
	if err != nil {
		return pointOut{fail: "run error: " + err.Error()}
	}
	d, err := rowDigest(p.row(r))
	if err != nil {
		return pointOut{fail: err.Error()}
	}
	return pointOut{digest: d, counts: resultCounts(r), fail: pointFailure(r)}
}

// composedPoint runs one point composed from the layers' constructors,
// timing each call into the layer.
func composedPoint(p pointSpec, seed uint64) pointOut {
	var out pointOut
	a, err := compose(p.config, seed, &out.spans)
	if err != nil {
		out.fail = "compose: " + err.Error()
		return out
	}
	if err := a.run(&out.spans); err != nil {
		out.fail = "run error: " + err.Error()
		return out
	}
	out.counts = a.counts()
	return out
}

// checker collects per-point verdicts.
type checker struct {
	w        *workload
	attempts int
	failed   map[[2]int]bool // (pass number, point index)
	problems []string
}

func (c *checker) flag(passNo, i int, format string, args ...any) {
	if c.failed == nil {
		c.failed = map[[2]int]bool{}
	}
	c.failed[[2]int{passNo, i}] = true
	c.problems = append(c.problems, fmt.Sprintf("pass %d, point %s: %s", passNo, c.w.points[i].label, fmt.Sprintf(format, args...)))
}

// checkPasses applies the per-point gate to a series of passes over one
// run path: each point's own failure, exact repetition of its digest and
// counts across passes, and agreement with the reference at the
// reference seed.  passNo numbers the passes from first.
func (c *checker) checkPasses(passes []*pass, first int, ref workloadRef, composed bool) {
	for pi, ps := range passes {
		no := first + pi
		for i, o := range ps.points {
			c.attempts++
			switch {
			case o.fail != "":
				c.flag(no, i, "%s", o.fail)
			case pi > 0 && (o.digest != passes[0].points[i].digest || o.counts != passes[0].points[i].counts):
				c.flag(no, i, "determinism: row %s counts %+v, first pass row %s counts %+v",
					o.digest, o.counts, passes[0].points[i].digest, passes[0].points[i].counts)
			case ref != nil:
				if msg := checkAgainstRef(ref[i], c.w.points[i].label, o.digest, o.counts, composed); msg != "" {
					c.flag(no, i, "%s", msg)
				}
			}
		}
	}
}

// endToEnd measures the workload untraced: setup_s and peak_heap_mb from
// repeated compositions of every point, then whole-grid passes through
// sim.Run until the budget is spent.  Both times are scaled by the speed
// of the reference kernel run beside them (calib.go).
func (b *bench) endToEnd() (*report, error) {
	start := time.Now()
	setups := make([]float64, 0, setupReps)
	// A point's footprint is the least live heap any repetition weighs:
	// anything else the collector happened to find live only adds to it.
	footprint := make([]uint64, len(b.w.points))
	for rep := 0; rep < setupReps; rep++ {
		var cpu float64
		for i, p := range b.w.points {
			_, seed, err := sweep.PointIdentity(b.w.grid, b.seed, p.id)
			if err != nil {
				return nil, err
			}
			// Each point's setup starts from a collected heap and is
			// weighed, still live, after another collection: the live heap
			// then holds exactly one point's stack.
			runtime.GC()
			c0 := cpuSeconds()
			var sp layerSpans
			a, err := compose(p.config, seed, &sp)
			cpu += cpuSeconds() - c0
			if err != nil {
				return nil, fmt.Errorf("setup of %s: %w", p.label, err)
			}
			runtime.GC()
			if live := runtimeMetric(heapLive); rep == 0 || live < footprint[i] {
				footprint[i] = live
			}
			runtime.KeepAlive(a)
		}
		setups = append(setups, cpu*calibRefS/calibrate())
	}
	var passes []*pass
	for len(passes) < minPasses || time.Since(start) < b.budget {
		ps, err := b.runPass(simPoint, false, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
	}
	for i, ps := range passes {
		fmt.Fprintf(b.log, "wormbench: %s: pass %d: cpu %.3f s, wall %.3f s, calibration %.1f ms\n",
			b.w.name, i+1, ps.cpu, ps.wall.Seconds(), ps.calib*1e3)
	}
	c := &checker{w: b.w}
	c.checkPasses(passes, 1, b.ref, false)

	// Each pass's CPU time, scaled to the speed the host had while it ran.
	cpus := make([]float64, len(passes))
	for i, ps := range passes {
		cpus[i] = ps.cpu * calibRefS / ps.calib
	}
	var hops int64
	for _, o := range passes[0].points {
		hops += o.counts.FlitHops
	}
	cpu := median(cpus)
	rep := &report{attempted: c.attempts, failed: len(c.failed), problems: c.problems}
	rep.add("cpu_s", cpu, "s")
	rep.add("flit_hops_per_s", ratio(float64(hops), cpu), "1/s")
	rep.add("setup_s", median(setups), "s")
	rep.add("peak_heap_mb", float64(slices.Max(footprint))/(1<<20), "MB")
	return rep, nil
}

// traced alternates untraced passes (sim.Run) with traced ones (composed
// points, timed spans, CPU profile) until the budget is spent, checks
// that both paths simulated the same thing, and reports the per-layer
// metrics.
func (b *bench) traced() (*report, error) {
	start := time.Now()
	var plain, traced []*pass
	for len(traced) == 0 || time.Since(start) < b.budget {
		u, err := b.runPass(simPoint, false, false)
		if err != nil {
			return nil, err
		}
		t, err := b.runPass(composedPoint, true, false)
		if err != nil {
			return nil, err
		}
		plain, traced = append(plain, u), append(traced, t)
	}
	c := &checker{w: b.w}
	c.checkPasses(plain, 1, b.ref, false)
	c.checkPasses(traced, len(plain)+1, b.ref, true)
	// Fidelity: a composed point must have simulated exactly what sim.Run
	// simulates for the same configuration and seed.
	for i, o := range traced[0].points {
		u := plain[0].points[i].counts
		tc := o.counts
		if o.fail == "" && (tc.Injected != u.Injected || tc.Delivered != u.Delivered ||
			tc.FlitHops != u.FlitHops || tc.Events != u.Events) {
			c.flag(len(plain)+1, i, "fidelity: composed injected/delivered/flit-hops/events %d/%d/%d/%d, sim.Run %d/%d/%d/%d",
				tc.Injected, tc.Delivered, tc.FlitHops, tc.Events, u.Injected, u.Delivered, u.FlitHops, u.Events)
		}
	}

	// Span and count sums per traced pass; times are medians over passes,
	// counts are the first pass's (every pass repeats them exactly).
	sums := make([]layerSpans, len(traced))
	var counts pointCounts
	for pi, ps := range traced {
		for _, o := range ps.points {
			sums[pi].add(o.spans)
			if pi == 0 {
				counts.add(o.counts)
			}
		}
	}
	med := func(f func(pi int) float64) float64 {
		xs := make([]float64, len(traced))
		for pi := range traced {
			xs[pi] = f(pi)
		}
		return median(xs)
	}
	ms := func(get func(s *layerSpans) int64) float64 {
		return med(func(pi int) float64 { return float64(get(&sums[pi])) / 1e6 })
	}
	runS := ms(func(s *layerSpans) int64 { return s.runNs }) / 1e3

	rep := &report{attempted: c.attempts, failed: len(c.failed), problems: c.problems}
	rep.add("topology.build_ms", ms(func(s *layerSpans) int64 { return s.topologyNs }), "ms")
	rep.add("updown.new_ms", ms(func(s *layerSpans) int64 { return s.updownNewNs }), "ms")
	rep.add("updown.table_ms", ms(func(s *layerSpans) int64 { return s.updownTableNs }), "ms")
	rep.add("vcroute.table_ms", ms(func(s *layerSpans) int64 { return s.vcrouteTableNs }), "ms")
	rep.add("network.adaptive_table_ms", ms(func(s *layerSpans) int64 { return s.adaptiveTableNs }), "ms")
	rep.add("network.new_ms", ms(func(s *layerSpans) int64 { return s.networkNewNs }), "ms")
	rep.add("adapter.new_ms", ms(func(s *layerSpans) int64 { return s.adapterNewNs }), "ms")
	rep.add("traffic.new_ms", ms(func(s *layerSpans) int64 { return s.trafficNewNs }), "ms")
	rep.add("setup.alloc_mb", med(func(pi int) float64 { return float64(sums[pi].setupAllocBytes) / (1 << 20) }), "MB")

	rep.add("des.run_s", runS, "s")
	rep.add("des.events", float64(counts.Events), "count")
	rep.add("des.ticks", float64(counts.Ticks), "count")
	rep.add("des.events_per_tick", ratio(float64(counts.Events), float64(counts.Ticks)), "ratio")
	rep.add("des.max_queue", float64(counts.MaxQueue), "count")
	rep.add("des.ns_per_event", ratio(runS*1e9, float64(counts.Events)), "ns")
	rep.add("network.flit_hops", float64(counts.FlitHops), "count")
	rep.add("network.ns_per_flit_hop", ratio(runS*1e9, float64(counts.FlitHops)), "ns")
	rep.add("network.worms_delivered", float64(counts.Delivered), "count")
	rep.add("network.skipped_ticks", float64(counts.SkippedTicks), "count")
	rep.add("network.skip_frac", ratio(float64(counts.SkippedTicks), float64(counts.Ticks)), "ratio")
	rep.add("adapter.send_ms", ms(func(s *layerSpans) int64 { return s.sendNs }), "ms")
	rep.add("adapter.sends", float64(counts.Sends), "count")
	rep.add("adapter.forwards", float64(counts.Forwards), "count")
	rep.add("adapter.retransmits", float64(counts.Retransmits), "count")
	rep.add("adapter.nacks", float64(counts.Nacks), "count")

	// The sweep layer is read off the untraced passes, whose points run
	// the program's own composition.
	overheads := make([]float64, len(plain))
	for i, ps := range plain {
		var sum time.Duration
		for _, e := range ps.elapsed {
			sum += e
		}
		overheads[i] = (ps.wall - sum).Seconds()
	}
	pointMs := make([]float64, len(plain[0].elapsed))
	for i, e := range plain[0].elapsed {
		pointMs[i] = float64(e) / 1e6
	}
	rep.add("sweep.overhead_s", median(overheads), "s")
	rep.add("sweep.point_p50_ms", median(pointMs), "ms")

	rep.add("runtime.alloc_mb", med(func(pi int) float64 { return float64(traced[pi].allocB) / (1 << 20) }), "MB")
	rep.add("runtime.gc_cycles", med(func(pi int) float64 { return float64(traced[pi].gcs) }), "count")

	byLayer := map[string]int64{}
	var total int64
	for _, ps := range traced {
		for l, ns := range ps.profile {
			byLayer[l] += ns
			total += ns
		}
	}
	for _, l := range append(shareLayers, "other") {
		rep.add("cpu_share."+l, ratio(float64(byLayer[l]), float64(total)), "ratio")
	}

	tracedCPU := med(func(pi int) float64 { return traced[pi].cpu })
	plainCPU := make([]float64, len(plain))
	for i, ps := range plain {
		plainCPU[i] = ps.cpu
	}
	rep.add("trace.cpu_s", tracedCPU, "s")
	rep.add("trace.overhead_frac", ratio(tracedCPU, median(plainCPU))-1, "ratio")
	// What the layer spans do not cover: sweep and per-point bookkeeping
	// on the worker, and CPU spent off it (GC workers, the profiler).
	rep.add("trace.uncovered_frac", med(func(pi int) float64 {
		covered := float64(sums[pi].setupNs()+sums[pi].runNs) / 1e9
		return 1 - ratio(covered, traced[pi].cpu)
	}), "ratio")
	return rep, nil
}

func (c *pointCounts) add(o pointCounts) {
	c.Injected += o.Injected
	c.Delivered += o.Delivered
	c.FlitHops += o.FlitHops
	c.Events += o.Events
	c.Ticks += o.Ticks
	c.MaxQueue = max(c.MaxQueue, o.MaxQueue)
	c.SkippedTicks += o.SkippedTicks
	c.Sends += o.Sends
	c.Forwards += o.Forwards
	c.Retransmits += o.Retransmits
	c.Nacks += o.Nacks
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is one run's verdict and metrics.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// write prints the metric table, then the result as one JSON line.
func (r *report) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
