// Command perfbench is MCFS's real-clock benchmark. It drives one named
// workload through the public mcfs facade (NewSession, Run,
// VerifyTrail/VerifyCrashTrail) as a closed loop of one engine in one
// process, checks every output, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics of an untraced pass.
// With -trace 1 it runs an untraced pass and then a traced pass over
// the same runs, checks that both explored exactly the same space, and
// reports per-layer metrics measured from outside the program: a timing
// decorator on every tracker, the engine's phase profiler on a wall
// clock, an attached obs.Hub, and spans around every call into a layer.
//
// Run it through run.py, which builds it; README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/perf"
)

//lint:ignore walltime the benchmark measures real elapsed time; no reading reaches the engine's hashed or journaled state
var epoch = time.Now()

// wallNow is the benchmark's only clock: wall time since start.
func wallNow() time.Duration {
	//lint:ignore walltime same wall clock as epoch; durations are reported, never fed back into exploration
	return time.Since(epoch)
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall seconds")
	traceFlag := flag.Int("trace", 0, "1 = per-layer metrics from a traced pass")
	spanDir := flag.String("spans", "", "directory the traced pass writes its spans to")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	w, isHunt, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{name: *name, w: w, hunt: isHunt, seed: *seed, probe: newHostProbe()}
	dur := time.Duration(*seconds * float64(time.Second))
	var out result
	if *traceFlag == 1 {
		out, err = b.traced(dur, *spanDir)
	} else {
		out, err = b.untraced(dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counts is what a run explored; a traced and an untraced run of the
// same inputs must agree on it exactly.
type counts struct {
	ops, unique, revisits, crashPoints int64
	bug                                bool
	trail                              int
}

// run is one session: an exploration run, or one hunt and its replay.
type run struct {
	counts
	setup, search, replay time.Duration
	searchCPU, verdictCPU time.Duration // process CPU time in Run, and in NewSession plus Run
	virtual               time.Duration
	crash                 mcfs.CrashStats
	memPeak               int64
	rss                   int64 // resident-set high-water mark during the run, bytes
	opsToBug              int64
	failure               string // "" when the run succeeded
	class                 failClass
}

// failClass sorts failed runs for the hunt layer's counts.
type failClass int

const (
	failEngine failClass = iota + 1
	failNotFound
	failUnreproduced
	failCheck // a clean pair that found a discrepancy or ran out of space
)

// pass is a sequence of runs under one instrumentation setting.
type pass struct {
	runs    []run
	alloc   uint64
	mallocs uint64
	gcs     uint32
	gcCPU   float64
	cpu     float64

	// Traced passes only.
	tr        *tracing
	phases    []time.Duration // perf.Phases() order, summed over runs
	syscalls  int64
	remounts  int64
	fuseReqs  int64
	devReads  int64
	devWrites int64
	devErases int64
}

type bench struct {
	name  string
	w     explore
	hunt  bool
	seed  int64
	probe *hostProbe // timed between the runs of untraced passes
}

// groupSize is the number of runs one rate sample covers: a run for the
// explore workloads, a full cycle over the seeded bugs for hunts.
func (b *bench) groupSize() int {
	if b.hunt {
		return len(seededBugs)
	}
	return 1
}

// options returns run i's session options and whether it hunts the
// crash-only bug.
func (b *bench) options(i int) (mcfs.Options, bool) {
	if b.hunt {
		bug, opts := hunt(b.seed, i)
		return opts, bug.crash
	}
	return options(b.w.targets, b.w.depth, b.w.budget, derivedSeed(b.seed, i), b.w.crash), false
}

// runOnce executes run i. tr is nil for an untraced run.
func (b *bench) runOnce(i int, tr *tracing, p *pass) (r run) {
	opts, crashHunt := b.options(i)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	defer func() {
		runtime.ReadMemStats(&m1)
		p.alloc += m1.TotalAlloc - m0.TotalAlloc
		p.mallocs += m1.Mallocs - m0.Mallocs
	}()
	root := tr.begin(layerBench, b.name)
	defer tr.end(root)

	resetPeakRSS()
	defer func() { r.rss = peakRSS() }()
	cpu0 := cpuTime()
	s, setup, err := b.session(opts, tr)
	r.setup = setup
	if err != nil {
		r.class, r.failure = failEngine, "setup: "+err.Error()
		return r
	}
	cpu1 := cpuTime()
	start := wallNow()
	sp := tr.begin(layerMC, "run")
	res := s.Run()
	tr.end(sp)
	r.search = wallNow() - start
	cpu2 := cpuTime()
	r.searchCPU, r.verdictCPU = cpu2-cpu1, cpu2-cpu0
	b.collect(s, tr, p)
	s.Close()

	r.counts = counts{ops: res.Ops, unique: res.UniqueStates, revisits: res.Revisits,
		crashPoints: res.Crash.PointsExplored, bug: res.Bug != nil}
	r.virtual = res.Elapsed
	r.crash = res.Crash
	r.memPeak = s.MemoryStats().PeakBytes
	switch {
	case res.Err != nil:
		r.class, r.failure = failEngine, "engine error: "+res.Err.Error()
	case !b.hunt && res.Bug != nil:
		r.class, r.failure = failCheck, "discrepancy on a clean pair: "+res.Bug.Discrepancy.Error()
	case !b.hunt && res.Ops < b.w.budget:
		r.class, r.failure = failCheck, fmt.Sprintf("space exhausted after %d of %d ops", res.Ops, b.w.budget)
	case b.hunt && res.Bug == nil:
		r.class, r.failure = failNotFound, fmt.Sprintf("no bug within %d ops", res.Ops)
	case b.hunt:
		r.trail = len(res.Bug.Trail)
		r.opsToBug = res.Bug.OpsExecuted
		r.replay, r.failure = b.verify(opts, res.Bug, crashHunt, tr, p)
		if r.failure != "" {
			r.class = failUnreproduced
		}
	}
	return r
}

// session builds one session, timing NewSession and, when traced,
// attaching the hub, the wall-clock profiler and the tracker decorators.
func (b *bench) session(opts mcfs.Options, tr *tracing) (*mcfs.Session, time.Duration, error) {
	if tr != nil {
		opts.Obs = obs.New(obs.Options{})
		opts.Perf = perf.New(nil)
	}
	sp := tr.begin(layerSetup, "new-session")
	start := wallNow()
	s, err := mcfs.NewSession(opts)
	setup := wallNow() - start
	tr.end(sp)
	if err != nil {
		return nil, setup, err
	}
	if tr != nil {
		s.Perf().SetNow(wallNow)
		tr.wrap(s, opts.Targets)
	}
	return s, setup, nil
}

// verify replays a hunt's trail on a fresh session; the returned
// failure is "" when the trail reproduces a discrepancy of the same
// kind.
func (b *bench) verify(opts mcfs.Options, bug *mcfs.BugReport, crash bool, tr *tracing, p *pass) (time.Duration, string) {
	start := wallNow()
	s, _, err := b.session(opts, tr)
	if err != nil {
		return wallNow() - start, "replay setup: " + err.Error()
	}
	sp := tr.begin(layerReplay, "verify-trail")
	want := &mcfs.Discrepancy{Kind: bug.Discrepancy.Kind}
	var same bool
	if crash {
		_, same, err = s.VerifyCrashTrail(bug.Trail, bug.Crash, want)
	} else {
		_, same, err = s.VerifyTrail(bug.Trail, want)
	}
	tr.end(sp)
	b.collect(s, tr, p)
	s.Close()
	d := wallNow() - start
	switch {
	case err != nil:
		return d, "replay error: " + err.Error()
	case !same:
		return d, "trail does not reproduce on a fresh session"
	}
	return d, ""
}

// collect folds a traced session's hub counters and phase totals into
// the pass.
func (b *bench) collect(s *mcfs.Session, tr *tracing, p *pass) {
	if tr == nil {
		return
	}
	snap := s.Obs().Snapshot()
	p.syscalls += snap.Counters[obs.MetricSyscalls]
	p.fuseReqs += snap.Counters[obs.MetricFuseRequests]
	p.remounts += snap.Histograms[obs.MetricRemount].Count
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "blockdev.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".reads"):
			p.devReads += v
		case strings.HasSuffix(name, ".writes"):
			p.devWrites += v
		case strings.HasSuffix(name, ".erases"):
			p.devErases += v
		}
	}
	for i, d := range s.Perf().PhaseTotals() {
		p.phases[i] += d
	}
}

// minRuns is the fewest runs a timed pass makes: minGroups rate
// samples, and on hunts the whole hunt set at least once.
func (b *bench) minRuns() int {
	const minGroups = 3
	if b.hunt {
		return max(minGroups*b.groupSize(), huntSet)
	}
	return minGroups
}

// distinct returns the runs of a pass with inputs of their own: every
// run of an explore workload, the first pass over the hunt set on hunts.
func (b *bench) distinct(p *pass) []run {
	if b.hunt && len(p.runs) > huntSet {
		return p.runs[:huntSet]
	}
	return p.runs
}

// measure runs the workload from run 0 until dur has passed (and at
// least minRuns runs ran), or for exactly n runs when n > 0.
// Between explore runs it takes setupEvery extra NewSession samples
// into setups, when that is non-nil.
func (b *bench) measure(dur time.Duration, n int, tr *tracing, setups *[]float64) *pass {
	p := &pass{tr: tr, phases: make([]time.Duration, len(perf.Phases()))}
	var m0, m1 runtime.MemStats
	cpu0 := cpuSeconds()
	runtime.ReadMemStats(&m0)
	start := wallNow()
	for i := 0; ; i++ {
		if n > 0 && i == n {
			break
		}
		if n == 0 && i%b.groupSize() == 0 && i >= b.minRuns() && wallNow()-start >= dur {
			break
		}
		if tr == nil {
			b.probe.maybe()
		}
		p.runs = append(p.runs, b.runOnce(i, tr, p))
		if setups != nil && !b.hunt {
			opts, _ := b.options(i)
			for j := 0; j < setupEvery; j++ {
				// A failing NewSession already failed the run itself.
				s, d, err := b.session(opts, nil)
				if err == nil {
					s.Close()
					*setups = append(*setups, d.Seconds())
				}
			}
		}
	}
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSeconds()
	p.gcs = m1.NumGC - m0.NumGC
	p.gcCPU = cpu1[0] - cpu0[0]
	p.cpu = cpu1[1] - cpu0[1]
	return p
}

// setupEvery is the number of extra session assemblies timed after each
// explore run: one NewSession is sub-millisecond and jitters with GC
// timing, so setup_s is a median over many, spread across the run.
const setupEvery = 10

// cpuSeconds reads the runtime's estimates of the CPU time the GC used
// and of the CPU time available to the process (GOMAXPROCS × wall).
func cpuSeconds() [2]float64 {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var out [2]float64
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindFloat64 {
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// warmUp runs the first rate sample untimed, so heap growth and lazy
// initialisation are not measured. The measured pass repeats those
// runs, which must explore exactly the same counts.
func (b *bench) warmUp() []run {
	p := &pass{phases: make([]time.Duration, len(perf.Phases()))}
	var runs []run
	for i := 0; i < b.groupSize(); i++ {
		runs = append(runs, b.runOnce(i, nil, p))
	}
	return runs
}

// agree reports whether two passes over the same runs explored, found
// and failed exactly alike, printing every mismatch.
func agree(what string, a, b []run) bool {
	ok := true
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].counts != b[i].counts || a[i].failure != b[i].failure {
			ok = false
			fmt.Fprintf(os.Stderr, "perfbench: run %d differs (%s): %+v %q vs %+v %q\n", i, what,
				a[i].counts, a[i].failure, b[i].counts, b[i].failure)
		}
	}
	return ok
}

func (b *bench) untraced(dur time.Duration) (result, error) {
	warm := b.warmUp()
	var setups []float64
	p := b.measure(dur, 0, nil, &setups)
	out := b.outcome(p)
	out.Correct = out.Correct && agree("warm-up vs measured", warm, p.runs)
	setup := b.typical(p, setups, func(r run) (float64, bool) { return r.setup.Seconds(), true })
	rss := b.typical(p, nil, func(r run) (float64, bool) { return float64(r.rss) / (1 << 20), true })
	tot := b.groups(p).total()
	// The CPU figures at the probe's reference host speed.
	slow := b.probe.slowdown()
	fmt.Fprintf(os.Stderr, "perfbench: host probe %.3f ms, the median of %d\n", quantile(b.probe.cpu, 0.5)*1e3, len(b.probe.cpu))
	out.Metrics = map[string]metric{
		"ops_per_cpu_s":      {b.opsRate(p, true) * slow, "1/s"},
		"states_per_cpu_s":   {b.opsRate(p, true) * slow * tot.unique / tot.ops, "1/s"},
		"verdict_cpu_p50_ms": {b.verdict(p, true) / slow, "ms"},
		"virtual_ops_per_s":  {tot.ops / tot.virtual, "1/s"},
		"alloc_bytes_per_op": {float64(p.alloc) / tot.ops, "B"},
		"peak_rss_mb":        {rss, "MiB"},
		"setup_s":            {setup, "s"},
	}
	b.report(p, out)
	return out, nil
}

// opsRate is explored ops per CPU second of the process (all threads:
// engine, GC, FUSE server, fsck workers), or per wall second, during
// Run: the median over rate samples. On a shared host, wall time also
// counts the CPU time the hypervisor steals, which moves wall rates
// from one run of the benchmark to the next by a fifth or more; CPU
// time does not count it.
func (b *bench) opsRate(p *pass, cpu bool) float64 {
	return b.groups(p).median(func(x group) float64 {
		if cpu {
			return x.ops / x.cpu
		}
		return x.ops / x.search
	})
}

// verdict is the typical time from NewSession until Run returns, in
// CPU or wall milliseconds: on hunts, the time to bug.
func (b *bench) verdict(p *pass, cpu bool) float64 {
	return b.typical(p, nil, func(r run) (float64, bool) {
		d := r.setup + r.search
		if cpu {
			d = r.verdictCPU
		}
		return d.Seconds() * 1e3, !b.hunt || r.bug
	})
}

// typical is the median of f over the runs (and the extra samples),
// or for hunts the geometric mean over the bug configurations of each
// one's median. Which hunts fail varies with the seed, and a median over
// the mixed configurations would jump between them. The configurations
// differ in cost by an order of magnitude, and a geometric mean weighs
// each one's seed-to-seed variation alike, where an arithmetic mean
// would follow the costliest. f reports false for a run without a
// sample.
func (b *bench) typical(p *pass, extra []float64, f func(run) (float64, bool)) float64 {
	size := b.groupSize()
	var logs float64
	var configs int
	for k := 0; k < size; k++ {
		var vs []float64
		if size == 1 {
			vs = extra
		}
		for i := k; i < len(p.runs); i += size {
			if v, ok := f(p.runs[i]); ok {
				vs = append(vs, v)
			}
		}
		if m := quantile(vs, 0.5); m > 0 {
			logs += math.Log(m)
			configs++
		}
	}
	if configs == 0 {
		return 0
	}
	return math.Exp(logs / float64(configs))
}

func (b *bench) traced(dur time.Duration, spanDir string) (result, error) {
	warm := b.warmUp()
	// The untraced pass gets a little under half the time: the traced
	// pass repeats exactly its runs and is slower.
	u := b.measure(dur*9/20, 0, nil, nil)
	t := b.measure(0, len(u.runs), newTracing(), nil)
	out := b.outcome(u)
	out.Correct = out.Correct && agree("warm-up vs measured", warm, u.runs)
	out.Correct = out.Correct && agree("untraced vs traced", u.runs, t.runs)
	if spanDir != "" {
		if err := t.tr.rec.write(filepath.Join(spanDir, "spans-"+b.name+".jsonl")); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	out.Metrics = b.layers(u, t)
	b.report(u, out)
	return out, nil
}

// outcome counts attempts and failures over the distinct runs; a
// failed explore run is also an output check failure, a failed hunt is
// counted and reported. A repeated hunt must end exactly as its first
// run did.
func (b *bench) outcome(p *pass) result {
	runs := b.distinct(p)
	out := result{Correct: true, Attempted: len(runs)}
	// Run i+huntSet repeats run i.
	out.Correct = agree("first vs repeated hunts", p.runs, p.runs[len(runs):])
	for _, r := range runs {
		if r.failure == "" {
			continue
		}
		out.Failed++
		if !b.hunt {
			out.Correct = false
		}
	}
	return out
}

// report prints a human summary to standard error.
func (b *bench) report(p *pass, out result) {
	reasons := map[string]int{}
	for _, r := range b.distinct(p) {
		if r.failure != "" {
			reasons[r.failure]++
		}
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d runs, %d distinct, %d failed, correct=%v\n",
		b.name, b.seed, len(p.runs), out.Attempted, out.Failed, out.Correct)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %4d × %s\n", reasons[k], k)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// group is one rate sample: a run, or a cycle of hunts.
type group struct {
	ops, unique          float64
	search, cpu, virtual float64 // seconds
}

type groups []group

func (b *bench) groups(p *pass) groups {
	var gs groups
	size := b.groupSize()
	for i := 0; i+size <= len(p.runs); i += size {
		var g group
		for _, r := range p.runs[i : i+size] {
			g.ops += float64(r.counts.ops)
			g.unique += float64(r.unique)
			g.search += r.search.Seconds()
			g.cpu += r.searchCPU.Seconds()
			g.virtual += r.virtual.Seconds()
		}
		gs = append(gs, g)
	}
	return gs
}

func (gs groups) median(f func(group) float64) float64 {
	vs := make([]float64, len(gs))
	for i, g := range gs {
		vs[i] = f(g)
	}
	return quantile(vs, 0.5)
}

// total sums every sample.
func (gs groups) total() group {
	var t group
	for _, g := range gs {
		t.ops += g.ops
		t.unique += g.unique
		t.search += g.search
		t.cpu += g.cpu
		t.virtual += g.virtual
	}
	return t
}

// quantile returns the q-quantile of vs by linear interpolation
// between closest ranks (0 for no samples).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
