// Command mcfs model-checks two (or more) file systems against each
// other, reporting the first behavioral discrepancy with the precise
// operation trail that produced it.
//
// Usage:
//
//	mcfs -fs ext2 -fs ext4 [-depth 3] [-max-ops 100000] [-seed 0]
//	     [-bug name] [-backing ram|ssd|hdd] [-no-remount]
//	     [-crash] [-crash-points K]
//	     [-swarm N] [-share-visited] [-parallelism P]
//	     [-visited exact|compact|bitstate] [-mem-budget 64M]
//	     [-bitstate-bytes 8M]
//	     [-progress 1s] [-stall-ops N] [-metrics-addr :8080]
//	     [-trace-dump] [-coverage] [-journal file] [-bundle dir]
//	     [-events file] [-top 1s] [-crash-heatmap file]
//	mcfs replay <bundle-dir>
//	mcfs shrink <bundle-dir>
//
// Supported -fs kinds: ext2, ext4, xfs, jffs2, verifs1, verifs2.
// Seedable -bug names (applied to the LAST -fs target):
// truncate-no-zero, no-cache-invalidate, write-hole-no-zero,
// size-update-on-overflow, journal-commit-first (ext4).
//
// Crash exploration: -crash crash-tests every explored operation's write
// window on each crash-testable target (ext2/ext4/jffs2 with per-op
// remounts) — power loss is simulated at up to -crash-points sampled
// write indices, the target is remounted through its recovery path, and
// the recovered state is checked against a prefix-consistency oracle
// (for ext4: fsck is clean and metadata equals the pre-op or post-op
// state). Crash bugs carry the trail plus the exact (target, write)
// crash point and flow through -bundle / replay / shrink like any other
// discrepancy.
//
// Observability: -progress prints a Spin-style status line per engine at
// the given wall-clock interval (one lane per swarm worker, plus a merged
// swarm line); -stall-ops warns when that many operations pass without a
// globally-novel state; -metrics-addr serves the aggregated metrics as
// JSON at /metrics (plus net/http/pprof under /debug/pprof/); -trace-dump
// prints the cross-layer span trace of a reported bug trail; -coverage
// prints the per-(operation, errno) outcome matrix after the run.
//
// Live stream: -events records every exploration event (steps, crash
// verdicts, worker heartbeats, bugs) as NDJSON in deterministic virtual
// time; -top refreshes a per-worker status block (health, counters,
// check latency quantiles) on stderr; -metrics-addr additionally serves
// the stream at /events (NDJSON) and worker health at /workers; with
// -crash, -crash-heatmap writes the aggregated crash-verdict heatmap
// (rows = ops, cols = write index, cells = b0/b1/fsck-repaired/bug) and
// prints its text grid.
//
// Bounded memory: -visited selects the visited-table backend — exact
// (default), compact (64-bit hash compaction, Spin -DHC), or bitstate
// (fixed-RAM Bloom filter, Spin -DBITSTATE; sized by -bitstate-bytes).
// -mem-budget arms the memory governor: the modeled footprint is
// watched against the budget (K/M/G suffixes), and instead of dying
// out of memory the table degrades — deep exact entries are evicted at
// the soft watermark, then the backend migrates exact→compact→bitstate
// at the hard watermark. The run reports its final fidelity and the
// estimated omission probability; reduced-fidelity runs cannot export
// resume state.
//
// Flight recorder: -journal records every nondeterministic engine choice
// to a crash-safe JSONL file; -bundle dumps a bug-repro bundle directory
// (config, bug + trail, journal, metrics, coverage) whenever the run
// reports a discrepancy. "mcfs replay <dir>" re-executes a bundle's trail
// (and its journal, when present) against fresh targets and exits 0 iff
// the recorded discrepancy reproduces; "mcfs shrink <dir>" delta-debugs
// the trail to a locally-minimal repro written back into the bundle.
//
// Examples:
//
//	mcfs -fs ext2 -fs ext4                  # cross-check two kernel FSes
//	mcfs -fs verifs1 -fs verifs2            # checkpoint/restore tracking
//	mcfs -fs verifs1 -fs verifs2 -bug write-hole-no-zero -trace-dump
//	mcfs -fs verifs1 -fs verifs2 -swarm 4 -progress 1s -metrics-addr :0
//	mcfs -fs verifs1 -fs verifs2 -swarm 8 -share-visited -parallelism 4
//	mcfs -fs verifs1 -fs verifs2 -bug write-hole-no-zero -bundle ./bug1
//	mcfs replay ./bug1 && mcfs shrink ./bug1
//	mcfs -fs ext2 -fs ext4 -bug journal-commit-first -crash -depth 1
//
// Swarm mode is coordinated: the first worker to find a bug (or fail)
// cancels the rest, -share-visited makes workers prune states their
// peers already expanded, and -parallelism bounds how many of the N
// workers run at once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/perf"
	"mcfs/internal/obs/stream"
)

// metricsDoc is the /metrics JSON document: the merged hub snapshot's
// flat sections (counters, gauges, histograms) plus a "perf" section
// with the merged phase profile when phase profiling is on.
type metricsDoc struct {
	obs.Snapshot
	Perf *perf.Snapshot `json:"perf,omitempty"`
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "replay":
			os.Exit(runReplay(os.Args[2:]))
		case "shrink":
			os.Exit(runShrink(os.Args[2:]))
		}
	}
	os.Exit(run())
}

// run is the default (checking) mode; its return value is the process
// exit code, so deferred cleanup (journal close, temp files, metrics
// server) still executes.
func run() int {
	var fsKinds, bugs stringList
	flag.Var(&fsKinds, "fs", "file system under test (repeat; at least two)")
	flag.Var(&bugs, "bug", "seed a named bug into the last -fs target (repeatable)")
	depth := flag.Int("depth", 3, "maximum operation-sequence depth")
	maxOps := flag.Int64("max-ops", 100000, "operation budget (0 = unlimited)")
	maxStates := flag.Int64("max-states", 0, "unique-state budget (0 = unlimited)")
	seed := flag.Int64("seed", 0, "search-order seed (0 = deterministic enumeration)")
	backing := flag.String("backing", "ram", "device backing for kernel FSes: ram, ssd, hdd")
	noRemount := flag.Bool("no-remount", false, "disable per-operation remounts for kernel FSes")
	crash := flag.Bool("crash", false, "crash-test each operation's write window (ext2/ext4/jffs2 targets)")
	crashPoints := flag.Int("crash-points", 0, "max crash points sampled per operation (0 = default)")
	fsckWorkers := flag.Int("fsck-workers", 0, "worker pool size for the parallel post-recovery fsck (0 = GOMAXPROCS)")
	swarm := flag.Int("swarm", 0, "run N diversified workers in parallel (0 = single engine)")
	shareVisited := flag.Bool("share-visited", false, "swarm workers share one visited-state table (prune peer-explored states)")
	parallelism := flag.Int("parallelism", 0, "max swarm workers running at once (0 = min(N, GOMAXPROCS))")
	visitedMode := flag.String("visited", "", "visited-table backend: exact (default), compact, or bitstate")
	memBudgetStr := flag.String("mem-budget", "", "memory budget with K/M/G suffix (e.g. 64M); arms the degradation governor")
	bitstateStr := flag.String("bitstate-bytes", "", "bitstate Bloom array size with K/M/G suffix (default: budget/4 or 8M)")
	majority := flag.Bool("majority", false, "with 3+ targets, identify the deviating minority (majority voting)")
	progress := flag.Duration("progress", 0, "print a status line per engine at this wall-clock interval (0 = off)")
	stallOps := flag.Int64("stall-ops", 0, "warn when this many ops pass without a novel state (needs -progress)")
	metricsAddr := flag.String("metrics-addr", "", "serve JSON metrics at this address (/metrics, /debug/pprof/); \":0\" picks a port")
	traceDump := flag.Bool("trace-dump", false, "dump the cross-layer span trace of a reported bug trail (plus the perf phase profile)")
	phaseProfile := flag.Bool("phase-profile", false, "print the engine phase-time breakdown table at end of run")
	coverage := flag.Bool("coverage", false, "print the per-(operation, errno) outcome matrix")
	journalPath := flag.String("journal", "", "record the flight-recorder journal to this JSONL file")
	bundleDir := flag.String("bundle", "", "write a bug-repro bundle to this directory when a discrepancy is found")
	eventsPath := flag.String("events", "", "record the live exploration event stream to this NDJSON file")
	top := flag.Duration("top", 0, "refresh a live per-worker status view at this wall-clock interval (0 = off)")
	heatmapPath := flag.String("crash-heatmap", "", "write the aggregated crash-verdict heatmap (rows = ops, cols = write index) to this JSON file; needs -crash")
	flag.Parse()

	if len(fsKinds) < 2 {
		fmt.Fprintln(os.Stderr, "mcfs: need at least two -fs targets")
		flag.Usage()
		return 2
	}
	memBudget, err := parseSize(*memBudgetStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs: -mem-budget: %v\n", err)
		return 2
	}
	bitstateBytes, err := parseSize(*bitstateStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs: -bitstate-bytes: %v\n", err)
		return 2
	}

	// Observability stays fully off (nil hub, zero overhead) unless a
	// flag needs it. Phase profiling likewise: a nil profiler costs one
	// branch per phase boundary. The event stream follows the same rule:
	// a nil bus costs one branch per emit site.
	obsOn := *progress > 0 || *metricsAddr != "" || *traceDump || *bundleDir != "" || *top > 0
	perfOn := *phaseProfile || *metricsAddr != "" || *traceDump
	streamOn := *eventsPath != "" || *top > 0 || *metricsAddr != ""

	var bus *stream.Bus
	if streamOn {
		bus = stream.New(stream.Options{})
	}

	// The flight recorder journals to -journal; a -bundle without an
	// explicit journal records to a scratch file so the bundle still
	// ships one.
	jpath := *journalPath
	if jpath == "" && *bundleDir != "" {
		f, err := os.CreateTemp("", "mcfs-journal-*.jsonl")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
			return 1
		}
		f.Close()
		jpath = f.Name()
		defer os.Remove(jpath)
	}
	var jw *journal.Writer
	if jpath != "" {
		var err error
		if jw, err = journal.Create(jpath, journal.Options{}); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
			return 1
		}
		defer jw.Close()
	}

	targets := make([]mcfs.TargetSpec, len(fsKinds))
	for i, kind := range fsKinds {
		targets[i] = mcfs.TargetSpec{
			Kind:                kind,
			Backing:             mcfs.Backing(*backing),
			DisablePerOpRemount: *noRemount,
		}
	}
	targets[len(targets)-1].Bugs = bugs
	// base is every engine's Options without its observers; it is also
	// what a bundle records.
	base := mcfs.Options{
		Targets:          targets,
		MaxDepth:         *depth,
		MaxOps:           *maxOps,
		MaxStates:        *maxStates,
		Seed:             *seed,
		MajorityVote:     *majority,
		CrashExploration: *crash,
		CrashPointsPerOp: *crashPoints,
		FsckWorkers:      *fsckWorkers,
		Visited:          *visitedMode,
		BitstateBytes:    bitstateBytes,
		MemBudget:        memBudget,
	}

	// One set of observers per engine, all on the one journal and bus:
	// the single-run case gets one "main" lane, a swarm gets one lane
	// per worker so the progress report shows every worker's
	// depth/states/rate separately.
	nEngines := *swarm
	if nEngines <= 0 {
		nEngines = 1
	}
	observers := make([]mcfs.Observers, nEngines)
	var lanes []obs.Lane
	for i := range observers {
		o := &observers[i]
		o.Journal, o.Stream = jw, bus
		if obsOn {
			o.Obs = obs.New(obs.Options{})
			name := "main"
			if *swarm > 0 {
				name = fmt.Sprintf("w%d", i+1)
			}
			lanes = append(lanes, obs.Lane{Name: name, Hub: o.Obs})
		}
		if perfOn {
			o.Perf = perf.New(nil) // sessions rebase onto their virtual clocks
		}
	}
	if bus != nil && obsOn {
		// Surface ring-overflow drops as obs.stream.dropped on the first
		// hub (merged snapshots sum it in with everything else).
		bus.SetObs(observers[0].Obs)
	}

	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr, func() any {
			return mergeObservers(observers)
		},
			obs.Route{Pattern: "/events", Handler: stream.EventsHandler(bus)},
			obs.Route{Pattern: "/workers", Handler: stream.WorkersHandler(bus)},
		)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (live: /events, /workers)\n", srv.Addr)
	}

	if *eventsPath != "" {
		stopSink, err := startEventSink(bus, *eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
			return 1
		}
		defer stopSink()
	}
	if *top > 0 {
		stopTop := startTopView(bus, observers, *swarm > 0, *top)
		defer stopTop()
	}

	// writeHeatmap dumps the aggregated crash-verdict heatmap artifact
	// and renders its text grid (no-op without -crash-heatmap; a nil
	// heatmap — run without -crash — yields an empty artifact).
	writeHeatmap := func(hm *stream.Heatmap) {
		if *heatmapPath == "" {
			return
		}
		snap := hm.Snapshot()
		data, err := json.MarshalIndent(snap, "", "  ")
		if err == nil {
			err = os.WriteFile(*heatmapPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: crash heatmap: %v\n", err)
			return
		}
		fmt.Println()
		snap.WriteTable(os.Stdout)
		fmt.Fprintf(os.Stderr, "crash heatmap written to %s\n", *heatmapPath)
	}

	reporter := obs.NewReporter(os.Stderr, *progress, lanes)
	if *swarm > 0 {
		reporter.SetAggregate("swarm")
	}
	reporter.SetStallThreshold(*stallOps)
	reporter.Start()
	defer reporter.Stop()

	// writeBundle closes the journal (flushing it) and dumps the
	// bug-repro bundle for res, whose run used seed, with every engine's
	// metrics merged.
	writeBundle := func(seed int64, res mcfs.Result) {
		if err := jw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: journal: %v\n", err)
		}
		var metrics *obs.Snapshot
		if obsOn {
			doc := mergeObservers(observers)
			metrics = &doc.Snapshot
		}
		opts := base
		opts.Seed = seed
		if err := mcfs.WriteBundle(*bundleDir, opts, res, jpath, metrics); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "repro bundle written to %s\n", *bundleDir)
	}

	if *swarm > 0 {
		sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{
			Workers:       *swarm,
			Parallelism:   *parallelism,
			ShareVisited:  *shareVisited,
			Visited:       *visitedMode,
			BitstateBytes: bitstateBytes,
			MemBudget:     memBudget,
			Stream:        bus,
		}, func(seed int64) (mcfs.Options, error) {
			opts := base
			opts.Observers = observers[seed-1]
			return opts, nil
		})
		reporter.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
			return 1
		}
		for i, res := range sr.Workers {
			fmt.Printf("--- worker %d ---\n", i+1)
			if res.Canceled {
				fmt.Printf("stopped early after %d ops (peer found a bug or failed)\n", res.Ops)
				continue
			}
			printResult(res, *traceDump)
		}
		fmt.Printf("--- swarm (merged) ---\n")
		fmt.Printf("operations executed:  %d\n", sr.Ops)
		fmt.Printf("unique states:        %d distinct (%d summed, %d duplicated across workers)\n",
			sr.GlobalUniqueStates, sr.UniqueStates, sr.DuplicateStates)
		fmt.Printf("revisited states:     %d\n", sr.Revisits)
		printFidelity(sr.Fidelity, sr.OmissionProb, sr.ResumeErr)
		printCrashStats(sr.Crash)
		if sr.Err != nil {
			fmt.Fprintf(os.Stderr, "engine error (worker %d): %v\n", sr.ErrWorker+1, sr.Err)
		}
		if sr.Bug != nil {
			fmt.Printf("\nDISCREPANCY (worker %d) after %d operations:\n%v\n",
				sr.BugWorker+1, sr.Bug.OpsExecuted, sr.Bug.Discrepancy)
			fmt.Printf("trail:\n%s", trailOf(sr.Bug))
		}
		if *coverage {
			printCoverage(sr.Coverage, sr.Crash)
		}
		printPerf(mergeObservers(observers).Perf, *phaseProfile, *traceDump)
		writeHeatmap(sr.CrashHeatmap)
		if sr.Bug != nil {
			if *bundleDir != "" {
				// A replay must rebuild the bug worker's options, its seed
				// included; SwarmRun assigned it seed worker+1.
				writeBundle(int64(sr.BugWorker+1), sr.Workers[sr.BugWorker])
			}
			return 3
		}
		if sr.Err != nil {
			if *bundleDir != "" && sr.ErrWorker >= 0 {
				// A run that died (out of memory, say) still leaves its
				// evidence: config, journal, metrics — just no bug.json.
				writeBundle(int64(sr.ErrWorker+1), sr.Workers[sr.ErrWorker])
			}
			return 1
		}
		return 0
	}

	opts := base
	opts.Observers = observers[0]
	session, err := mcfs.NewSession(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
		return 1
	}
	defer session.Close()
	res := session.Run()
	reporter.Stop()
	printResult(res, *traceDump)
	fmt.Printf("syscalls executed: %d\n", session.Kernel().SyscallCount())
	if *coverage {
		printCoverage(res.Coverage, res.Crash)
	}
	printPerf(mergeObservers(observers).Perf, *phaseProfile, *traceDump)
	writeHeatmap(res.CrashHeatmap)
	if res.Bug != nil {
		if *bundleDir != "" {
			writeBundle(base.Seed, res)
		}
		return 3
	}
	if res.Err != nil {
		if *bundleDir != "" {
			writeBundle(base.Seed, res)
		}
		return 1
	}
	return 0
}

// parseSize parses a byte count with an optional K/M/G suffix ("64M").
// Empty means zero (use the default).
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 65536, 64K, 8M, 1G)", s)
	}
	return n * mult, nil
}

// runReplay implements "mcfs replay <bundle-dir>": re-execute the
// bundle's recorded trail (and minimized trail, when present) against
// fresh targets built from its config, then — when the bundle ships a
// journal — step the full journal through the replay driver to verify
// the run is deterministic. Exits 0 iff the recorded discrepancy
// reproduces.
func runReplay(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcfs replay <bundle-dir>")
		return 2
	}
	dir := args[0]
	b, err := mcfs.ReadBundle(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs replay: %v\n", err)
		return 1
	}
	fmt.Printf("bundle: %s\n", dir)
	fmt.Printf("recorded bug: %s at op %v (trail of %d ops)\n", b.Bug.Kind, b.Bug.Op, len(b.Trail))

	out, err := b.Replay()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs replay: %v\n", err)
		return 1
	}
	if out.Reproduced {
		fmt.Printf("trail replay: reproduced (%v)\n", out.Discrepancy)
	} else if out.Discrepancy != nil {
		fmt.Printf("trail replay: DIFFERENT discrepancy (%v)\n", out.Discrepancy)
	} else {
		fmt.Println("trail replay: did NOT reproduce")
	}
	if out.MinReproduced != nil {
		if *out.MinReproduced {
			fmt.Printf("minimized trail (%d ops): reproduced\n", len(b.MinTrail))
		} else {
			fmt.Printf("minimized trail (%d ops): did NOT reproduce\n", len(b.MinTrail))
		}
	}

	recs, err := b.JournalRecords()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs replay: journal: %v\n", err)
		return 1
	}
	if len(recs) > 0 {
		s, err := mcfs.NewSession(b.Config.Options())
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs replay: %v\n", err)
			return 1
		}
		rep, err := s.ReplayJournal(recs)
		s.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs replay: journal: %v\n", err)
			return 1
		}
		switch {
		case rep.Diverged:
			fmt.Printf("journal replay (worker %d): DIVERGED at step %d: %s\n",
				rep.Worker, rep.DivergedAt, rep.Reason)
		case rep.BugReproduced:
			fmt.Printf("journal replay (worker %d): deterministic, %d steps, bug reproduced\n",
				rep.Worker, rep.Steps)
		default:
			fmt.Printf("journal replay (worker %d): deterministic, %d steps\n", rep.Worker, rep.Steps)
		}
		if rep.Diverged {
			return 1
		}
	}

	if !out.Reproduced {
		return 1
	}
	return 0
}

// runShrink implements "mcfs shrink <bundle-dir>": delta-debug the
// bundle's trail down to a locally-minimal reproducing sequence and
// write it back into the bundle as trail.min.json.
func runShrink(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcfs shrink <bundle-dir>")
		return 2
	}
	dir := args[0]
	min, stats, err := mcfs.ShrinkBundle(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs shrink: %v\n", err)
		return 1
	}
	fmt.Printf("shrunk trail: %d -> %d ops in %d replays\n", stats.From, stats.To, stats.Replays)
	if stats.From == stats.To {
		fmt.Println("trail was already minimal")
	}
	if !stats.Minimal {
		fmt.Println("note: replay budget hit; result may not be 1-minimal")
	}
	for i, op := range min {
		fmt.Printf("%3d. %s\n", i+1, op)
	}
	fmt.Printf("written to %s\n", filepath.Join(dir, mcfs.BundleMinTrailFile))
	return 0
}

func printResult(res mcfs.Result, traceDump bool) {
	if res.Err != nil {
		// A structured failure (out of memory, say) still reports the
		// work done up to the abort — the counters below are real.
		fmt.Fprintf(os.Stderr, "engine error: %v\n", res.Err)
	}
	fmt.Printf("operations executed:  %d\n", res.Ops)
	fmt.Printf("unique states:        %d\n", res.UniqueStates)
	fmt.Printf("revisited states:     %d\n", res.Revisits)
	fmt.Printf("virtual elapsed:      %v\n", res.Elapsed)
	fmt.Printf("model-checking speed: %.1f ops/s\n", res.Rate)
	printFidelity(res.Fidelity, res.OmissionProb, res.ResumeErr)
	printCrashStats(res.Crash)
	if res.Bug == nil {
		if res.Err == nil {
			fmt.Println("no discrepancies found")
		}
		return
	}
	fmt.Printf("\nDISCREPANCY after %d operations:\n%v\n", res.Bug.OpsExecuted, res.Bug.Discrepancy)
	fmt.Printf("trail:\n%s", trailOf(res.Bug))
	if traceDump && len(res.Bug.TrailSpans) > 0 {
		fmt.Printf("\ncross-layer trace of the trail:\n")
		obs.WriteTrace(os.Stdout, res.Bug.TrailSpans)
	}
}

// mergeObservers folds every engine's hub and phase profile into one
// metrics document: /metrics serves it, a bundle ships its hub
// snapshot, and printPerf renders its profile (nil without profilers).
// A single engine's profile keeps its telemetry samples; merging
// several drops them, since workers sample on independent virtual
// clocks.
func mergeObservers(observers []mcfs.Observers) metricsDoc {
	var doc metricsDoc
	var snaps []obs.Snapshot
	for _, o := range observers {
		if o.Obs != nil {
			snaps = append(snaps, o.Obs.Snapshot())
		}
		if o.Perf != nil {
			p := o.Perf.Snapshot()
			if doc.Perf != nil {
				p = doc.Perf.Merge(p)
			}
			doc.Perf = &p
		}
	}
	doc.Snapshot = obs.Merge(snaps...)
	return doc
}

// printPerf renders the run's phase profile: the human breakdown table
// under -phase-profile, and the machine-readable JSON document (the
// same "perf" section /metrics serves) under -trace-dump. Silent when
// no phase work was recorded.
func printPerf(snap *perf.Snapshot, table, dump bool) {
	if snap == nil || !snap.Enabled() {
		return
	}
	if table {
		fmt.Println("\nphase profile:")
		snap.WriteTable(os.Stdout)
	}
	if dump {
		fmt.Println("\nperf:")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	}
}

// printFidelity reports a degraded visited table honestly: the final
// backend, the estimated omission probability, and the resume-export
// refusal when the backend cannot snapshot itself. Silent at exact
// fidelity (the default, omission zero).
func printFidelity(f mcfs.Fidelity, omission float64, resumeErr error) {
	if f != mcfs.FidelityExact {
		fmt.Printf("visited fidelity:     %s (omission probability ≈ %.3g)\n", f, omission)
	}
	if resumeErr != nil {
		fmt.Printf("resume export:        refused: %v\n", resumeErr)
	}
}

// printCrashStats summarizes crash exploration; silent when the run had
// no crash probes.
func printCrashStats(c mcfs.CrashStats) {
	if c.Probes == 0 {
		return
	}
	fmt.Printf("crash probes:         %d windows, %d points explored, %d recoveries verified\n",
		c.Probes, c.PointsExplored, c.Recovered)
	if n := c.ErrorsInjected + c.TornInjected + c.CorruptInjected; n > 0 {
		fmt.Printf("faults injected:      %d errors, %d torn writes, %d corruptions\n",
			c.ErrorsInjected, c.TornInjected, c.CorruptInjected)
	}
}

// printCoverage renders the per-(operation, errno) outcome matrix: one
// row per operation kind, one column per errno observed anywhere —
// followed by a crash-coverage row when crash exploration ran.
func printCoverage(cov mcfs.Coverage, crash mcfs.CrashStats) {
	crashRow := func() {
		if crash.Probes > 0 {
			fmt.Printf("crash coverage: %d crash points explored, %d recoveries verified, %d torn/%d error faults injected\n",
				crash.PointsExplored, crash.Recovered, crash.TornInjected, crash.ErrorsInjected)
		}
	}
	if len(cov.ByOpErrno) == 0 {
		fmt.Println("\ncoverage: no outcomes recorded")
		crashRow()
		return
	}
	ops := make([]string, 0, len(cov.ByOpErrno))
	for op := range cov.ByOpErrno {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	errs := make([]string, 0, len(cov.ByErrno))
	for e := range cov.ByErrno {
		errs = append(errs, e)
	}
	sort.Strings(errs)

	fmt.Printf("\ncoverage (op x errno), error-path ratio %.1f%%:\n", cov.ErrorPathRatio()*100)
	width := 0
	for _, op := range ops {
		if len(op) > width {
			width = len(op)
		}
	}
	header := fmt.Sprintf("%*s", width, "")
	for _, e := range errs {
		header += fmt.Sprintf(" %8s", e)
	}
	fmt.Println(header)
	for _, op := range ops {
		row := fmt.Sprintf("%*s", width, op)
		for _, e := range errs {
			if n := cov.Pair(op, e); n != 0 {
				row += fmt.Sprintf(" %8d", n)
			} else {
				row += fmt.Sprintf(" %8s", ".")
			}
		}
		fmt.Println(row)
	}
	crashRow()
}

// startEventSink streams every bus event to path as NDJSON from a
// dedicated goroutine behind a large lossy ring (the engine never
// blocks on the file). The returned stop function drains the remainder,
// closes the file, and reports any ring-overflow drops.
func startEventSink(bus *stream.Bus, path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sub := bus.Subscribe(1 << 16)
	enc := json.NewEncoder(f)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			for _, ev := range sub.Drain() {
				_ = enc.Encode(ev)
			}
			select {
			case <-stop:
				for _, ev := range sub.Drain() {
					_ = enc.Encode(ev)
				}
				return
			case <-sub.C():
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
			sub.Close()
			if n := sub.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "mcfs: event sink dropped %d events (ring full)\n", n)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "mcfs: event sink: %v\n", err)
			}
		})
	}, nil
}

// startTopView refreshes a live per-worker status block on stderr every
// interval: lifecycle, health, cumulative counters, frontier depth, and
// the per-worker check-latency p50/p99 (zero until a worker records its
// first comparison). The returned stop function renders one final frame
// and stops the refresher.
func startTopView(bus *stream.Bus, observers []mcfs.Observers, isSwarm bool, every time.Duration) func() {
	render := func() int {
		h := bus.Workers()
		lines := 0
		for _, w := range h.Workers {
			name := "main"
			if isSwarm || w.Worker > 0 {
				name = fmt.Sprintf("w%d", w.Worker)
			}
			var cmp obs.HistogramSnapshot
			hi := w.Worker - 1
			if !isSwarm && w.Worker == 0 {
				hi = 0
			}
			if hi >= 0 && hi < len(observers) {
				cmp = observers[hi].Obs.Histogram(obs.MetricCompare).Snapshot()
			}
			fmt.Fprintf(os.Stderr,
				"\x1b[2K%-5s %-8s %-10s ops %-9d unique %-8d revisits %-8d depth %-3d crash %-7d check p50 %-10v p99 %v\n",
				name, w.Status, w.Health, w.Ops, w.Unique, w.Revisits, w.Depth,
				w.CrashPoints, cmp.Quantile(0.5), cmp.Quantile(0.99))
			lines++
		}
		return lines
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		prev := 0
		for {
			select {
			case <-stop:
				if prev > 0 {
					fmt.Fprintf(os.Stderr, "\x1b[%dA", prev)
				}
				render()
				return
			case <-ticker.C:
				if prev > 0 {
					fmt.Fprintf(os.Stderr, "\x1b[%dA", prev)
				}
				prev = render()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}
}

func trailOf(b *mcfs.BugReport) string {
	out := ""
	for i, op := range b.Trail {
		out += fmt.Sprintf("%3d. %s\n", i+1, op)
	}
	return out
}
