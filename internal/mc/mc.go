// Package mc is the model-checking engine at the heart of MCFS — the
// stand-in for Spin in the paper's prototype (§2, §4).
//
// The engine performs explicit-state depth-first search over bounded
// operation sequences. Each step nondeterministically picks one
// fully-parameterized operation from the workload pool (one entry of the
// Promela do..od loop), executes it on every file system under test,
// runs the integrity checks, and computes the combined abstract state
// (Algorithm 1). A state whose abstract hash was seen before is pruned —
// Spin's visited-state matching with c_track'd abstract states (§3.3) —
// otherwise the search descends. Backtracking restores concrete states
// through the configured trackers (remount for kernel file systems,
// ioctl checkpoint/restore for VeriFS, §5).
//
// On any discrepancy the engine stops and reports the precise operation
// trail, matching the paper's reproducible bug reports; Replay re-runs a
// trail from a fresh state to confirm it. SwarmRun (swarm.go) runs
// several diversified engines as a coordinated parallel swarm: a shared
// cancellation token stops every worker at the first bug, and workers
// may visit through one visited.Set, pruning states peers already
// expanded.
package mc

import (
	"fmt"
	"runtime/debug"
	"time"

	"mcfs/internal/checker"
	"mcfs/internal/kernel"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/perf"
	"mcfs/internal/obs/stream"
	"mcfs/internal/simclock"
	"mcfs/internal/tracker"
	"mcfs/internal/workload"

	"mcfs/internal/abstraction"
	"mcfs/internal/errno"
)

// Config parameterizes one exploration.
type Config struct {
	// Kernel hosts all mounted targets.
	Kernel *kernel.Kernel
	// Checker compares the targets (its Targets() order matches
	// Trackers).
	Checker *checker.Checker
	// Trackers capture/restore state, one per target, same order as
	// Checker.Targets().
	Trackers []tracker.Tracker
	// Pool is the bounded operation/parameter space.
	Pool workload.Pool
	// MaxDepth bounds the operation-sequence length.
	MaxDepth int
	// MaxOps stops exploration after this many executed operations
	// (0 = unlimited).
	MaxOps int64
	// MaxStates stops after this many unique states (0 = unlimited).
	MaxStates int64
	// Seed diversifies the operation ordering (swarm verification).
	Seed int64
	// Mem, when set, charges state-store memory costs (swap, hash-table
	// resizes) to the virtual clock.
	Mem *memmodel.Model
	// EqualizeFreeSpace applies the §3.4 capacity workaround before
	// exploring.
	EqualizeFreeSpace bool
	// MajorityVote enables the §7 majority-voting checks: with three or
	// more targets, the deviating minority is identified instead of
	// halting at the first pairwise mismatch.
	MajorityVote bool
	// Resume seeds the visited table from an earlier run's Result.Resume,
	// so exploration continues where the interrupted run left off (§7).
	Resume *ResumeState
	// Obs, when set, receives engine metrics (ops, visited-table
	// hits/misses, DFS depth) and per-operation cross-layer spans.
	// All instrumentation is nil-safe: a nil Obs costs one branch per
	// operation and nothing else.
	Obs *obs.Hub
	// Perf, when set, receives phase-level time attribution (checkpoint,
	// execute, verify, restore, hash, fsck, remount, journal) and
	// per-N-ops state-space telemetry (novelty decay, frontier depth,
	// duplicate rate, crash points/sec). Nil-safe: a nil profiler costs
	// one branch per phase boundary.
	Perf *perf.Profiler
	// Cancel, when set, is polled between operations: once the token
	// fires (a swarm peer found a bug or failed, or the caller aborted)
	// the engine stops promptly and returns a partial Result with
	// Canceled set. The engine fires the token itself when it finds a
	// bug, so coordinated peers stop without waiting for Run to return.
	Cancel *Cancel
	// Visited, when set, is the visited table the engine visits through
	// instead of building its own: one shared across swarm workers, or a
	// session's reduced-fidelity or governed table. Its owner attaches
	// memory models (visited.Set.AttachMem) and exports it for resume:
	// Result.Resume is nil, and UniqueStates counts only the states this
	// engine was the first to discover. When nil, Run builds an exact
	// table of its own and exports it as Result.Resume.
	Visited *visited.Set
	// Journal, when set, is the flight recorder: every operation the
	// engine explores (with per-target errnos, the abstract state hash
	// reached, and the visited-table decision), every backtrack, and any
	// bug found are appended as journal records, replayable with
	// ReplayJournal. Nil-safe: a nil recorder costs one branch per op.
	Journal *journal.Recorder
	// Crash, when set, enables crash-consistency exploration: before
	// each operation is stepped normally, its write window is probed on
	// every crash plane — the op runs under an armed crash point, power
	// loss is simulated with the captured media image, and the recovered
	// state is checked against the prefix-consistency oracle (crash.go).
	Crash *CrashConfig
	// Stream, when set, receives live exploration events (steps,
	// backtracks, crash verdicts, worker lifecycle, bugs) stamped with
	// the session's virtual time. Nil-safe: a nil bus costs one branch
	// per emit site and nothing else.
	Stream *stream.Bus
	// StreamWorker identifies this engine on the stream (0 for a single
	// engine; SwarmRun assigns 1..N).
	StreamWorker int
}

// BugReport is a discrepancy plus the trail that produced it.
type BugReport struct {
	// Discrepancy describes the behavioral difference.
	Discrepancy *checker.Discrepancy
	// Trail is the operation sequence from the initial state, the last
	// entry being the operation that exposed the discrepancy.
	Trail []workload.Op
	// OpsExecuted counts operations executed up to detection.
	OpsExecuted int64
	// TrailSpans is the cross-layer span trace of the trail: one
	// LayerMC span per trail operation, with kernel/fs/tracker/checker
	// child spans. Populated only when Config.Obs was set.
	TrailSpans []obs.Span
	// Crash, when set, marks a crash-consistency bug: the trail's final
	// operation must be crash-tested at the spec'd target and write
	// index (ReplayCrash) instead of executed normally.
	Crash *journal.CrashSpec
}

// Error renders the report.
func (b *BugReport) Error() string {
	return fmt.Sprintf("%v\ntrail (%d ops executed):\n%s",
		b.Discrepancy, b.OpsExecuted, workload.TrailString(b.Trail))
}

// Result summarizes one exploration.
type Result struct {
	// Ops is the number of operations executed.
	Ops int64
	// UniqueStates is the number of distinct abstract states visited.
	UniqueStates int64
	// Revisits counts prunes due to visited-state matching.
	Revisits int64
	// Bug is non-nil if a discrepancy was found.
	Bug *BugReport
	// Elapsed is virtual time spent.
	Elapsed time.Duration
	// Rate is operations per virtual second.
	Rate float64
	// Err reports an engine failure (tracker errors etc.), not a bug.
	Err error
	// Canceled reports that the run was stopped early by its
	// cancellation token (Config.Cancel) rather than by its own budget,
	// bug, or exhaustion. The counters describe the partial run.
	Canceled bool
	// Coverage reports how often each operation kind executed and which
	// errnos it produced — the operation-level answer to the paper's §7
	// "track code coverage while model-checking".
	Coverage Coverage
	// Resume carries the exploration's visited-state knowledge so a
	// later run can continue after an interruption (§7 future work).
	Resume *ResumeState
	// Crash counts crash-exploration work (zero unless Config.Crash was
	// set): probes, points tested, recoveries verified, faults injected.
	Crash CrashStats
	// CrashHeatmap aggregates this run's crash-point verdicts by
	// (window op, write index). Nil unless Config.Crash was set.
	CrashHeatmap *stream.Heatmap
	// Fidelity is the visited table's matching precision at the end of
	// the run: exact unless a memory governor degraded the table
	// (compact or bitstate) to keep the run alive under its budget.
	Fidelity visited.Fidelity
	// OmissionProb is the estimated probability that the run wrongly
	// matched at least one state pair and omitted part of the space —
	// Spin's bitstate/compaction honesty number. Zero at exact
	// fidelity.
	OmissionProb float64
	// ResumeErr explains a missing Resume: a reduced-fidelity table
	// refuses export (visited.ErrNoExport) rather than emitting a
	// silently partial resume set.
	ResumeErr error
}

// OOMError finalizes a run whose memory model exhausted RAM and swap
// with no governor able to relieve it. Unlike a bare
// memmodel.ErrOutOfMemory, it reaches the caller inside a structured
// Result: the journal's done record, the final stream event, and any
// bundle are all still emitted, and the partial counters survive.
type OOMError struct {
	// Ops and UniqueStates describe the partial run at the point the
	// store refused.
	Ops          int64
	UniqueStates int64
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("mc: out of memory after %d ops / %d unique states (state store exhausted RAM and swap; set a budget with a visited-set governor to degrade instead)",
		e.Ops, e.UniqueStates)
}

// Unwrap lets errors.Is find the underlying memmodel condition.
func (e *OOMError) Unwrap() error { return memmodel.ErrOutOfMemory{} }

// Coverage aggregates operation and outcome counts for one run.
type Coverage struct {
	// ByOp counts executions per operation kind name.
	ByOp map[string]int64
	// ByErrno counts outcomes per errno name across all targets.
	ByErrno map[string]int64
	// ByOpErrno counts outcomes per (operation kind, errno) pair —
	// which op produced which errno, not just the two marginals.
	ByOpErrno map[string]map[string]int64
}

func newCoverage() Coverage {
	return Coverage{
		ByOp:      make(map[string]int64),
		ByErrno:   make(map[string]int64),
		ByOpErrno: make(map[string]map[string]int64),
	}
}

// NewCoverage returns an empty Coverage, ready to Merge other runs'
// coverage into (aggregating swarm workers).
func NewCoverage() Coverage { return newCoverage() }

// Pair returns how often op produced errno.
func (c Coverage) Pair(op, errName string) int64 {
	return c.ByOpErrno[op][errName]
}

// Merge folds other's counts into c (aggregating swarm workers).
func (c Coverage) Merge(other Coverage) {
	for op, n := range other.ByOp {
		c.ByOp[op] += n
	}
	for e, n := range other.ByErrno {
		c.ByErrno[e] += n
	}
	for op, m := range other.ByOpErrno {
		dst := c.ByOpErrno[op]
		if dst == nil {
			dst = make(map[string]int64, len(m))
			c.ByOpErrno[op] = dst
		}
		for e, n := range m {
			dst[e] += n
		}
	}
}

// ErrorPathRatio reports the fraction of observed outcomes that were
// errors — the invalid sequences §2 considers critical to exercise.
func (c Coverage) ErrorPathRatio() float64 {
	var total, errs int64
	for name, n := range c.ByErrno {
		total += n
		if name != "OK" {
			errs += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(errs) / float64(total)
}

// ResumeState is the serializable knowledge of a past exploration: the
// visited abstract states and the depths they were expanded at. Feeding
// it to a new run (Config.Resume) prevents re-exploring known states —
// the §7 "resume the model-checking process if an interruption occurs".
type ResumeState struct {
	States []abstraction.State
	Depths []int
}

// UniqueStates reports how many states the resume set carries. Safe on a
// nil receiver (an empty set).
func (r *ResumeState) UniqueStates() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.States))
}

// SeedVisited preloads s with an earlier run's visited knowledge. Seeded
// states are prior knowledge, not discoveries: they are pruned like any
// visited state but never counted in NovelCount, and seeding a state
// twice keeps its shallowest depth. A nil r seeds nothing.
func SeedVisited(s *visited.Set, r *ResumeState) {
	if r == nil {
		return
	}
	for i, st := range r.States {
		depth := 0
		if i < len(r.Depths) {
			depth = r.Depths[i]
		}
		s.Seed(st, depth)
	}
}

// ExportVisited snapshots s as a ResumeState ordered by state bytes, so
// identical runs serialize identical resume files. A reduced-fidelity
// table has discarded the full state keys and returns
// visited.ErrNoExport instead of a silently partial set.
func ExportVisited(s *visited.Set) (*ResumeState, error) {
	entries, err := s.Export()
	if err != nil {
		return nil, err
	}
	r := &ResumeState{
		States: make([]abstraction.State, len(entries)),
		Depths: make([]int, len(entries)),
	}
	for i, en := range entries {
		r.States[i], r.Depths[i] = en.State, en.Depth
	}
	return r, nil
}

type engine struct {
	cfg Config
	ops []workload.Op
	// visited records each abstract state with the shallowest depth it
	// has been expanded at (Config.Visited, or a table Run built when
	// ownVisited is set). Depth-bounded DFS must re-expand a state
	// reached at a shallower depth than before, or successors reachable
	// only within the remaining budget are silently missed (Spin handles
	// bounded DFS the same way).
	visited    *visited.Set
	ownVisited bool
	trail      []workload.Op
	nextKey    uint64

	executed  int64
	unique    int64
	revisits  int64
	bug       *BugReport
	coverage  Coverage
	exhausted bool // op/state budget hit
	canceled  bool // cancellation token fired
	oomed     bool // memory model refused a store, no relief possible
	rng       uint64

	// retained is the concrete-state bytes stored for visited-state
	// matching in an injected exact table — released in one step when the
	// governor downgrades the table (reduced backends retain no
	// concrete states; that release is the degradation's memory win).
	retained int64

	eobs *engineObs // nil when Config.Obs is unset

	es *engineStream // nil when Config.Stream is unset

	// heatmap aggregates crash-point verdicts; non-nil exactly when
	// Config.Crash is set (the heatmap needs no bus).
	heatmap *stream.Heatmap

	// lastErrnos is the per-target errno scratch of the most recent
	// step, populated only when a journal recorder is attached.
	lastErrnos []string

	// curHash is the abstract hash of the CURRENT concrete state (the
	// state every dfs iteration explores from); crash probes key their
	// dedup on it. Maintained only when crash exploration is on.
	curHash abstraction.State
	// crashSeen dedups crash probes: one probe per (state, op, plane).
	crashSeen map[string]bool
	// crashStats accumulates this run's crash-exploration counters.
	crashStats CrashStats
}

// engineObs holds the engine's pre-resolved observability handles, so
// the hot path pays map lookups once, at Run start.
type engineObs struct {
	hub             *obs.Hub
	ops             *obs.Counter
	hits            *obs.Counter
	misses          *obs.Counter
	depth           *obs.Gauge
	panics          *obs.Counter
	crashPoints     *obs.Counter
	crashRecoveries *obs.Counter

	// lastStep is the span collection of the most recent operation;
	// trailTraces mirrors engine.trail with each trail op's collection,
	// so a bug report can carry its full cross-layer trace even after
	// the tracer ring has recycled those spans.
	lastStep    []obs.Span
	trailTraces [][]obs.Span
}

// engineStream holds the engine's pre-resolved stream handles: the bus,
// this engine's worker id, and the session clock the events are stamped
// from. Virtual timestamps keep the stream bit-deterministic and the
// walltime analyzer clean.
type engineStream struct {
	bus    *stream.Bus
	worker int
	now    func() time.Duration
}

// emit publishes one event stamped with this engine's identity and
// virtual time. One branch when streaming is off.
func (e *engine) emit(ev stream.Event) {
	if e.es == nil {
		return
	}
	ev.At = e.es.now()
	ev.Worker = e.es.worker
	e.es.bus.Publish(ev)
}

// maybeBeat publishes a worker heartbeat every stream.HeartbeatEvery
// executed operations. Riding the op counter (not a wall timer) keeps
// heartbeats deterministic in virtual time — and makes a hung target
// read as stale, since a stuck probe stops the counter.
func (e *engine) maybeBeat() {
	if e.es == nil || e.executed%stream.HeartbeatEvery != 0 {
		return
	}
	e.emit(stream.Event{
		Kind:        stream.KindWorkerHeartbeat,
		Ops:         e.executed,
		Unique:      e.unique,
		Revisits:    e.revisits,
		CrashPoints: e.crashStats.PointsExplored,
		Depth:       len(e.trail),
	})
}

// beginOp opens the per-operation collection window and LayerMC span.
func (e *engine) beginOp(op workload.Op, depth int) obs.SpanHandle {
	if e.eobs == nil {
		return obs.SpanHandle{}
	}
	e.eobs.depth.Set(int64(depth))
	e.eobs.hub.StartCollecting()
	return e.eobs.hub.StartSpan(obs.LayerMC, "op:"+op.String())
}

// endOp closes the operation span and stows its collected spans.
func (e *engine) endOp(sp obs.SpanHandle) {
	if e.eobs == nil {
		return
	}
	sp.End()
	e.eobs.lastStep = e.eobs.hub.StopCollecting()
}

// attachTrailTrace copies the current trail's span collections into the
// bug report (called once, right after the step that found the bug).
func (e *engine) attachTrailTrace() {
	if e.eobs == nil || e.bug == nil || e.bug.TrailSpans != nil {
		return
	}
	var spans []obs.Span
	for _, t := range e.eobs.trailTraces {
		spans = append(spans, t...)
	}
	spans = append(spans, e.eobs.lastStep...)
	e.bug.TrailSpans = spans
}

// Run explores the configured state space and returns the result.
func Run(cfg Config) Result {
	clock := cfg.Kernel.Clock()
	start := clock.Now()
	e := &engine{
		cfg:      cfg,
		ops:      cfg.Pool.Enumerate(),
		visited:  cfg.Visited,
		coverage: newCoverage(),
		rng:      uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
	if e.visited == nil {
		e.visited, e.ownVisited = visited.NewSet(nil), true
	}
	if cfg.Obs != nil {
		e.eobs = &engineObs{
			hub:             cfg.Obs,
			ops:             cfg.Obs.Counter(obs.MetricOps),
			hits:            cfg.Obs.Counter(obs.MetricVisitedHits),
			misses:          cfg.Obs.Counter(obs.MetricVisitedMisses),
			depth:           cfg.Obs.Gauge(obs.MetricDepth),
			panics:          cfg.Obs.Counter(obs.MetricPanics),
			crashPoints:     cfg.Obs.Counter(obs.MetricCrashPoints),
			crashRecoveries: cfg.Obs.Counter(obs.MetricCrashRecoveries),
		}
	}
	if cfg.Stream != nil {
		e.es = &engineStream{bus: cfg.Stream, worker: cfg.StreamWorker, now: clock.Now}
		e.emit(stream.Event{
			Kind:   stream.KindWorkerStart,
			Detail: fmt.Sprintf("seed=%d", cfg.Seed),
		})
	}
	if cfg.Crash != nil {
		e.crashSeen = make(map[string]bool)
		e.heatmap = stream.NewHeatmap()
	}
	// Resumed knowledge seeds the table (idempotent: swarm peers sharing
	// it may seed the same states).
	SeedVisited(e.visited, cfg.Resume)

	err := e.begin()
	if err == nil {
		err = e.explore()
	}
	if err == nil && e.oomed {
		// The memory model refused a store and no governor could
		// relieve it. Finalize as a structured failure — counters,
		// journal done record, drain event, and resume knowledge all
		// survive — instead of silently truncating the run.
		err = &OOMError{Ops: e.executed, UniqueStates: e.unique}
	}

	res := Result{
		Ops:          e.executed,
		UniqueStates: e.unique,
		Revisits:     e.revisits,
		Bug:          e.bug,
		Err:          err,
		Canceled:     e.canceled,
		Coverage:     e.coverage,
		Fidelity:     e.visited.Fidelity(),
		OmissionProb: e.visited.Omission(),
	}
	res.finalize(clock.Now() - start)
	if cfg.Crash != nil {
		res.Crash = e.crashStats
		for i := range cfg.Crash.Planes {
			st := cfg.Crash.Planes[i].Injector.Stats()
			res.Crash.ErrorsInjected += st.ErrorsInjected
			res.Crash.TornInjected += st.TornInjected
			res.Crash.CorruptInjected += st.CorruptInjected
		}
		res.CrashHeatmap = e.heatmap
	}
	status := "done"
	switch {
	case e.bug != nil:
		status = "bug"
	case err != nil:
		status = "failed"
	case e.canceled:
		status = "canceled"
	}
	e.emit(stream.Event{
		Kind:        stream.KindWorkerDrain,
		Ops:         e.executed,
		Unique:      e.unique,
		Revisits:    e.revisits,
		CrashPoints: e.crashStats.PointsExplored,
		Depth:       len(e.trail),
		Detail:      status,
	})
	if cfg.Journal.Enabled() {
		done := journal.DoneRecord{
			Ops:          e.executed,
			UniqueStates: e.unique,
			Revisits:     e.revisits,
			Canceled:     e.canceled,
		}
		if err != nil {
			done.Err = err.Error()
		}
		cfg.Journal.Done(done)
	}
	if e.ownVisited {
		res.Resume, res.ResumeErr = ExportVisited(e.visited)
	}
	return res
}

// begin prepares the search root: free-space equalization, then the
// initial state's hash, visit, and journal meta record. A resumed run
// (or a swarm peer racing us to a shared table) may already know the
// initial state: it counts as a unique discovery — and is charged its
// visit cost — only when it is genuinely new.
func (e *engine) begin() error {
	cfg := e.cfg
	if cfg.EqualizeFreeSpace {
		if er := cfg.Checker.EqualizeFreeSpace(); er != errno.OK {
			return fmt.Errorf("mc: equalizing free space: %w", er)
		}
	}
	h, er := cfg.Checker.StateHash()
	if er != errno.OK {
		return fmt.Errorf("mc: hashing initial state: %w", er)
	}
	e.curHash = h
	if novel, _ := e.visited.Visit(h, 0); novel {
		e.unique++
		if e.eobs != nil {
			e.eobs.misses.Inc()
		}
		e.visitCost()
	}
	if cfg.Journal.Enabled() {
		names := make([]string, 0, len(cfg.Checker.Targets()))
		for _, t := range cfg.Checker.Targets() {
			names = append(names, t.Name)
		}
		cfg.Journal.Meta(journal.Meta{
			Version:   journal.Version,
			Seed:      cfg.Seed,
			MaxDepth:  cfg.MaxDepth,
			MaxOps:    cfg.MaxOps,
			MaxStates: cfg.MaxStates,
			Targets:   names,
			Equalize:  cfg.EqualizeFreeSpace,
			Majority:  cfg.MajorityVote,
			InitState: fmt.Sprintf("%x", h[:]),
		})
	}
	return nil
}

// PanicError is a target (or tracker/checker) panic converted into an
// engine failure. The engine runs arbitrary file-system code under test;
// a panicking target must produce a failed Result with the partial trail
// that triggered it — not kill the process (or a whole swarm).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack string
	// Trail is the operation prefix being explored when the target
	// panicked (the panicking operation itself is not yet appended).
	Trail []workload.Op
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("mc: target panicked: %v (exploring a trail of %d ops)\n%s",
		p.Value, len(p.Trail), p.Stack)
}

// explore runs the DFS with panic isolation: a panic anywhere under the
// engine (targets, trackers, checker) becomes a PanicError carrying the
// partial trail, fires the cancellation token so swarm peers stop, and
// counts under obs.MetricPanics.
func (e *engine) explore() (err error) {
	defer func() {
		if r := recover(); r != nil {
			trail := make([]workload.Op, len(e.trail))
			copy(trail, e.trail)
			err = &PanicError{Value: r, Stack: string(debug.Stack()), Trail: trail}
			if e.eobs != nil {
				e.eobs.panics.Inc()
			}
			e.emit(stream.Event{
				Kind:   stream.KindWorkerPanic,
				Depth:  len(trail),
				Detail: fmt.Sprintf("%v", r),
			})
			e.cfg.Cancel.Cancel("target panicked")
		}
	}()
	return e.dfs(0)
}

// finalize derives the run's aggregate fields from its raw counters.
// This is the single place Result.Rate is computed: virtual elapsed
// time can legitimately be zero (a tiny pool whose operations are all
// served from caches before the clock advances), so guard the division
// instead of reporting +Inf.
func (r *Result) finalize(elapsed time.Duration) {
	r.Elapsed = elapsed
	if elapsed <= 0 {
		r.Rate = 0
		return
	}
	r.Rate = simclock.Rate(r.Ops, elapsed)
}

// shuffled returns the op indices in a seed- and depth-diversified order.
func (e *engine) shuffled(depth int) []int {
	idx := make([]int, len(e.ops))
	for i := range idx {
		idx[i] = i
	}
	if e.cfg.Seed == 0 {
		return idx // deterministic baseline order
	}
	r := e.rng + uint64(depth)*0xBF58476D1CE4E5B9
	for i := len(idx) - 1; i > 0; i-- {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		j := int((r * 0x2545F4914F6CDD1D >> 33) % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

func (e *engine) budgetLeft() bool {
	if e.bug != nil || e.oomed {
		return false
	}
	if e.cfg.Cancel.Canceled() {
		e.canceled = true
		return false
	}
	if e.cfg.MaxOps > 0 && e.executed >= e.cfg.MaxOps {
		e.exhausted = true
		return false
	}
	if e.cfg.MaxStates > 0 && e.unique >= e.cfg.MaxStates {
		e.exhausted = true
		return false
	}
	return true
}

func (e *engine) stateBytes() int64 {
	var total int64
	for _, t := range e.cfg.Trackers {
		total += t.StateBytes()
	}
	return total
}

func (e *engine) storeStateCost() {
	if e.cfg.Mem != nil {
		if err := e.cfg.Mem.Store(e.stateBytes()); err != nil {
			// Out of memory+swap on a checkpoint store. The governor can
			// relieve it by degrading the visited table; otherwise the
			// run finalizes as a structured OOM failure (the charge
			// stands — backtrack's Release pairs with it either way).
			if !e.relieveMem() {
				e.oomed = true
			}
		}
	}
}

// relieveMem asks the visited table's governor (if any) for emergency
// relief after a refused store: one fidelity downgrade, plus the release
// of every concrete state retained for exact matching. Reports whether
// anything was freed (the caller's next store should succeed).
func (e *engine) relieveMem() bool {
	if !e.visited.Governor().Relieve(e.cfg.Mem) {
		return false
	}
	e.releaseRetained()
	return true
}

// releaseRetained drops the concrete states retained for exact
// visited-state matching — reduced-fidelity tables match on
// fingerprints or bits and restore nothing, so the retention pool goes
// with the downgrade.
func (e *engine) releaseRetained() {
	if e.retained > 0 {
		e.cfg.Mem.Release(e.retained)
		e.retained = 0
	}
}

func (e *engine) fetchStateCost() {
	if e.cfg.Mem != nil {
		e.cfg.Mem.Fetch(e.stateBytes(), 0)
	}
}

// visitCost charges the memory footprint of recording a newly visited
// state: a table entry plus the concrete state retained for backtracking
// (Spin's c_track'd buffers live for the whole run, which is why the
// paper's long runs eventually spill to swap). One rule places the entry:
// a table Run built is the engine's alone and grows the model's own hash
// table (InsertVisited, with its Figure 3 resize dynamics); an injected
// table bills its growth to every attached model itself
// (visited.Set.AttachMem — one table in one address space), so only the
// concrete-state retention is charged here.
func (e *engine) visitCost() {
	if e.cfg.Mem == nil {
		return
	}
	if e.ownVisited {
		e.cfg.Mem.InsertVisited()
		if err := e.cfg.Mem.Store(e.stateBytes()); err != nil {
			e.oomed = true
		}
		return
	}
	// Give the governor a look before committing more memory; it may
	// evict or downgrade preemptively at the watermarks.
	e.visited.Governor().Maybe(e.cfg.Mem)
	if e.visited.Fidelity() != visited.FidelityExact {
		// Reduced fidelity retains no concrete states — the table keeps
		// fingerprints or bits only. Releasing the exact-era pool here
		// (once, lazily) is the downgrade's memory payoff.
		e.releaseRetained()
		return
	}
	n := e.stateBytes()
	if err := e.cfg.Mem.Store(n); err != nil {
		e.retained += n // the refused store still charged its bytes
		if !e.relieveMem() {
			e.oomed = true
		}
		return
	}
	e.retained += n
}

// discardCheckpoints releases the checkpoint images held under key by
// the given trackers. Error paths must call it: an abandoned key's
// images are never restored (restore consumes them), so without an
// explicit discard they stay in the snapshot pools forever.
func (e *engine) discardCheckpoints(key uint64, trackers []tracker.Tracker) {
	for _, t := range trackers {
		t.Discard(key)
	}
}

// dfs explores all operation choices from the current concrete state.
func (e *engine) dfs(depth int) error {
	if depth >= e.cfg.MaxDepth {
		return nil
	}
	for _, opIdx := range e.shuffled(depth) {
		if !e.budgetLeft() {
			return nil
		}
		op := e.ops[opIdx]

		// The per-operation span covers the checkpoints and the step,
		// so a trail operation's trace shows its tracker and kernel
		// work as children.
		sp := e.beginOp(op, depth)

		// Save the current state of every target so we can backtrack.
		// On a partial failure the trackers that did checkpoint hold
		// images under key that no restore will ever consume — release
		// them before bailing out.
		key := e.nextKey
		e.nextKey++
		var err error
		ct := e.cfg.Perf.Start(perf.PhaseCheckpoint)
		for i, t := range e.cfg.Trackers {
			if err = t.Checkpoint(key); err != nil {
				e.discardCheckpoints(key, e.cfg.Trackers[:i])
				err = fmt.Errorf("mc: checkpoint %s: %w", t.Name(), err)
				break
			}
		}
		ct.End()
		if err == nil {
			e.storeStateCost()
			// Crash exploration probes the op's write window (and leaves
			// the concrete state untouched) before the op is stepped
			// normally; a probe that finds an inconsistent recovery
			// reports the bug and skips the normal step.
			if e.cfg.Crash != nil {
				if err = e.crashProbe(depth, op); err != nil {
					e.discardCheckpoints(key, e.cfg.Trackers)
				}
			}
			if err == nil && e.bug == nil {
				if err = e.step(op); err != nil {
					e.discardCheckpoints(key, e.cfg.Trackers)
				}
			}
		}
		e.endOp(sp)
		if err != nil {
			return err
		}
		if e.bug != nil {
			e.attachTrailTrace()
			if e.cfg.Journal.Enabled() {
				jt := e.cfg.Perf.Start(perf.PhaseJournal)
				// The bug op gets no state hash (the discrepancy halts
				// hashing); the bug record that follows carries the
				// trail and forces the journal to stable storage. A
				// crash bug's op was never stepped normally — its probe
				// already journaled a crash record instead.
				if e.bug.Crash == nil {
					e.cfg.Journal.Op(depth, journal.EncodeOp(op), e.lastErrnos, "", false, false)
				}
				e.cfg.Journal.Bug(journal.BugRecord{
					Kind:        e.bug.Discrepancy.Kind,
					Op:          e.bug.Discrepancy.Op,
					Details:     e.bug.Discrepancy.Details,
					Trail:       journal.EncodeTrail(e.bug.Trail),
					OpsExecuted: e.bug.OpsExecuted,
					Crash:       e.bug.Crash,
				})
				jt.End()
			}
		}

		if e.bug == nil {
			ht := e.cfg.Perf.Start(perf.PhaseHash)
			h, er := e.cfg.Checker.StateHash()
			ht.End()
			if er != errno.OK {
				e.discardCheckpoints(key, e.cfg.Trackers)
				return fmt.Errorf("mc: hashing state: %w", er)
			}
			childDepth := depth + 1
			// Visited-state matching: prune if this state was already
			// expanded at this depth or shallower — by this engine, or
			// by any swarm peer when the table is shared.
			novel, expand := e.visited.Visit(h, childDepth)
			if e.cfg.Journal.Enabled() {
				jt := e.cfg.Perf.Start(perf.PhaseJournal)
				e.cfg.Journal.Op(depth, journal.EncodeOp(op), e.lastErrnos,
					fmt.Sprintf("%x", h[:]), novel, expand)
				jt.End()
			}
			if e.es != nil { // guard: the hex render below is not free
				e.emit(stream.Event{
					Kind:  stream.KindStep,
					Op:    op.String(),
					Depth: depth,
					State: fmt.Sprintf("%x", h[:]),
					Novel: novel,
				})
			}
			if !expand {
				e.revisits++
				if e.eobs != nil {
					e.eobs.hits.Inc()
				}
			} else {
				if novel {
					e.unique++
					if e.eobs != nil {
						e.eobs.misses.Inc()
					}
					e.visitCost()
				}
				e.trail = append(e.trail, op)
				if e.eobs != nil {
					e.eobs.trailTraces = append(e.eobs.trailTraces, e.eobs.lastStep)
				}
				parentHash := e.curHash
				e.curHash = h
				if err := e.dfs(childDepth); err != nil {
					e.discardCheckpoints(key, e.cfg.Trackers)
					return err
				}
				e.curHash = parentHash
				e.trail = e.trail[:len(e.trail)-1]
				if e.eobs != nil {
					e.eobs.trailTraces = e.eobs.trailTraces[:len(e.eobs.trailTraces)-1]
				}
			}
		}

		// Backtrack: restore every target to the saved state. Restore
		// consumes the image; on failure, discard what the remaining
		// trackers (and the failed one, best-effort) still hold.
		e.fetchStateCost()
		rt := e.cfg.Perf.Start(perf.PhaseRestore)
		for i, t := range e.cfg.Trackers {
			if err := t.Restore(key); err != nil {
				rt.End()
				e.discardCheckpoints(key, e.cfg.Trackers[i:])
				return fmt.Errorf("mc: restore %s: %w", t.Name(), err)
			}
		}
		rt.End()
		if e.cfg.Mem != nil {
			e.cfg.Mem.Release(e.stateBytes())
		}
		if e.cfg.Journal.Enabled() {
			jt := e.cfg.Perf.Start(perf.PhaseJournal)
			e.cfg.Journal.Backtrack(depth)
			jt.End()
		}
		e.emit(stream.Event{Kind: stream.KindBacktrack, Depth: depth})
		if e.bug != nil || e.exhausted || e.canceled || e.oomed {
			return nil
		}
	}
	return nil
}

// step executes one operation on every target and runs the integrity
// checks, recording a bug report on discrepancy.
func (e *engine) step(op workload.Op) error {
	targets := e.cfg.Checker.Targets()
	mt := e.cfg.Perf.Start(perf.PhaseRemount)
	for _, t := range e.cfg.Trackers {
		if err := t.PreOp(); err != nil {
			mt.End()
			return fmt.Errorf("mc: pre-op %s: %w", t.Name(), err)
		}
	}
	mt.End()
	et := e.cfg.Perf.Start(perf.PhaseExecute)
	results := make([]checker.OpResult, len(targets))
	for i, tgt := range targets {
		results[i] = workload.Execute(e.cfg.Kernel, tgt.MountPoint, op)
	}
	et.End()
	mt = e.cfg.Perf.Start(perf.PhaseRemount)
	for _, t := range e.cfg.Trackers {
		if err := t.PostOp(); err != nil {
			mt.End()
			return fmt.Errorf("mc: post-op %s: %w", t.Name(), err)
		}
	}
	mt.End()
	e.executed++
	if e.eobs != nil {
		e.eobs.ops.Inc()
	}
	e.cfg.Perf.Observe(e.executed, e.unique, e.revisits,
		e.crashStats.PointsExplored, len(e.trail))
	e.maybeBeat()
	opName := op.Kind.String()
	e.coverage.ByOp[opName]++
	pairs := e.coverage.ByOpErrno[opName]
	if pairs == nil {
		pairs = make(map[string]int64)
		e.coverage.ByOpErrno[opName] = pairs
	}
	for _, r := range results {
		e.coverage.ByErrno[r.Err.String()]++
		pairs[r.Err.String()]++
	}
	if e.cfg.Journal.Enabled() {
		// Scratch reuse is safe: journal records marshal synchronously
		// inside Append, before the next step can overwrite the slice.
		e.lastErrnos = e.lastErrnos[:0]
		for _, r := range results {
			e.lastErrnos = append(e.lastErrnos, r.Err.String())
		}
	}

	vt := e.cfg.Perf.Start(perf.PhaseVerify)
	defer vt.End()
	var d *checker.Discrepancy
	if e.cfg.MajorityVote {
		d = e.cfg.Checker.CheckResultsMajority(op.String(), results)
	} else {
		d = e.cfg.Checker.CheckResults(op.String(), results)
	}
	if d != nil {
		e.report(d, op)
		return nil
	}
	var er errno.Errno
	if e.cfg.MajorityVote {
		d, _, er = e.cfg.Checker.CheckAndHashMajority(op.String())
	} else {
		d, _, er = e.cfg.Checker.CheckAndHash(op.String())
	}
	if er != errno.OK {
		return fmt.Errorf("mc: state check: %w", er)
	}
	if d != nil {
		e.report(d, op)
	}
	return nil
}

func (e *engine) report(d *checker.Discrepancy, op workload.Op) {
	trail := make([]workload.Op, len(e.trail), len(e.trail)+1)
	copy(trail, e.trail)
	trail = append(trail, op)
	e.bug = &BugReport{Discrepancy: d, Trail: trail, OpsExecuted: e.executed}
	e.emit(stream.Event{
		Kind:   stream.KindBug,
		Op:     op.String(),
		Depth:  len(trail),
		Detail: d.Kind,
	})
	// Fire the shared token right away so coordinated swarm peers stop
	// within one operation instead of waiting for this run to unwind.
	e.cfg.Cancel.Cancel("bug found")
}

// Replay executes a recorded trail from the targets' current (fresh)
// state, checking after every operation, and returns the first
// discrepancy (nil if the trail no longer reproduces). Replay mirrors
// the engine's step environment — free-space equalization and the
// per-operation tracker hooks (remounts for kernel file systems) run
// exactly as they did during exploration — so a trail that exposed a
// bug through those mechanics still does on replay.
func Replay(cfg Config, trail []workload.Op) (*checker.Discrepancy, error) {
	if cfg.EqualizeFreeSpace {
		if er := cfg.Checker.EqualizeFreeSpace(); er != errno.OK {
			return nil, fmt.Errorf("mc: replay equalizing free space: %w", er)
		}
	}
	targets := cfg.Checker.Targets()
	for _, op := range trail {
		for _, t := range cfg.Trackers {
			if err := t.PreOp(); err != nil {
				return nil, fmt.Errorf("mc: replay pre-op %s: %w", t.Name(), err)
			}
		}
		results := make([]checker.OpResult, len(targets))
		for i, tgt := range targets {
			results[i] = workload.Execute(cfg.Kernel, tgt.MountPoint, op)
		}
		for _, t := range cfg.Trackers {
			if err := t.PostOp(); err != nil {
				return nil, fmt.Errorf("mc: replay post-op %s: %w", t.Name(), err)
			}
		}
		if d := cfg.Checker.CheckResults(op.String(), results); d != nil {
			return d, nil
		}
		d, _, er := cfg.Checker.CheckAndHash(op.String())
		if er != errno.OK {
			return nil, fmt.Errorf("mc: replay state check: %w", er)
		}
		if d != nil {
			return d, nil
		}
	}
	return nil, nil
}

// VerifyTrail replays trail against cfg's fresh targets and reports
// whether it reproduces the wanted discrepancy: any discrepancy when
// want is nil, otherwise one of the same kind. The engine's check
// granularity guarantees reproduction is judged against the first
// discrepancy the replay hits, exactly as the original run did.
func VerifyTrail(cfg Config, trail []workload.Op, want *checker.Discrepancy) (*checker.Discrepancy, bool, error) {
	got, err := Replay(cfg, trail)
	if err != nil {
		return nil, false, err
	}
	same := got != nil && (want == nil || got.Kind == want.Kind)
	return got, same, nil
}

