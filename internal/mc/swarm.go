// Swarm coordination: Spin's swarm verification (§2, §7) rebuilt as a
// coordinated parallel subsystem instead of fire-and-forget goroutines.
//
// Three pieces make the swarm cooperative:
//
//   - Cancel, a context-style cancellation token polled by every engine
//     between operations, so all workers stop promptly when any worker
//     finds a bug, fails, or the caller aborts.
//   - A shared visited.Set, a sharded visited-state table with striped
//     mutexes keyed on abstract state hashes. Workers that share one
//     prune subtrees their peers already expanded instead of
//     re-exploring the overlap — the coordination discipline pFSCK
//     applies to parallel file-system checking.
//   - A bounded worker pool: Parallelism caps how many of the n seeded
//     workers run concurrently, so a swarm can be wider than the core
//     count without oversubscribing the machine.
//
// SwarmRun merges the per-worker Results into one SwarmResult: summed
// counters, merged Coverage, merged ResumeState, first-bug-wins
// BugReport, and per-worker observability hubs merged via obs.Merge.
package mc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mcfs/internal/mc/visited"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/perf"
	"mcfs/internal/obs/stream"
)

// Cancel is a lightweight cancellation token shared by swarm workers.
// Engines poll it between operations (one atomic load per op), so
// cancellation latency is one operation, not one run. The zero value is
// ready to use; a nil *Cancel is valid and never canceled.
type Cancel struct {
	fired  atomic.Bool
	mu     sync.Mutex
	reason string // guarded by mu
}

// NewCancel returns a fresh, uncanceled token.
func NewCancel() *Cancel { return &Cancel{} }

// Cancel fires the token. The first caller's reason is kept; later
// calls are no-ops.
func (c *Cancel) Cancel(reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if !c.fired.Load() {
		c.reason = reason
		c.fired.Store(true)
	}
	c.mu.Unlock()
}

// Canceled reports whether the token has fired. Safe on a nil receiver.
func (c *Cancel) Canceled() bool { return c != nil && c.fired.Load() }

// Reason returns the first cancellation reason ("" if not canceled).
func (c *Cancel) Reason() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reason
}

// SwarmOptions configures a coordinated swarm run.
type SwarmOptions struct {
	// Workers is the number of diversified workers (seeds 1..Workers).
	Workers int
	// Parallelism caps how many workers run concurrently. 0 means
	// min(Workers, GOMAXPROCS); Workers may exceed it — excess workers
	// queue for a slot.
	Parallelism int
	// Shared, when set, is the one visited table every worker visits
	// through, so workers prune states their peers already expanded; the
	// caller picks its backend and may govern it. Nil gives every worker
	// an independent table of its own.
	Shared *visited.Set
	// Resume seeds the swarm with an earlier run's visited knowledge:
	// the Shared table when set, otherwise each worker's own table
	// (unless its factory Config already carries a Resume).
	Resume *ResumeState
	// Cancel, when set, lets the caller abort the whole swarm; when nil
	// the coordinator creates an internal token. Either way the token is
	// installed into every worker Config (overriding factory-set ones).
	Cancel *Cancel
	// Journal, when set, is the journal of every worker whose factory
	// Config carries none. The writer interleaves workers' records;
	// journal.WorkerRecords de-multiplexes them by worker id.
	Journal *journal.Writer
	// Stream, when set, is the event bus of every worker whose factory
	// Config carries none: all workers publish their exploration events
	// and heartbeats to this one bus, and SwarmResult.WorkerHealth
	// snapshots its liveness view.
	Stream *stream.Bus
}

// SwarmResult is the merged outcome of a coordinated swarm.
type SwarmResult struct {
	// Workers holds the per-worker Results in seed order. Workers
	// canceled before they started have only Canceled set.
	Workers []Result
	// Ops, UniqueStates, and Revisits are summed across workers. With a
	// shared visited table each globally-new state is counted by exactly
	// one worker, so UniqueStates is the swarm-wide distinct count; with
	// independent tables workers re-discover overlapping states and the
	// sum double-counts the overlap.
	Ops          int64
	UniqueStates int64
	Revisits     int64
	// GlobalUniqueStates is the number of distinct states discovered
	// across all workers (excluding resumed prior knowledge), and
	// DuplicateStates = UniqueStates - GlobalUniqueStates is the wasted
	// duplicate work a shared table eliminates.
	GlobalUniqueStates int64
	DuplicateStates    int64
	// Bug is the first discrepancy any worker reported (first-bug-wins);
	// BugWorker is its 0-based worker index, -1 when Bug is nil.
	Bug       *BugReport
	BugWorker int
	// Coverage merges every worker's operation/outcome counts.
	Coverage Coverage
	// Resume is the swarm's merged visited knowledge (shared-table
	// export, or the per-worker union), ready to seed a later run; nil
	// with ResumeErr set when the shared table's backend refuses export
	// (visited.ErrNoExport at reduced fidelity).
	Resume    *ResumeState
	ResumeErr error
	// Fidelity and OmissionProb describe the shared table's final
	// matching precision and estimated omission probability (exact / 0
	// without a shared table or when no governor degraded it).
	Fidelity     visited.Fidelity
	OmissionProb float64
	// Crash merges the per-worker crash-exploration statistics; zero
	// when no worker ran with crash exploration enabled.
	Crash CrashStats
	// CrashHeatmap merges the per-worker crash-verdict heatmaps; nil
	// when no worker ran with crash exploration enabled.
	CrashHeatmap *stream.Heatmap
	// WorkerHealth is the stream bus's final worker-liveness view; zero
	// value unless SwarmOptions.Stream was set.
	WorkerHealth stream.Health
	// Metrics merges the per-worker observability hub snapshots
	// (obs.Merge); zero-valued when no worker Config carried a hub.
	Metrics obs.Snapshot
	// Perf merges the per-worker phase profiles (perf.Snapshot.Merge);
	// telemetry samples are dropped on merge — workers sample on
	// independent virtual clocks. Zero-valued when no worker Config
	// carried a profiler.
	Perf perf.Snapshot
	// Elapsed is the maximum per-worker virtual time — the parallel
	// swarm's makespan on independent virtual clocks.
	Elapsed time.Duration
	// Err is the first engine failure any worker hit (nil if none);
	// ErrWorker is its 0-based index, -1 when Err is nil.
	Err       error
	ErrWorker int
}

// SwarmRun runs a coordinated swarm: Workers diversified engines built
// by factory (seeds 1..Workers), at most Parallelism running at once,
// all sharing one cancellation token — the first bug, engine failure, or
// caller abort stops every worker promptly. The factory must build a
// fully independent Config (own kernel, file systems, checker, trackers)
// per seed; the coordinator installs the cancellation token, the Shared
// visited table, if any, and the worker id (w+1 for the worker at index
// w) into each Config, and fills a nil Journal or Stream from opts.
//
// SwarmRun returns an error only for setup failures (bad options, a
// factory error — after draining already-started workers). Engine
// failures land in SwarmResult.Err and the per-worker Results.
func SwarmRun(opts SwarmOptions, factory func(seed int64) (Config, error)) (SwarmResult, error) {
	n := opts.Workers
	if n <= 0 {
		return SwarmResult{BugWorker: -1, ErrWorker: -1},
			fmt.Errorf("mc: swarm needs at least one worker, got %d", n)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	cancel := opts.Cancel
	if cancel == nil {
		cancel = NewCancel()
	}
	shared := opts.Shared
	if shared != nil {
		SeedVisited(shared, opts.Resume)
	}

	var (
		results    = make([]Result, n)
		observers  = make([]Observers, n)
		sem        = make(chan struct{}, par)
		wg         sync.WaitGroup
		mu         sync.Mutex // guards the fields below
		factoryErr error
		bugWorker  = -1
		runErr     error
		errWorker  = -1
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cancel.Canceled() {
				results[w] = Result{Canceled: true}
				// Never ran, so Run's own drain event never fires; report
				// the worker on the health view anyway — /workers should
				// list every swarm slot, including ones a fast first bug
				// canceled before they started.
				if opts.Stream != nil {
					opts.Stream.Publish(stream.Event{
						Kind:   stream.KindWorkerDrain,
						Worker: w + 1,
						Detail: "canceled",
					})
				}
				return
			}
			cfg, err := factory(int64(w + 1))
			if err != nil {
				mu.Lock()
				if factoryErr == nil {
					factoryErr = fmt.Errorf("mc: swarm worker %d: %w", w, err)
				}
				mu.Unlock()
				cancel.Cancel(fmt.Sprintf("worker %d factory failed", w+1))
				results[w] = Result{Canceled: true, Err: err}
				return
			}
			cfg.Cancel = cancel
			if shared != nil {
				cfg.Visited = shared
				shared.AttachMem(cfg.Mem)
			} else if cfg.Resume == nil {
				cfg.Resume = opts.Resume
			}
			cfg.Worker = w + 1
			if cfg.Journal == nil {
				cfg.Journal = opts.Journal
			}
			if cfg.Stream == nil {
				cfg.Stream = opts.Stream
			}
			observers[w] = cfg.Observers
			res := runWorker(cfg)
			results[w] = res
			if res.Bug != nil {
				mu.Lock()
				if bugWorker == -1 {
					bugWorker = w
				}
				mu.Unlock()
				cancel.Cancel(fmt.Sprintf("worker %d found a bug", w+1))
			}
			if res.Err != nil {
				mu.Lock()
				if runErr == nil {
					runErr, errWorker = res.Err, w
				}
				mu.Unlock()
				cancel.Cancel(fmt.Sprintf("worker %d failed", w+1))
			}
		}(w)
	}
	// The error path must not abandon running workers: wait for every
	// started goroutine (they stop promptly via the canceled token)
	// before returning anything.
	wg.Wait()

	sr := mergeSwarm(opts, results, shared)
	if opts.Stream != nil {
		sr.WorkerHealth = opts.Stream.Workers()
	}
	sr.BugWorker = bugWorker
	if bugWorker >= 0 {
		sr.Bug = results[bugWorker].Bug
	}
	sr.Err, sr.ErrWorker = runErr, errWorker
	var snaps []obs.Snapshot
	for _, o := range observers {
		if o.Obs != nil {
			snaps = append(snaps, o.Obs.Snapshot())
		}
		if o.Perf != nil {
			sr.Perf = sr.Perf.Merge(o.Perf.Snapshot())
		}
	}
	if len(snaps) > 0 {
		sr.Metrics = obs.Merge(snaps...)
	}
	if factoryErr != nil {
		return sr, factoryErr
	}
	return sr, nil
}

// runWorker runs one swarm worker with a panic backstop. The engine
// already isolates panics raised inside exploration (explore's recover
// turns them into a PanicError carrying the partial trail), but a panic
// in Run's setup or finalization — a broken factory Config, a tracker
// panicking during final restore — would otherwise tear down the whole
// swarm process. The backstop converts it into a failed Result and
// cancels the peers cleanly; the coordinator's drain discipline then
// applies as for any engine failure.
func runWorker(cfg Config) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			perr := &PanicError{Value: r, Stack: string(debug.Stack())}
			if cfg.Obs != nil {
				cfg.Obs.Counter(obs.MetricPanics).Inc()
			}
			// A panic outside explore() never reaches Run's drain emit, so
			// report the worker's death on the stream here. The kernel may
			// itself be the panic's casualty — fall back to timestamp zero.
			if cfg.Stream != nil {
				ev := stream.Event{
					Kind:   stream.KindWorkerPanic,
					Worker: cfg.Worker,
					Detail: fmt.Sprintf("%v", r),
				}
				if cfg.Kernel != nil {
					ev.At = cfg.Kernel.Clock().Now()
				}
				cfg.Stream.Publish(ev)
			}
			cfg.Cancel.Cancel("worker panicked")
			res.Err = perr
		}
	}()
	return Run(cfg)
}

// mergeSwarm folds the per-worker results into the swarm-level sums,
// merged coverage, merged resume knowledge, and duplicate-state count.
func mergeSwarm(opts SwarmOptions, results []Result, shared *visited.Set) SwarmResult {
	sr := SwarmResult{Workers: results, BugWorker: -1, ErrWorker: -1, Coverage: newCoverage()}
	for _, r := range results {
		sr.Ops += r.Ops
		sr.UniqueStates += r.UniqueStates
		sr.Revisits += r.Revisits
		if r.Coverage.ByOp != nil {
			sr.Coverage.Merge(r.Coverage)
		}
		if r.Elapsed > sr.Elapsed {
			sr.Elapsed = r.Elapsed
		}
		sr.Crash.Merge(r.Crash)
		if r.CrashHeatmap != nil {
			if sr.CrashHeatmap == nil {
				sr.CrashHeatmap = stream.NewHeatmap()
			}
			sr.CrashHeatmap.Merge(r.CrashHeatmap)
		}
	}
	if shared != nil {
		sr.Resume, sr.ResumeErr = ExportVisited(shared)
		sr.GlobalUniqueStates = shared.NovelCount()
		sr.Fidelity = shared.Fidelity()
		sr.OmissionProb = shared.Omission()
	} else {
		// Union the workers' knowledge in a scratch table, which keeps
		// each state's shallowest depth; states beyond the resumed seed
		// set are the swarm's distinct discoveries.
		union := visited.NewSet(nil)
		SeedVisited(union, opts.Resume)
		seeded := union.Len()
		for _, r := range results {
			SeedVisited(union, r.Resume)
		}
		sr.GlobalUniqueStates = union.Len() - seeded
		sr.Resume, sr.ResumeErr = ExportVisited(union)
	}
	sr.DuplicateStates = sr.UniqueStates - sr.GlobalUniqueStates
	return sr
}
