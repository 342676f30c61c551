// Tests for the coordinated swarm subsystem: cancellation, the shared
// visited table, worker draining on factory errors, checkpoint-leak
// regression coverage, and resume accounting. Run with -race: the swarm
// is the only concurrent part of the engine.
package mc_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/mc"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
	"mcfs/internal/tracker"
)

// --- Cancel token ----------------------------------------------------------

func TestCancelToken(t *testing.T) {
	var nilCancel *mc.Cancel
	if nilCancel.Canceled() {
		t.Error("nil Cancel reports canceled")
	}
	c := mc.NewCancel()
	if c.Canceled() {
		t.Error("fresh Cancel reports canceled")
	}
	c.Cancel("first")
	c.Cancel("second")
	if !c.Canceled() {
		t.Error("fired Cancel not reporting canceled")
	}
	if got := c.Reason(); got != "first" {
		t.Errorf("Reason() = %q, want first-wins %q", got, "first")
	}
}

func TestCancelTokenConcurrent(t *testing.T) {
	c := mc.NewCancel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Cancel(fmt.Sprintf("worker %d", i))
		}(i)
	}
	wg.Wait()
	if !c.Canceled() || c.Reason() == "" {
		t.Errorf("Canceled=%v Reason=%q after concurrent fire", c.Canceled(), c.Reason())
	}
}

// --- Resume helpers over visited.Set ---------------------------------------

func TestSharedVisitedSeedDoesNotCountAsNovel(t *testing.T) {
	run := exploreClean(t, 2, 300, 0, nil)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	sv := visited.NewSet(nil)
	mc.SeedVisited(sv, run.Resume)
	if sv.Len() == 0 {
		t.Fatal("seeding recorded no states")
	}
	if sv.NovelCount() != 0 {
		t.Errorf("NovelCount = %d after seeding, want 0 (seeds are not discoveries)", sv.NovelCount())
	}
	// Seeding twice is idempotent.
	mc.SeedVisited(sv, run.Resume)
	if got := sv.Len(); got != run.Resume.UniqueStates() {
		t.Errorf("Len = %d after double seed, want %d", got, run.Resume.UniqueStates())
	}
	// Export round-trips the seeded knowledge: same states, same depths.
	back, err := mc.ExportVisited(sv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, run.Resume) {
		t.Errorf("ExportVisited(SeedVisited(r)) differs from r (%d vs %d states)",
			back.UniqueStates(), run.Resume.UniqueStates())
	}
}

// --- Coordinated swarm: cancellation ---------------------------------------

// TestSwarmFirstBugCancelsPeers is the tentpole regression: with a huge
// per-worker budget and a seeded bug, the first worker to find the bug
// must stop its peers promptly — canceled peers end far below budget
// instead of burning their full 100000 operations.
func TestSwarmFirstBugCancelsPeers(t *testing.T) {
	const budget = 100000
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 4}, func(seed int64) (mcfs.Options, error) {
		return mcfs.Options{
			Targets: []mcfs.TargetSpec{
				{Kind: "verifs1"},
				{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
			},
			MaxDepth: 3,
			MaxOps:   budget,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("worker %d error: %v", sr.ErrWorker+1, sr.Err)
	}
	if sr.Bug == nil {
		t.Fatal("no swarm worker found the seeded bug")
	}
	if sr.BugWorker < 0 || sr.BugWorker >= len(sr.Workers) {
		t.Fatalf("BugWorker = %d out of range", sr.BugWorker)
	}
	if sr.Workers[sr.BugWorker].Bug == nil {
		t.Errorf("BugWorker %d has no bug in its own result", sr.BugWorker+1)
	}
	canceled := 0
	var sumOps int64
	for i, r := range sr.Workers {
		sumOps += r.Ops
		if i == sr.BugWorker {
			continue
		}
		if r.Canceled {
			canceled++
			if r.Ops >= budget {
				t.Errorf("canceled worker %d still ran %d ops (budget %d): cancellation not prompt", i+1, r.Ops, budget)
			}
		}
	}
	if canceled == 0 {
		t.Error("no peer was canceled; first-bug cancellation did not propagate")
	}
	if sr.Ops != sumOps {
		t.Errorf("merged Ops = %d, want sum of workers %d", sr.Ops, sumOps)
	}
}

// TestSwarmCallerCancel: an external token aborts a running swarm.
func TestSwarmCallerCancel(t *testing.T) {
	cancel := mcfs.NewCancel()
	cancel.Cancel("caller abort")
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 2, Cancel: cancel}, func(seed int64) (mcfs.Options, error) {
		return mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3,
			MaxOps:   100000,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sr.Workers {
		if r.Ops != 0 {
			t.Errorf("worker %d ran %d ops under a pre-fired cancel", i+1, r.Ops)
		}
	}
}

// --- Coordinated swarm: worker-leak fix ------------------------------------

// TestSwarmFactoryErrorDrainsWorkers is the satellite-1 regression: a
// factory error used to abandon already-started workers (goroutine
// leak + lost results). Now the error cancels and drains them.
func TestSwarmFactoryErrorDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("factory boom")
	_, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 4}, func(seed int64) (mcfs.Options, error) {
		if seed == 3 {
			return mcfs.Options{}, boom
		}
		return mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3,
			MaxOps:   100000,
		}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the factory error", err)
	}
	// SwarmRun must not return before every worker goroutine exits.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; goroutine exits are what we wait on
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after factory error", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- Coordinated swarm: shared visited table -------------------------------

// TestSharedVisitedReducesDuplicates: the same swarm explores once with
// independent visited tables and once with the shared table; sharing
// must cut cross-worker duplicate states. A third, resumed run with
// independent tables checks the merged knowledge: resumed states are
// not counted as discoveries, and every merged depth is the shallowest
// any source recorded.
func TestSharedVisitedReducesDuplicates(t *testing.T) {
	run := func(share bool, resume *mcfs.ResumeState) mcfs.SwarmResult {
		sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 3, ShareVisited: share, Resume: resume},
			func(seed int64) (mcfs.Options, error) {
				return mcfs.Options{
					Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
					MaxDepth: 3,
					MaxOps:   400,
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Err != nil {
			t.Fatalf("share=%v worker %d: %v", share, sr.ErrWorker+1, sr.Err)
		}
		if sr.Bug != nil {
			t.Fatalf("share=%v unexpected bug: %v", share, sr.Bug.Discrepancy)
		}
		return sr
	}
	indep := run(false, nil)
	shared := run(true, nil)

	if indep.DuplicateStates == 0 {
		t.Fatal("independent workers produced no duplicates; state space too small to test sharing")
	}
	if shared.DuplicateStates >= indep.DuplicateStates {
		t.Errorf("shared table did not reduce duplicates: shared=%d independent=%d",
			shared.DuplicateStates, indep.DuplicateStates)
	}
	if shared.GlobalUniqueStates == 0 || shared.Resume == nil {
		t.Errorf("shared swarm lost its merged visited knowledge: global=%d resume=%v",
			shared.GlobalUniqueStates, shared.Resume)
	}
	t.Logf("duplicates: independent=%d shared=%d (global unique: %d vs %d)",
		indep.DuplicateStates, shared.DuplicateStates,
		indep.GlobalUniqueStates, shared.GlobalUniqueStates)

	seed := exploreClean(t, 3, 150, 0, nil).Resume
	resumed := run(false, seed)
	if got, want := resumed.GlobalUniqueStates, resumed.Resume.UniqueStates()-seed.UniqueStates(); got != want {
		t.Errorf("resumed GlobalUniqueStates = %d, want %d merged - %d seeded = %d",
			got, resumed.Resume.UniqueStates(), seed.UniqueStates(), want)
	}
	if resumed.GlobalUniqueStates == 0 {
		t.Error("resumed swarm discovered nothing beyond its seed")
	}
	minDepth := make(map[abstraction.State]int)
	for _, r := range append([]*mcfs.ResumeState{seed}, workerResumes(resumed)...) {
		for i, st := range r.States {
			if d, ok := minDepth[st]; !ok || r.Depths[i] < d {
				minDepth[st] = r.Depths[i]
			}
		}
	}
	t.Logf("resumed: %d seeded, %d merged, %d discovered", seed.UniqueStates(),
		resumed.Resume.UniqueStates(), resumed.GlobalUniqueStates)
	if len(minDepth) != len(resumed.Resume.States) {
		t.Errorf("merged resume has %d states, sources hold %d", len(resumed.Resume.States), len(minDepth))
	}
	for i, st := range resumed.Resume.States {
		if got, want := resumed.Resume.Depths[i], minDepth[st]; got != want {
			t.Errorf("merged depth of %x = %d, want the per-state minimum %d", st[:4], got, want)
		}
	}
}

// workerResumes collects the non-nil per-worker resume sets.
func workerResumes(sr mcfs.SwarmResult) []*mcfs.ResumeState {
	var out []*mcfs.ResumeState
	for _, r := range sr.Workers {
		if r.Resume != nil {
			out = append(out, r.Resume)
		}
	}
	return out
}

// --- Checkpoint-leak fix ---------------------------------------------------

// leakTracker wraps a Tracker and counts live checkpoint images: each
// successful Checkpoint retains one, each Restore/Discard releases it.
// failAt > 0 makes the Nth Checkpoint call fail without retaining.
type leakTracker struct {
	tracker.Tracker
	mu     sync.Mutex
	live   map[uint64]bool
	calls  int
	failAt int
}

func newLeakTracker(inner tracker.Tracker, failAt int) *leakTracker {
	return &leakTracker{Tracker: inner, live: make(map[uint64]bool), failAt: failAt}
}

func (l *leakTracker) Checkpoint(key uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	if l.failAt > 0 && l.calls >= l.failAt {
		return fmt.Errorf("leakTracker: injected checkpoint failure (call %d)", l.calls)
	}
	if err := l.Tracker.Checkpoint(key); err != nil {
		return err
	}
	l.live[key] = true
	return nil
}

func (l *leakTracker) Restore(key uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Tracker.Restore(key); err != nil {
		return err
	}
	delete(l.live, key)
	return nil
}

func (l *leakTracker) Discard(key uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Tracker.Discard(key)
	delete(l.live, key)
}

func (l *leakTracker) retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}

// TestCheckpointFailureRetainsNoImages is the satellite-2 regression: a
// partial Checkpoint failure (tracker B fails after tracker A saved its
// image) used to strand tracker A's image forever. The engine must
// Discard every image it will never Restore — including the outer DFS
// frames unwound by the error.
func TestCheckpointFailureRetainsNoImages(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := s.Config()
	// Tracker 0 records leaks; tracker 1 fails its 7th checkpoint, deep
	// enough that several outer frames hold live images at failure time.
	a := newLeakTracker(cfg.Trackers[0], 0)
	b := newLeakTracker(cfg.Trackers[1], 7)
	cfg.Trackers = []tracker.Tracker{a, b}

	res := s.Run()
	if res.Err == nil {
		t.Fatal("run succeeded despite the injected checkpoint failure")
	}
	if got := a.retained(); got != 0 {
		t.Errorf("tracker A retains %d checkpoint images after the failed run, want 0", got)
	}
	if got := b.retained(); got != 0 {
		t.Errorf("tracker B retains %d checkpoint images after the failed run, want 0", got)
	}
}

// TestCleanRunRetainsNoImages: the Discard plumbing must also leave
// nothing behind on the happy path (every checkpoint is restored).
func TestCleanRunRetainsNoImages(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := s.Config()
	a := newLeakTracker(cfg.Trackers[0], 0)
	b := newLeakTracker(cfg.Trackers[1], 0)
	cfg.Trackers = []tracker.Tracker{a, b}
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if a.retained() != 0 || b.retained() != 0 {
		t.Errorf("clean run retains images: A=%d B=%d, want 0/0", a.retained(), b.retained())
	}
}

// --- Resume accounting fix -------------------------------------------------

// TestResumeRoundTripUniqueStates is the satellite-3 regression: resuming
// from a COMPLETE run must report zero new unique states — the initial
// state was double-counted before (it is already in the resume set).
func TestResumeRoundTripUniqueStates(t *testing.T) {
	first := exploreClean(t, 2, 0, 0, nil)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Resume == nil || first.Resume.UniqueStates() == 0 {
		t.Fatal("first run exported no resume state")
	}

	second := exploreClean(t, 2, 0, 0, first.Resume)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if second.UniqueStates != 0 {
		t.Errorf("resumed complete run discovered %d unique states, want 0 (initial state double-counted?)",
			second.UniqueStates)
	}
	if second.Revisits == 0 {
		t.Error("resumed run recorded no revisits; the resume set was ignored")
	}
	// Combined knowledge must not exceed the full run's.
	if second.Resume != nil && second.Resume.UniqueStates() != first.Resume.UniqueStates() {
		t.Errorf("resume round-trip changed the state set: %d -> %d",
			first.Resume.UniqueStates(), second.Resume.UniqueStates())
	}
}

// exploreClean runs the clean verifs1-vs-verifs2 pair once.
func exploreClean(t *testing.T, depth int, maxOps int64, seed int64, resume *mcfs.ResumeState) mcfs.Result {
	t.Helper()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: depth,
		MaxOps:   maxOps,
		Seed:     seed,
		Resume:   resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Run()
}

// --- Benchmark: shared vs independent swarm --------------------------------

func benchmarkSwarm(b *testing.B, share bool) {
	var dup, distinct int64
	for i := 0; i < b.N; i++ {
		sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 4, ShareVisited: share},
			func(seed int64) (mcfs.Options, error) {
				return mcfs.Options{
					Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
					MaxDepth: 3,
					MaxOps:   500,
				}, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if sr.Err != nil {
			b.Fatal(sr.Err)
		}
		dup += sr.DuplicateStates
		distinct += sr.GlobalUniqueStates
	}
	b.ReportMetric(float64(dup)/float64(b.N), "dup-states/op")
	b.ReportMetric(float64(distinct)/float64(b.N), "distinct-states/op")
}

func BenchmarkSwarmIndependent(b *testing.B) { benchmarkSwarm(b, false) }
func BenchmarkSwarmShared(b *testing.B)      { benchmarkSwarm(b, true) }

// --- Shared visited-table memory accounting --------------------------------

func TestSharedVisitedChargesAttachedModels(t *testing.T) {
	sv := visited.NewSet(nil)
	clk := simclock.New()
	cfg := memmodel.DefaultConfig()
	m1 := memmodel.New(cfg, clk)

	var h1, h2 abstraction.State
	h1[0], h2[0] = 0x01, 0x02
	sv.Visit(h1, 1) // discovered before attach: charged retroactively

	sv.AttachMem(m1)
	if got := m1.Stats().SharedVisitedBytes; got != memmodel.SharedVisitedEntryBytes {
		t.Errorf("attach did not charge the existing entry: %d bytes", got)
	}

	// A second model attaches, then a peer discovers a new state: both
	// models are charged — one table, every worker's RAM.
	m2 := memmodel.New(cfg, clk)
	sv.AttachMem(m2)
	sv.Visit(h2, 1)
	for i, m := range []*memmodel.Model{m1, m2} {
		if got := m.Stats().SharedVisitedBytes; got != 2*memmodel.SharedVisitedEntryBytes {
			t.Errorf("model %d: %d bytes, want %d", i+1, got, 2*memmodel.SharedVisitedEntryBytes)
		}
	}

	// Revisits grow nothing.
	sv.Visit(h2, 2)
	if got := m1.Stats().SharedVisitedBytes; got != 2*memmodel.SharedVisitedEntryBytes {
		t.Errorf("revisit charged the table: %d bytes", got)
	}
}

func TestSwarmSharedTableChargedToSessionModels(t *testing.T) {
	memCfg := mcfs.DefaultMemoryConfig()
	var mu sync.Mutex
	var sessions []*mcfs.Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	sr, err := mc.SwarmRun(mc.SwarmOptions{Workers: 2, Shared: visited.NewSet(nil)},
		func(seed int64) (mc.Config, error) {
			s, err := mcfs.NewSession(mcfs.Options{
				Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
				MaxDepth: 2,
				MaxOps:   300,
				Seed:     seed,
				Memory:   &memCfg,
			})
			if err != nil {
				return mc.Config{}, err
			}
			mu.Lock()
			sessions = append(sessions, s)
			mu.Unlock()
			return *s.Config(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if sr.GlobalUniqueStates == 0 {
		t.Fatal("swarm discovered nothing")
	}
	want := sr.GlobalUniqueStates * memmodel.SharedVisitedEntryBytes
	mu.Lock()
	defer mu.Unlock()
	for i, s := range sessions {
		st := s.MemoryStats()
		if st.SharedVisitedBytes != want {
			t.Errorf("session %d: SharedVisitedBytes = %d, want %d (= %d states x %d bytes)",
				i, st.SharedVisitedBytes, want, sr.GlobalUniqueStates, memmodel.SharedVisitedEntryBytes)
		}
		// Shared mode must not ALSO grow the local visited table — that
		// would double-charge RAM for the same entries.
		if st.Entries != 0 {
			t.Errorf("session %d: local visited table grew to %d entries in shared mode", i, st.Entries)
		}
	}
}

// --- Coordinated swarm: worker panic isolation ------------------------------

// panicTracker panics on its Nth PreOp call — simulating a file system
// under test blowing up mid-operation.
type panicTracker struct {
	tracker.Tracker
	mu      sync.Mutex
	calls   int
	panicAt int
}

func (p *panicTracker) PreOp() error {
	p.mu.Lock()
	p.calls++
	n := p.calls
	p.mu.Unlock()
	if n >= p.panicAt {
		panic(fmt.Sprintf("panicTracker: injected panic (call %d)", n))
	}
	return p.Tracker.PreOp()
}

// TestSwarmWorkerPanicIsolated: a panicking target must not kill the
// swarm process. The panicking worker ends with a failed Result carrying
// a *mc.PanicError (panic value + partial trail), its peers are canceled
// promptly, and no goroutine leaks.
func TestSwarmWorkerPanicIsolated(t *testing.T) {
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var sessions []*mcfs.Session
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range sessions {
			s.Close()
		}
	}()

	sr, err := mc.SwarmRun(mc.SwarmOptions{Workers: 2}, func(seed int64) (mc.Config, error) {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3,
			MaxOps:   500000, // peers run long unless canceled
			Seed:     seed,
		})
		if err != nil {
			return mc.Config{}, err
		}
		mu.Lock()
		sessions = append(sessions, s)
		mu.Unlock()
		cfg := *s.Config()
		if seed == 1 {
			cfg.Trackers = append([]tracker.Tracker(nil), cfg.Trackers...)
			cfg.Trackers[0] = &panicTracker{Tracker: cfg.Trackers[0], panicAt: 5}
		}
		return cfg, nil
	})
	if err != nil {
		t.Fatalf("SwarmRun: %v", err)
	}
	if sr.Err == nil {
		t.Fatal("swarm reports no error despite a panicking worker")
	}
	var pe *mc.PanicError
	if !errors.As(sr.Err, &pe) {
		t.Fatalf("swarm error = %T %v, want *mc.PanicError", sr.Err, sr.Err)
	}
	if pe.Stack == "" {
		t.Error("PanicError carries no stack")
	}
	if sr.ErrWorker != 0 {
		t.Errorf("ErrWorker = %d, want 0 (seed 1)", sr.ErrWorker)
	}
	// No worker goroutines may outlive SwarmRun. Close the sessions
	// first — their FUSE servers hold goroutines of their own.
	mu.Lock()
	for _, s := range sessions {
		s.Close()
	}
	sessions = nil
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after panicking worker", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicProducesPartialTrail pins the PanicError contract at the
// engine level with a deterministic crash site: a single-op pool whose
// DFS descends immediately (create at depth 0, EEXIST-prune at depth 1),
// with the tracker panicking on its second PreOp — depth 1, one op on
// the trail. The partial trail and the mc.panics metric must both
// survive the recover.
func TestPanicProducesPartialTrail(t *testing.T) {
	hub := obs.New(obs.Options{})
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		Pool: &mcfs.Pool{
			Files: []string{"/f0"},
			Ops:   []mcfs.OpKind{mcfs.OpCreateFile},
		},
		MaxDepth:  3,
		Observers: mcfs.Observers{Obs: hub},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := *s.Config()
	cfg.Trackers = append([]tracker.Tracker(nil), cfg.Trackers...)
	cfg.Trackers[0] = &panicTracker{Tracker: cfg.Trackers[0], panicAt: 2}

	res := mc.Run(cfg)
	var pe *mc.PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("Run error = %T %v, want *mc.PanicError", res.Err, res.Err)
	}
	if len(pe.Trail) != 1 {
		t.Errorf("partial trail = %v, want the one committed create", pe.Trail)
	}
	if got := hub.Snapshot().Counters[obs.MetricPanics]; got != 1 {
		t.Errorf("mc.panics = %d, want 1", got)
	}
}
