package mc_test

import (
	"sync"
	"testing"

	"mcfs"
	"mcfs/internal/obs/perf"
)

// TestExplorePhaseProfile runs a bounded exploration with a profiler
// attached and checks the engine attributed time to the expected phases
// in virtual time.
func TestExplorePhaseProfile(t *testing.T) {
	p := perf.New(nil)
	p.SetSampleEvery(16)
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:   []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:  2,
		MaxOps:    400,
		Observers: mcfs.Observers{Perf: p},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("unexpected bug: %v", res.Bug)
	}
	if s.Perf() != p {
		t.Fatal("Session.Perf() did not return the attached profiler")
	}

	snap := p.Snapshot()
	if !snap.Enabled() {
		t.Fatal("profiler recorded no phases")
	}
	// Every normal exploration exercises these phases; fsck only appears
	// under crash exploration.
	for _, phase := range []string{
		perf.PhaseCheckpoint, perf.PhaseExecute, perf.PhaseVerify,
		perf.PhaseRestore, perf.PhaseHash,
	} {
		h, ok := snap.Phases[phase]
		if !ok || h.Count == 0 {
			t.Errorf("phase %q not recorded", phase)
		}
	}
	if _, ok := snap.Phases[perf.PhaseFsck]; ok {
		t.Error("fsck phase recorded without crash exploration")
	}
	// The execute phase ran once per executed op.
	if n := snap.Phases[perf.PhaseExecute].Count; n != res.Ops {
		t.Errorf("execute phase count = %d, want %d (one per op)", n, res.Ops)
	}
	if total := snap.Total(); total <= 0 {
		t.Errorf("Total() = %v, want > 0 (virtual clock must advance)", total)
	}
	if len(snap.Samples) == 0 {
		t.Error("no telemetry samples recorded")
	}
	last := snap.Samples[len(snap.Samples)-1]
	if last.Ops > res.Ops || last.Unique > res.UniqueStates || last.Revisits > res.Revisits {
		t.Errorf("last sample %+v exceeds final counters ops=%d unique=%d revisits=%d",
			last, res.Ops, res.UniqueStates, res.Revisits)
	}
}

// TestCrashExplorePhaseProfile checks that crash exploration attributes
// fsck time and counts crash points in the telemetry.
func TestCrashExplorePhaseProfile(t *testing.T) {
	p := perf.New(nil)
	p.SetSampleEvery(8)
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:          []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth:         1,
		MaxOps:           600,
		CrashExploration: true,
		Observers:        mcfs.Observers{Perf: p},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("unexpected bug: %v", res.Bug)
	}
	if res.Crash.PointsExplored == 0 {
		t.Fatal("crash exploration tested no crash points")
	}
	snap := p.Snapshot()
	if _, ok := snap.Phases[perf.PhaseFsck]; !ok {
		t.Error("fsck phase not recorded under crash exploration (ext4 plane has fsck)")
	}
	if _, ok := snap.Phases[perf.PhaseRemount]; !ok {
		t.Error("remount phase not recorded under crash exploration")
	}
	var sawCrashPoints bool
	for _, smp := range snap.Samples {
		if smp.CrashPoints > 0 {
			sawCrashPoints = true
			break
		}
	}
	if !sawCrashPoints {
		t.Error("telemetry samples never saw a nonzero crash-point count")
	}
}

// TestSwarmMergesPerf checks that SwarmRun merges per-worker phase
// profiles and drops per-worker telemetry series.
func TestSwarmMergesPerf(t *testing.T) {
	var mu sync.Mutex
	profilers := make(map[int64]*perf.Profiler)
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 2, ShareVisited: true},
		func(seed int64) (mcfs.Options, error) {
			p := perf.New(nil)
			mu.Lock()
			profilers[seed] = p
			mu.Unlock()
			return mcfs.Options{
				Targets:   []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
				MaxDepth:  2,
				MaxOps:    200,
				Observers: mcfs.Observers{Perf: p},
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Bug != nil {
		t.Fatalf("unexpected bug: %v", sr.Bug)
	}
	if !sr.Perf.Enabled() {
		t.Fatal("merged swarm snapshot recorded no phases")
	}
	var workers int64
	for _, p := range profilers {
		workers += p.Snapshot().Phases[perf.PhaseExecute].Count
	}
	if got := sr.Perf.Phases[perf.PhaseExecute].Count; got != workers {
		t.Errorf("merged execute count = %d, want sum of workers %d", got, workers)
	}
	if len(sr.Perf.Samples) != 0 {
		t.Errorf("merged snapshot kept %d telemetry samples, want 0", len(sr.Perf.Samples))
	}
}
