// Integration tests for the live exploration event stream: engine
// emission order, virtual-time determinism, the lossy-subscriber
// contract on the hot path, and swarm health/heatmap merging. Run with
// -race: publishers (workers) and consumers are concurrent.
package mc_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/stream"
)

// crashStreamNDJSON runs the seeded ext4 journal-commit-first crash
// exploration with a fresh bus and returns the full event stream as
// NDJSON plus the run result.
func crashStreamNDJSON(t *testing.T) ([]byte, []stream.Event, mcfs.Result) {
	t.Helper()
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		CrashExploration: true,
		Observers:        mcfs.Observers{Stream: bus},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("oversized subscriber dropped %d events", got)
	}
	events := sub.Drain()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), events, res
}

func TestCrashStreamDeterministicAndComplete(t *testing.T) {
	ndjson1, events, res := crashStreamNDJSON(t)

	if len(events) == 0 {
		t.Fatal("crash run emitted no events")
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != stream.KindWorkerStart || first.Seq != 1 {
		t.Errorf("first event = %+v, want worker-start seq 1", first)
	}
	if last.Kind != stream.KindWorkerDrain || last.Detail != "bug" {
		t.Errorf("last event = %+v, want worker-drain with status bug", last)
	}
	bugVerdicts, bugEvents := 0, 0
	var prevSeq uint64
	var prevAt = events[0].At - 1
	for _, ev := range events {
		if ev.Seq != prevSeq+1 {
			t.Fatalf("sequence gap: %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.At < prevAt {
			t.Fatalf("virtual time ran backwards: %v after %v", ev.At, prevAt)
		}
		prevAt = ev.At
		switch ev.Kind {
		case stream.KindCrashVerdict:
			if ev.Verdict == stream.VerdictBug {
				bugVerdicts++
				if ev.Op == "" || ev.Target == "" || ev.Writes == 0 {
					t.Errorf("bug verdict missing crash-point coordinates: %+v", ev)
				}
			}
		case stream.KindBug:
			bugEvents++
			if ev.Detail != "crash-consistency" {
				t.Errorf("bug event detail = %q, want crash-consistency", ev.Detail)
			}
		}
	}
	if bugVerdicts == 0 {
		t.Error("no crash-verdict event carries verdict=bug for the seeded bug")
	}
	if bugEvents != 1 {
		t.Errorf("bug events = %d, want exactly 1", bugEvents)
	}

	// The heatmap's bug cells pinpoint the same crash points.
	if res.CrashHeatmap == nil {
		t.Fatal("crash run produced no heatmap")
	}
	if res.CrashHeatmap.Bugs() == 0 {
		t.Error("heatmap has no bug cells for the seeded commit-first bug")
	}

	// Virtual time makes the stream bit-deterministic: a second fresh
	// run produces byte-identical NDJSON.
	ndjson2, _, _ := crashStreamNDJSON(t)
	if !bytes.Equal(ndjson1, ndjson2) {
		t.Error("two seeded crash runs produced different event streams")
	}
}

func TestSlowSubscriberNeverBlocksEngine(t *testing.T) {
	hub := obs.New(obs.Options{})
	bus := mcfs.NewStream()
	bus.SetObs(hub)
	slow := bus.Subscribe(1) // never drained: every event past the first drops
	defer slow.Close()
	wide := bus.Subscribe(1 << 16)
	defer wide.Close()

	s, err := mcfs.NewSession(mcfs.Options{
		Targets:   []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:  3,
		MaxOps:    2000,
		Observers: mcfs.Observers{Stream: bus},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run with a stuck subscriber: %v", res.Err)
	}
	// The bounded space may exhaust before the op budget; what matters
	// is that the engine ran to its natural end at full speed.
	if res.Ops < 10*stream.HeartbeatEvery {
		t.Fatalf("engine ran only %d ops; too few to exercise the stream", res.Ops)
	}
	if slow.Dropped() == 0 {
		t.Errorf("capacity-1 subscriber dropped nothing over a %d-op run", res.Ops)
	}
	if bus.Dropped() != slow.Dropped()+wide.Dropped() {
		t.Errorf("bus Dropped = %d, want subscriber sum %d",
			bus.Dropped(), slow.Dropped()+wide.Dropped())
	}
	if got := hub.Snapshot().Counters[obs.MetricStreamDropped]; got != bus.Dropped() {
		t.Errorf("%s = %d, want bus total %d", obs.MetricStreamDropped, got, bus.Dropped())
	}

	// Heartbeats rode the op counter: 2000 executed ops at one beat per
	// 64 means the wide subscriber saw a steady pulse.
	beats := 0
	for _, ev := range wide.Drain() {
		if ev.Kind == stream.KindWorkerHeartbeat {
			beats++
		}
	}
	if want := int(res.Ops) / stream.HeartbeatEvery; beats < want {
		t.Errorf("heartbeats = %d, want >= %d (every %d ops)", beats, want, stream.HeartbeatEvery)
	}
}

func TestSwarmStreamMergesHealthAndHeatmap(t *testing.T) {
	const workers = 3
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: workers, Stream: bus},
		func(seed int64) (mcfs.Options, error) {
			return mcfs.Options{
				Targets: []mcfs.TargetSpec{
					{Kind: "ext2"},
					{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
				},
				MaxDepth:         1,
				MaxOps:           8000,
				CrashExploration: true,
				Seed:             seed,
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("swarm error: %v", sr.Err)
	}
	if sr.Bug == nil {
		t.Fatal("swarm did not find the seeded crash bug")
	}

	if sr.CrashHeatmap == nil || sr.CrashHeatmap.Bugs() == 0 {
		t.Error("merged swarm heatmap has no bug cells")
	}
	if got := len(sr.WorkerHealth.Workers); got != workers {
		t.Fatalf("WorkerHealth has %d rows, want %d", got, workers)
	}
	for i, w := range sr.WorkerHealth.Workers {
		if w.Worker != i+1 {
			t.Errorf("health row %d is worker %d, want %d (swarm ids are 1..N)", i, w.Worker, i+1)
		}
		if w.Status == stream.WorkerRunning {
			t.Errorf("worker %d still 'running' after the swarm returned", w.Worker)
		}
	}

	// Interleaving across workers is scheduler-dependent, but each
	// worker's own subsequence must stay in publication order.
	lastSeq := map[int]uint64{}
	sawWorker := map[int]bool{}
	for _, ev := range sub.Drain() {
		if ev.Worker < 1 || ev.Worker > workers {
			t.Fatalf("event from unknown worker %d", ev.Worker)
		}
		sawWorker[ev.Worker] = true
		if ev.Seq <= lastSeq[ev.Worker] {
			t.Fatalf("worker %d events out of order: seq %d after %d", ev.Worker, ev.Seq, lastSeq[ev.Worker])
		}
		lastSeq[ev.Worker] = ev.Seq
	}
	if len(sawWorker) != workers {
		t.Errorf("events seen from %d workers, want all %d", len(sawWorker), workers)
	}
}

// TestEarlyFailureDrainsWorker: a run that fails before exploring — the
// free-space equalization or the initial state hash hits an unmounted
// target — must still drain its worker with status "failed", so
// /workers and -top stop reporting it as running.
func TestEarlyFailureDrainsWorker(t *testing.T) {
	for _, c := range []struct {
		name     string
		noEqual  bool
		wantFail string
	}{
		{"equalize", false, "equalizing free space"},
		{"initial-hash", true, "hashing initial state"},
	} {
		t.Run(c.name, func(t *testing.T) {
			bus := mcfs.NewStream()
			sub := bus.Subscribe(1 << 10)
			defer sub.Close()
			s, err := mcfs.NewSession(mcfs.Options{
				Targets:                  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
				MaxDepth:                 2,
				DisableEqualizeFreeSpace: c.noEqual,
				Observers:                mcfs.Observers{Stream: bus},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Kernel().Unmount("/mnt0"); err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if res.Err == nil || !strings.Contains(res.Err.Error(), c.wantFail) {
				t.Fatalf("Run error = %v, want %q", res.Err, c.wantFail)
			}
			events := sub.Drain()
			if len(events) == 0 {
				t.Fatal("no stream events")
			}
			if last := events[len(events)-1]; last.Kind != stream.KindWorkerDrain || last.Detail != "failed" {
				t.Errorf("last event = %+v, want worker-drain failed", last)
			}
			h := bus.Workers()
			if len(h.Workers) != 1 {
				t.Fatalf("health view has %d workers, want 1", len(h.Workers))
			}
			if w := h.Workers[0]; w.Status != stream.WorkerDone || w.Detail != "failed" {
				t.Errorf("worker status %q detail %q, want %q/failed", w.Status, w.Detail, stream.WorkerDone)
			}
		})
	}
}
