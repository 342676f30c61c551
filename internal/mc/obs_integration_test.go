package mc_test

import (
	"bytes"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
)

// TestTrailSpansCoverWholeTrail runs a short exploration with
// observability enabled against a seeded bug and checks that the bug
// report carries a cross-layer span trace: one engine-level span per
// trail operation, each with timed kernel and tracker child spans.
func TestTrailSpansCoverWholeTrail(t *testing.T) {
	hub := obs.New(obs.Options{})
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth:  3,
		MaxOps:    5000,
		Observers: mcfs.Observers{Obs: hub},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug == nil {
		t.Fatal("seeded write-hole-no-zero bug not found")
	}
	if len(res.Bug.TrailSpans) == 0 {
		t.Fatal("bug report has no trail spans despite obs being enabled")
	}

	// One mc-layer op span per trail operation, in trail order.
	var opSpans []obs.Span
	for _, sp := range res.Bug.TrailSpans {
		if sp.Layer == obs.LayerMC {
			opSpans = append(opSpans, sp)
		}
	}
	if len(opSpans) != len(res.Bug.Trail) {
		t.Fatalf("got %d mc-layer spans for a %d-op trail:\n%v",
			len(opSpans), len(res.Bug.Trail), opSpans)
	}
	for i, op := range res.Bug.Trail {
		want := "op:" + op.String()
		if opSpans[i].Name != want {
			t.Errorf("op span %d named %q, want %q", i, opSpans[i].Name, want)
		}
	}

	// Every op span must contain timed kernel work (the syscalls that
	// executed the operation) and timed tracker work (the checkpoints
	// that bracketed it) — the cross-layer part of the trace.
	children := obs.ChildrenOf(res.Bug.TrailSpans)
	for i, opSpan := range opSpans {
		if opSpan.Duration() <= 0 {
			t.Errorf("op span %d has non-positive duration %v", i, opSpan.Duration())
		}
		var kernel, tracker int
		for _, child := range children[opSpan.ID] {
			switch child.Layer {
			case obs.LayerKernel:
				kernel++
				if child.Duration() <= 0 {
					t.Errorf("op %d kernel span %q has zero duration", i, child.Name)
				}
			case obs.LayerTracker:
				tracker++
				if child.Duration() <= 0 {
					t.Errorf("op %d tracker span %q has zero duration", i, child.Name)
				}
			}
		}
		if kernel == 0 {
			t.Errorf("op span %d (%s) has no kernel child spans", i, opSpan.Name)
		}
		if tracker == 0 {
			t.Errorf("op span %d (%s) has no tracker child spans", i, opSpan.Name)
		}
	}

	// The trace must render as a tree rooted at the op spans.
	var buf bytes.Buffer
	obs.WriteTrace(&buf, res.Bug.TrailSpans)
	if got := strings.Count(buf.String(), "mc/op:"); got != len(res.Bug.Trail) {
		t.Errorf("rendered trace has %d op roots, want %d:\n%s",
			got, len(res.Bug.Trail), buf.String())
	}

	// And the standard engine metrics must be live.
	snap := hub.Snapshot()
	if snap.Counters[obs.MetricOps] != res.Ops {
		t.Errorf("mc.ops counter = %d, result.Ops = %d", snap.Counters[obs.MetricOps], res.Ops)
	}
	if snap.Counters[obs.MetricVisitedMisses] != res.UniqueStates {
		t.Errorf("visited misses = %d, unique states = %d",
			snap.Counters[obs.MetricVisitedMisses], res.UniqueStates)
	}
	if snap.Counters[obs.MetricSyscalls] == 0 {
		t.Error("kernel.syscalls counter never incremented")
	}
	if snap.Counters[obs.MetricFuseRequests] == 0 {
		t.Error("fuse.requests counter never incremented")
	}
	found := false
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "tracker.") && strings.HasSuffix(name, ".checkpoint") && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no tracker checkpoint histogram recorded: %v", snap.Histograms)
	}
}

// TestObsResultsMatchUninstrumentedRun checks that enabling observability
// does not perturb the exploration itself: same ops, states, and bug.
func TestObsResultsMatchUninstrumentedRun(t *testing.T) {
	run := func(hub *obs.Hub) mcfs.Result {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:   []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth:  2,
			MaxOps:    400,
			Observers: mcfs.Observers{Obs: hub},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Run()
	}
	plain := run(nil)
	observed := run(obs.New(obs.Options{}))
	if plain.Ops != observed.Ops || plain.UniqueStates != observed.UniqueStates ||
		plain.Revisits != observed.Revisits || plain.Elapsed != observed.Elapsed {
		t.Errorf("observability perturbed the run:\nplain    %+v\nobserved %+v", plain, observed)
	}
}
