// Tests for the bounded-memory paths: the structured out-of-memory
// failure when no governor is armed, and graceful fidelity degradation
// instead of death when one is.
package mc_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
)

// tinyMemConfig models a machine far too small for the ext pair's
// 256 KiB device images: OOM after roughly four stored states.
func tinyMemConfig() memmodel.Config {
	cfg := memmodel.DefaultConfig()
	cfg.RAMBytes = 1 << 20
	cfg.SwapBytes = 1 << 20
	cfg.InitialSlots = 1 << 10
	return cfg
}

// TestOOMStructuredFailure checks the ungoverned death is orderly: the
// run finalizes with a typed *mc.OOMError wrapping
// memmodel.ErrOutOfMemory, partial counters survive, the journal's
// done record carries the failure, and the stream drains with status
// "failed".
func TestOOMStructuredFailure(t *testing.T) {
	memCfg := tinyMemConfig()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 14)
	defer sub.Close()

	s, err := mcfs.NewSession(mcfs.Options{
		Targets:   []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth:  3,
		MaxOps:    2000,
		Memory:    &memCfg,
		Observers: mcfs.Observers{Journal: jw, Stream: bus},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()

	var oom *mc.OOMError
	if !errors.As(res.Err, &oom) {
		t.Fatalf("res.Err = %v, want *mc.OOMError", res.Err)
	}
	if !errors.Is(res.Err, memmodel.ErrOutOfMemory{}) {
		t.Fatal("OOMError must unwrap to memmodel.ErrOutOfMemory")
	}
	if oom.Ops != res.Ops || oom.UniqueStates != res.UniqueStates {
		t.Errorf("OOMError counters (%d, %d) disagree with result (%d, %d)",
			oom.Ops, oom.UniqueStates, res.Ops, res.UniqueStates)
	}
	if res.Ops == 0 || res.UniqueStates == 0 {
		t.Errorf("partial counters lost: %+v", res)
	}

	// The journal still closed with a done record carrying the failure.
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var done *journal.DoneRecord
	for i := range recs {
		if recs[i].T == journal.TypeDone {
			done = recs[i].Done
		}
	}
	if done == nil {
		t.Fatal("no done record in journal after OOM")
	}
	if !strings.Contains(done.Err, "out of memory") {
		t.Errorf("done.Err = %q, want the OOM failure", done.Err)
	}
	if done.Ops != res.Ops {
		t.Errorf("done.Ops = %d, want %d", done.Ops, res.Ops)
	}

	// The stream's final event is the drain with status "failed".
	events := sub.Drain()
	if len(events) == 0 {
		t.Fatal("no stream events")
	}
	last := events[len(events)-1]
	if last.Kind != stream.KindWorkerDrain || last.Detail != "failed" {
		t.Errorf("last event = %+v, want worker-drain failed", last)
	}
}

// TestMemBudgetDegradesInsteadOfOOM is the acceptance flip side: the
// same starved exploration with a governor armed completes — no error
// — at reduced fidelity with an omission estimate, and refuses to
// export resume knowledge from a lossy table.
func TestMemBudgetDegradesInsteadOfOOM(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:   []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth:  3,
		MaxOps:    2000,
		MemBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()

	if res.Err != nil {
		t.Fatalf("governed run died: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("false positive under memory pressure:\n%v", res.Bug)
	}
	if res.Fidelity == mcfs.FidelityExact {
		t.Fatal("run under a starving budget stayed exact; governor never acted")
	}
	if res.OmissionProb <= 0 || res.OmissionProb >= 1 {
		t.Errorf("OmissionProb = %v, want in (0,1)", res.OmissionProb)
	}
	if res.Resume != nil {
		t.Error("lossy table must not export resume knowledge")
	}
	var noExport visited.ErrNoExport
	if !errors.As(res.ResumeErr, &noExport) {
		t.Errorf("ResumeErr = %v, want visited.ErrNoExport", res.ResumeErr)
	}

	// The model recorded the degradation for observability.
	stats := s.MemoryStats()
	if stats.FidelityDowngrades == 0 {
		t.Error("Stats.FidelityDowngrades = 0 after degradation")
	}
	if stats.SoftWatermarkHits == 0 {
		t.Error("Stats.SoftWatermarkHits = 0 after pressure")
	}
}

// TestSwarmBudgetAcceptance is the PR's acceptance scenario: a seeded
// swarm that OOM-aborts without a budget completes with one, reporting
// the shared table's degraded fidelity and omission estimate, and the
// fidelity-degraded event reaches the swarm's stream.
func TestSwarmBudgetAcceptance(t *testing.T) {
	factory := func(memCfg *memmodel.Config) func(seed int64) (mcfs.Options, error) {
		return func(seed int64) (mcfs.Options, error) {
			opts := mcfs.Options{
				Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
				MaxDepth: 3,
				MaxOps:   1500,
				Seed:     seed,
			}
			if memCfg != nil {
				cfg := *memCfg
				opts.Memory = &cfg
			}
			return opts, nil
		}
	}

	// Without a budget the starved swarm dies on the memory model.
	memCfg := tinyMemConfig()
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: 2}, factory(&memCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sr.Err, memmodel.ErrOutOfMemory{}) {
		t.Fatalf("unbudgeted swarm err = %v, want OOM", sr.Err)
	}

	// With the same RAM as a governed budget it completes, degraded.
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 14)
	defer sub.Close()
	sr, err = mcfs.SwarmRun(mcfs.SwarmOptions{
		Workers:   2,
		MemBudget: 1 << 20,
		Stream:    bus,
	}, factory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("budgeted swarm died: %v", sr.Err)
	}
	if sr.Bug != nil {
		t.Fatalf("false positive under memory pressure:\n%v", sr.Bug)
	}
	if sr.Fidelity == visited.FidelityExact {
		t.Fatal("budgeted swarm stayed exact; governor never acted")
	}
	if sr.OmissionProb <= 0 {
		t.Errorf("OmissionProb = %v, want > 0", sr.OmissionProb)
	}
	var noExport visited.ErrNoExport
	if sr.Resume != nil || !errors.As(sr.ResumeErr, &noExport) {
		t.Errorf("Resume = %v, ResumeErr = %v; want refused export", sr.Resume, sr.ResumeErr)
	}

	degraded := 0
	for _, ev := range sub.Drain() {
		if ev.Kind == stream.KindFidelityDegraded {
			degraded++
			if ev.Detail == "" {
				t.Error("fidelity-degraded event missing detail")
			}
		}
	}
	if degraded == 0 {
		t.Error("no fidelity-degraded event on the swarm stream")
	}
}
