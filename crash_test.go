package mcfs_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs/journal"
)

// Crash-consistency exploration, end to end: the seeded ext4 journal bug
// (commit block written before the descriptor and metadata images) is
// invisible to normal differential checking — a synced volume is always
// consistent — and must be caught only when crash points inside the
// write window are explored.

func crashSession(t *testing.T, bugs []string, crash bool, seed int64) *mcfs.Session {
	t.Helper()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: bugs},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		Seed:             seed,
		CrashExploration: crash,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// Every seed's bug must verify on a fresh session: the replay runs the
// engine's own per-op sequence and crash session, so the crash point's
// pre-probe media and volatile state match the ones the engine probed
// from. Seed 0 enumerates ops in order; the others shuffle them, which
// puts the crashing op after different prefixes.
func TestCrashExplorationFindsJournalCommitFirst(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 5, 9} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testFindsJournalCommitFirst(t, seed)
		})
	}
}

func testFindsJournalCommitFirst(t *testing.T, seed int64) {
	s := crashSession(t, []string{mcfs.BugJournalCommitFirst}, true, seed)
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("seeded journal-commit-first bug not found (crash stats: %+v)", res.Crash)
	}
	if res.Bug.Discrepancy.Kind != "crash-consistency" {
		t.Fatalf("bug kind = %q, want crash-consistency", res.Bug.Discrepancy.Kind)
	}
	if res.Bug.Crash == nil {
		t.Fatal("crash bug carries no CrashSpec")
	}
	if res.Bug.Crash.TargetName != "ext4#1" {
		t.Errorf("crash target = %q, want ext4#1", res.Bug.Crash.TargetName)
	}
	if len(res.Bug.Trail) == 0 {
		t.Error("crash bug has no trail")
	}
	found := false
	for _, d := range res.Bug.Discrepancy.Details {
		if strings.Contains(d, "crash after write") {
			found = true
		}
	}
	if !found {
		t.Errorf("bug details carry no crash point: %q", res.Bug.Discrepancy.Details)
	}
	if res.Crash.PointsExplored == 0 {
		t.Error("no crash points explored")
	}

	// The trail must reproduce in a fresh session.
	s2 := crashSession(t, []string{mcfs.BugJournalCommitFirst}, true, seed)
	got, same, err := s2.VerifyCrashTrail(res.Bug.Trail, res.Bug.Crash, &mcfs.Discrepancy{Kind: res.Bug.Discrepancy.Kind})
	if err != nil {
		t.Fatalf("VerifyCrashTrail: %v", err)
	}
	if !same {
		t.Fatalf("crash trail did not reproduce (got %v)", got)
	}
}

func TestCrashExplorationCleanExt4Passes(t *testing.T) {
	s := crashSession(t, nil, true, 0)
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("clean ext4 flagged: %v", res.Bug)
	}
	if res.Crash.PointsExplored == 0 {
		t.Error("no crash points explored")
	}
	if res.Crash.Recovered != res.Crash.PointsExplored {
		t.Errorf("recoveries %d != points explored %d", res.Crash.Recovered, res.Crash.PointsExplored)
	}
}

func TestSeededBugInvisibleWithoutCrashExploration(t *testing.T) {
	s := crashSession(t, []string{mcfs.BugJournalCommitFirst}, false, 0)
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("journal-commit-first visible without crash exploration: %v", res.Bug)
	}
}

func TestCrashExplorationNeedsEligibleTarget(t *testing.T) {
	_, err := mcfs.NewSession(mcfs.Options{
		Targets:          []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		CrashExploration: true,
	})
	if err == nil || !strings.Contains(err.Error(), "crash-testable") {
		t.Errorf("crash exploration without eligible targets: err = %v", err)
	}
}

func TestJournalCommitFirstRejectedOffExt4(t *testing.T) {
	_, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "ext2", Bugs: []string{mcfs.BugJournalCommitFirst}}},
	})
	if err == nil {
		t.Error("journal-commit-first accepted on ext2")
	}
}

// A crash bundle replays, shrinks and replays again. At seed 1 the run
// also records a journal, whose replay must re-run each crash record's
// probe from the op's checkpoint, as the engine did, and re-find the bug.
func TestCrashBundleRoundTrip(t *testing.T) {
	for _, seed := range []int64{0, 1} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testCrashBundleRoundTrip(t, seed, seed != 0)
		})
	}
}

func testCrashBundleRoundTrip(t *testing.T, seed int64, withJournal bool) {
	opts := mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		Seed:             seed,
		CrashExploration: true,
	}
	tmp := t.TempDir()
	jpath := ""
	if withJournal {
		jpath = filepath.Join(tmp, "run.jsonl")
		jw, err := journal.Create(jpath, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Journal = jw
	}
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res := s.Run()
	s.Close()
	if opts.Journal != nil {
		if err := opts.Journal.Close(); err != nil {
			t.Fatal(err)
		}
		opts.Journal = nil
	}
	if res.Bug == nil {
		t.Fatal("seeded crash bug not found")
	}

	dir := filepath.Join(tmp, "bundle")
	if err := mcfs.WriteBundle(dir, opts, res, jpath, nil); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	b, err := mcfs.ReadBundle(dir)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Bug.Crash == nil {
		t.Fatal("bundle lost the crash spec")
	}
	if withJournal {
		recs, err := b.JournalRecords()
		if err != nil {
			t.Fatal(err)
		}
		s, err := mcfs.NewSession(b.Config.Options())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.ReplayJournal(recs)
		s.Close()
		if err != nil {
			t.Fatalf("ReplayJournal: %v", err)
		}
		if rep.Diverged || !rep.BugReproduced {
			t.Fatalf("journal replay: diverged=%v at %d (%s), bug reproduced=%v",
				rep.Diverged, rep.DivergedAt, rep.Reason, rep.BugReproduced)
		}
	}

	out, err := b.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !out.Reproduced {
		t.Fatalf("crash bundle did not reproduce: %v", out.Discrepancy)
	}

	min, stats, err := b.Shrink()
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if len(min) == 0 || len(min) > len(res.Bug.Trail) {
		t.Fatalf("minimized trail length %d (from %d)", len(min), len(res.Bug.Trail))
	}
	if stats.To != len(min) {
		t.Errorf("stats.To = %d, len(min) = %d", stats.To, len(min))
	}

	out2, err := mcfs.ReplayBundle(dir)
	if err != nil {
		t.Fatalf("ReplayBundle after shrink: %v", err)
	}
	if !out2.Reproduced {
		t.Error("full trail stopped reproducing after shrink")
	}
	if out2.MinReproduced == nil || !*out2.MinReproduced {
		t.Error("minimized crash trail did not reproduce")
	}
}
