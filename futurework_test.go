package mcfs_test

// Tests for the §7 future-work features: majority voting across three or
// more file systems, resumable exploration, and coverage tracking.

import (
	"strings"
	"testing"

	"mcfs"
)

func TestMajorityVoteIdentifiesDeviant(t *testing.T) {
	// Three file systems, one seeded with a bug: majority voting must
	// name the buggy one as the deviant (§7: "use a majority-voting
	// approach to recognize incorrect file-system behavior").
	opts := mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth:     3,
		MaxOps:       100000,
		MajorityVote: true,
	}
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("majority vote found nothing in %d ops", res.Ops)
	}
	if res.Bug.Discrepancy.Kind != "majority-vote" {
		t.Errorf("kind = %q, want majority-vote", res.Bug.Discrepancy.Kind)
	}
	joined := strings.Join(res.Bug.Discrepancy.Details, "\n")
	if !strings.Contains(joined, "verifs2#2 deviates from majority") {
		t.Errorf("deviant not identified:\n%s", joined)
	}
	if strings.Contains(joined, "verifs2#1 deviates") || strings.Contains(joined, "verifs1#0 deviates") {
		t.Errorf("healthy target blamed:\n%s", joined)
	}

	// The trail must replay as the same majority-vote bug: replay judges
	// it with the checks the run used, not the pairwise ones.
	fresh, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	got, same, err := fresh.VerifyTrail(res.Bug.Trail, res.Bug.Discrepancy)
	if err != nil {
		t.Fatal(err)
	}
	if !same || got.Kind != "majority-vote" {
		t.Errorf("trail replay: same=%v, discrepancy %v; want the majority-vote bug", same, got)
	}
}

func TestMajorityVoteCleanTrio(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs2"},
			{Kind: "ext4"},
			{Kind: "jffs2"},
		},
		MaxDepth:     2,
		MaxOps:       120,
		MajorityVote: true,
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
		t.Fatalf("clean trio flagged: %v", res.Bug)
	}
}

func TestMajorityVoteErrnoDeviant(t *testing.T) {
	// The cache-invalidation bug shows up as errno deviation; majority
	// voting should pin it on the buggy target.
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext4"},
			{Kind: "verifs1"},
			{Kind: "verifs1", Bugs: []string{mcfs.BugNoCacheInvalidate}},
		},
		MaxDepth:     3,
		MaxOps:       100000,
		MajorityVote: true,
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
		t.Fatalf("bug not found in %d ops", res.Ops)
	}
	joined := strings.Join(res.Bug.Discrepancy.Details, "\n")
	if !strings.Contains(joined, "verifs1#2") {
		t.Errorf("expected verifs1#2 named:\n%s", joined)
	}
}

func TestResumeSkipsKnownStates(t *testing.T) {
	opts := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
	}

	// Run to completion once to learn the total exploration size.
	full, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	fullRes := full.Run()
	if fullRes.Err != nil {
		t.Fatal(fullRes.Err)
	}

	// Now simulate an interruption partway through...
	first := opts
	first.MaxOps = fullRes.Ops / 3
	s1, err := mcfs.NewSession(first)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	r1 := s1.Run()
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.Resume == nil || len(r1.Resume.States) == 0 {
		t.Fatal("no resume state exported")
	}

	// ...and resume with the saved visited set.
	second := opts
	second.Resume = r1.Resume
	s2, err := mcfs.NewSession(second)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r2 := s2.Run()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}

	// The resumed run must not re-discover states the first run found:
	// combined unique discoveries should land near the full run's count
	// without the resumed run redoing everything.
	if r2.UniqueStates >= fullRes.UniqueStates {
		t.Errorf("resumed run rediscovered everything: %d vs full %d", r2.UniqueStates, fullRes.UniqueStates)
	}
	combined := int64(len(r1.Resume.States)) + r2.UniqueStates
	if combined < fullRes.UniqueStates {
		t.Errorf("resume lost coverage: %d+%d < %d", len(r1.Resume.States), r2.UniqueStates, fullRes.UniqueStates)
	}
}

func TestCoverageTracking(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	cov := res.Coverage
	if len(cov.ByOp) == 0 || len(cov.ByErrno) == 0 {
		t.Fatalf("empty coverage: %+v", cov)
	}
	var totalOps int64
	for _, n := range cov.ByOp {
		totalOps += n
	}
	if totalOps != res.Ops {
		t.Errorf("coverage op total %d != executed %d", totalOps, res.Ops)
	}
	// The pool deliberately issues invalid sequences: error paths must
	// be exercised (§2), so both OK and ENOENT outcomes appear.
	if cov.ByErrno["OK"] == 0 {
		t.Error("no successful outcomes covered")
	}
	if cov.ByErrno["ENOENT"] == 0 {
		t.Error("no ENOENT outcomes covered; invalid sequences not exercised")
	}
	ratio := cov.ErrorPathRatio()
	if ratio <= 0 || ratio >= 1 {
		t.Errorf("error-path ratio = %v, want strictly between 0 and 1", ratio)
	}
}
