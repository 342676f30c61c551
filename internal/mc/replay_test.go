// Flight-recorder integration: journal round-trip through a real
// exploration, deterministic replay, trail minimization, and concurrent
// swarm journaling (external test package via the mcfs facade, like
// mc_test.go).
package mc_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/obs/journal"
	"mcfs/internal/workload"
)

// holeBugOptions is the seeded-bug configuration every flight-recorder
// test explores: verifs2 forgets to zero the hole left by a write past
// EOF, the paper's §6 write-hole bug.
func holeBugOptions() mcfs.Options {
	return mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
	}
}

func runJournaled(t *testing.T, opts mcfs.Options, path string) mcfs.Result {
	t.Helper()
	jw, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = jw
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	return res
}

func TestJournalRoundTripWithBug(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	res := runJournaled(t, holeBugOptions(), path)
	if res.Bug == nil {
		t.Fatalf("seeded bug not found in %d ops", res.Ops)
	}

	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].T != journal.TypeMeta {
		t.Fatal("journal does not open with a meta record")
	}
	if recs[0].Meta.Version != journal.Version || recs[0].Meta.InitState == "" {
		t.Errorf("meta record incomplete: %+v", recs[0].Meta)
	}
	bug, worker := journal.FirstBug(recs)
	if bug == nil {
		t.Fatal("no bug record in the journal")
	}
	if worker != 0 {
		t.Errorf("single-engine run journaled as worker %d", worker)
	}
	if bug.Kind != res.Bug.Discrepancy.Kind || bug.OpsExecuted != res.Bug.OpsExecuted {
		t.Errorf("bug record %+v does not match result %+v", bug, res.Bug)
	}
	// The journaled trail must decode back to exactly the trail the
	// engine reported.
	trail, err := journal.DecodeTrail(bug.Trail)
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) != len(res.Bug.Trail) {
		t.Fatalf("journaled trail length %d, reported %d", len(trail), len(res.Bug.Trail))
	}
	for i := range trail {
		if trail[i] != res.Bug.Trail[i] {
			t.Errorf("trail op %d: journaled %v, reported %v", i, trail[i], res.Bug.Trail[i])
		}
	}

	// Deterministic replay on a FRESH session: every errno and state
	// hash must reproduce, ending in the recorded bug.
	s2, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := s2.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("replay diverged at step %d: %s", rep.DivergedAt, rep.Reason)
	}
	if !rep.BugReproduced {
		t.Fatal("replay did not reproduce the journaled bug")
	}
	if rep.Steps == 0 {
		t.Fatal("replay executed no steps")
	}
}

func TestJournalReplayCleanRun(t *testing.T) {
	opts := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   300,
	}
	path := filepath.Join(t.TempDir(), "clean.jsonl")
	res := runJournaled(t, opts, path)
	if res.Bug != nil {
		t.Fatalf("false positive: %v", res.Bug)
	}
	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every op plus meta/done/backtracks: at least one record per op.
	if int64(len(recs)) <= res.Ops {
		t.Fatalf("%d records for %d ops", len(recs), res.Ops)
	}
	last := recs[len(recs)-1]
	if last.T != journal.TypeDone || last.Done.Ops != res.Ops {
		t.Errorf("journal not closed with matching done record: %+v", last)
	}

	s2, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := s2.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("clean-run replay diverged at step %d: %s", rep.DivergedAt, rep.Reason)
	}
	if rep.BugReproduced {
		t.Fatal("clean-run replay claims a bug")
	}
	if int64(rep.Steps) != res.Ops {
		t.Errorf("replayed %d steps, run executed %d ops", rep.Steps, res.Ops)
	}
}

func TestMinimizeConvergesOnPaddedTrail(t *testing.T) {
	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug == nil {
		t.Fatal("seeded bug not found")
	}

	// DFS trails are often already near-minimal; pad with operations on
	// unrelated paths so the minimizer provably has fat to trim.
	padding := []workload.Op{
		{Kind: workload.OpMkdir, Path: "/pad"},
		{Kind: workload.OpCreateFile, Path: "/pad/x"},
		{Kind: workload.OpWriteFile, Path: "/pad/x", Off: 0, Size: 8, Byte: 0x11},
	}
	padded := append(append([]workload.Op{}, padding...), res.Bug.Trail...)

	factory := func() (mc.Config, func(), error) {
		fs, err := mcfs.NewSession(holeBugOptions())
		if err != nil {
			return mc.Config{}, nil, err
		}
		return *fs.Config(), fs.Close, nil
	}
	want := &mcfs.Discrepancy{Kind: res.Bug.Discrepancy.Kind}
	min, stats, err := mc.Minimize(factory, padded, want, mc.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min) >= len(padded) {
		t.Fatalf("minimizer removed nothing: %d -> %d ops", len(padded), len(min))
	}
	if stats.From != len(padded) || stats.To != len(min) {
		t.Errorf("stats %+v inconsistent with %d -> %d", stats, len(padded), len(min))
	}
	if !stats.Minimal {
		t.Errorf("budget of %d replays hit on a %d-op trail", mc.DefaultMaxReplays, len(padded))
	}
	for _, op := range min {
		if op.Path == "/pad" || op.Path == "/pad/x" {
			t.Errorf("padding op %v survived minimization", op)
		}
	}

	// The minimal trail must still reproduce on a fresh session.
	fs, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, same, err := fs.VerifyTrail(min, want)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("minimized trail does not reproduce the bug")
	}
	t.Logf("minimized %d -> %d ops in %d replays", stats.From, stats.To, stats.Replays)
}

func TestMinimizeRejectsNonReproducingTrail(t *testing.T) {
	factory := func() (mc.Config, func(), error) {
		fs, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3,
		})
		if err != nil {
			return mc.Config{}, nil, err
		}
		return *fs.Config(), fs.Close, nil
	}
	trail := []workload.Op{{Kind: workload.OpCreateFile, Path: "/f0"}}
	if _, _, err := mc.Minimize(factory, trail, nil, mc.MinimizeOptions{}); err == nil {
		t.Fatal("minimizing a non-reproducing trail succeeded")
	}
}

func TestSwarmJournaling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swarm.jsonl")
	jw, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{
		Workers:      workers,
		ShareVisited: true,
		Journal:      jw,
	}, func(seed int64) (mcfs.Options, error) {
		return holeBugOptions(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("swarm error: %v", sr.Err)
	}
	if sr.Bug == nil {
		t.Fatal("swarm did not find the seeded bug")
	}

	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker that actually ran (peers canceled before starting
	// execute nothing and journal nothing) must have a meta-opened,
	// sequence-ordered slice of the shared journal.
	ids := journal.Workers(recs)
	if len(ids) == 0 {
		t.Fatal("empty swarm journal")
	}
	journaled := make(map[int]bool)
	for _, id := range ids {
		if id < 1 || id > workers {
			t.Errorf("unexpected worker id %d", id)
		}
		journaled[id] = true
		wr := journal.WorkerRecords(recs, id)
		if wr[0].T != journal.TypeMeta {
			t.Errorf("worker %d journal does not open with meta", id)
		}
		if got := wr[0].Meta.Seed; got != int64(id) {
			t.Errorf("worker %d journaled seed %d", id, got)
		}
		for i, rec := range wr {
			if rec.Seq != int64(i+1) {
				t.Fatalf("worker %d: record %d has seq %d — per-worker ordering lost", id, i, rec.Seq)
			}
		}
	}
	for i, r := range sr.Workers {
		if !journaled[i+1] && !(r.Canceled && r.Ops == 0) {
			t.Errorf("worker %d executed %d ops but journaled nothing", i+1, r.Ops)
		}
	}
	bug, bugWorker := journal.FirstBug(recs)
	if bug == nil {
		t.Fatal("no bug record in the swarm journal")
	}
	if bugWorker != sr.BugWorker+1 {
		t.Errorf("bug journaled by worker %d, result says %d", bugWorker, sr.BugWorker+1)
	}

	// The bug worker's slice of the shared journal replays on a fresh
	// single session.
	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Worker != bugWorker {
		t.Errorf("replay picked worker %d, want the bug worker %d", rep.Worker, bugWorker)
	}
	if rep.Diverged {
		t.Fatalf("swarm journal replay diverged at step %d: %s", rep.DivergedAt, rep.Reason)
	}
	if !rep.BugReproduced {
		t.Fatal("swarm journal replay did not reproduce the bug")
	}
}

// TestSwarmFactoryJournalCarriesWorkerIDs pins that the swarm stamps its
// worker ids on a journal the factory's Options set, not only on the
// swarm-wide one: each worker's records are its own and replay alone.
func TestSwarmFactoryJournalCarriesWorkerIDs(t *testing.T) {
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	opts := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   50,
	}
	const workers = 2
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{Workers: workers}, func(int64) (mcfs.Options, error) {
		o := opts
		o.Journal = jw
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil || sr.Bug != nil {
		t.Fatalf("swarm: err %v, bug %v", sr.Err, sr.Bug)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := journal.Workers(recs); len(got) != workers {
		t.Fatalf("journal worker ids %v, want 1..%d", got, workers)
	}
	for w := 1; w <= workers; w++ {
		wr := journal.WorkerRecords(recs, w)
		if len(wr) == 0 || wr[0].T != journal.TypeMeta || wr[0].Meta.Seed != int64(w) {
			t.Fatalf("worker %d: journal does not open with its own meta record", w)
		}
		if last := wr[len(wr)-1]; last.T != journal.TypeDone || last.Done.Ops != sr.Workers[w-1].Ops {
			t.Errorf("worker %d: journal not closed with its own done record: %+v", w, last)
		}
	}

	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("replay of worker %d diverged at %d: %s", rep.Worker, rep.DivergedAt, rep.Reason)
	}
	if rep.Steps == 0 {
		t.Error("replay verified no steps")
	}
}
