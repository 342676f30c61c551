package main

import (
	"fmt"

	"mcfs"
)

// explore is a clean-pair exploration workload: one session per run,
// a fixed op budget, and each run's own seed derived from the
// workload seed.
type explore struct {
	targets []mcfs.TargetSpec
	depth   int
	budget  int64
	crash   bool
}

// The op budgets keep one run under a second of wall time on a 2-vCPU
// x86-64 host, and far below the size of each bounded space, so every
// run must spend its whole budget. Short runs give many rate samples,
// each with its own derived seed.
var explores = map[string]explore{
	// Kernel file-system path: remount tracker, blockdev Disk and MTD
	// snapshot/restore, extfs and jffs2sim mounts, kernel caches.
	"explore-ext4-jffs2": {
		targets: []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
		depth:   4,
		budget:  500,
	},
	// FUSE transport, VeriFS checkpoint/restore, checker hashing and a
	// visited table that keeps growing; no block device, no remount.
	"explore-verifs-deep": {
		targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		depth:   6,
		budget:  2000,
	},
	// Crash exploration: write-window capture, delta power cuts, warm
	// recovery mounts, fsck and the memoised oracle.
	"crash-ext2-ext4": {
		targets: []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		depth:   3,
		budget:  500,
		crash:   true,
	},
}

// huntName is the workload of back-to-back seeded-bug hunts.
const huntName = "bughunt-seeded"

// huntDepth and huntCap bound one hunt: the seeded bugs surface within
// a few hundred ops at depth 3, so the cap only stops a hunt that lost
// its bug.
const (
	huntDepth       = 3
	huntCap   int64 = 20000
)

// seededBug is one hunt configuration: the paper's four §6 bugs plus
// the ext4 journal-ordering bug that only crash exploration exposes.
type seededBug struct {
	name    string
	targets []mcfs.TargetSpec
	crash   bool
}

var seededBugs = []seededBug{
	{mcfs.BugTruncateNoZero, []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "verifs1", Bugs: []string{mcfs.BugTruncateNoZero}}}, false},
	{mcfs.BugNoCacheInvalidate, []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "verifs1", Bugs: []string{mcfs.BugNoCacheInvalidate}}}, false},
	{mcfs.BugWriteHoleNoZero, []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}}}, false},
	{mcfs.BugSizeUpdateOnOverflow, []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2", Bugs: []string{mcfs.BugSizeUpdateOnOverflow}}}, false},
	{mcfs.BugJournalCommitFirst, []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}}}, true},
}

// workloadNames lists every workload in report order.
func workloadNames() []string {
	return []string{"explore-ext4-jffs2", "explore-verifs-deep", "crash-ext2-ext4", huntName}
}

// options builds the only input the program sees for one session.
func options(targets []mcfs.TargetSpec, depth int, maxOps, seed int64, crash bool) mcfs.Options {
	mem := mcfs.DefaultMemoryConfig()
	return mcfs.Options{
		Targets:          targets,
		MaxDepth:         depth,
		MaxOps:           maxOps,
		Seed:             seed,
		Memory:           &mem,
		CrashExploration: crash,
	}
}

// derivedSeed derives the engine seed of run i from the workload seed
// with splitmix64 (math/rand is not used: the module's lint forbids
// it), so runs are diverse, reproducible, and never seed 0, which
// selects plain enumeration order.
func derivedSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// huntCycles is the number of cycles over the seeded bugs in one
// invocation's hunt set. Hunting goes round the set until the time is
// up, so the hunts, and which of them fail, depend on the seed alone
// and not on how many fit into the measured time.
const huntCycles = 120

// huntSet is the number of distinct hunts of one invocation.
var huntSet = huntCycles * len(seededBugs)

// hunt returns the configuration and engine seed of hunt i: the bugs
// rotate so every complete cycle hunts each bug once, and hunt i
// repeats hunt i mod huntSet. Every hunt of the set has a seed of its
// own; hunts of one cycle sharing a seed would find their bugs early or
// late together.
func hunt(seed int64, i int) (seededBug, mcfs.Options) {
	i %= huntSet
	b := seededBugs[i%len(seededBugs)]
	return b, options(b.targets, huntDepth, huntCap, derivedSeed(seed, i), b.crash)
}

func lookup(name string) (explore, bool, error) {
	if name == huntName {
		return explore{}, true, nil
	}
	w, ok := explores[name]
	if !ok {
		return explore{}, false, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	return w, false, nil
}
