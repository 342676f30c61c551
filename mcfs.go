// Package mcfs is a model-checking framework for file systems, a from-
// scratch Go reproduction of "Model-Checking Support for File System
// Development" (HotStorage '21).
//
// MCFS compares file systems to each other by nondeterministically
// issuing bounded sequences of file-system operations against all of
// them, asserting after every operation that return values, errnos, and
// abstract states (an MD5 hash of pathnames, file data, and important
// metadata) agree. The explorer searches the bounded state space
// exhaustively, pruning states whose abstract hash was already visited
// and backtracking by restoring concrete file-system state — via
// unmount/device-restore/remount for kernel file systems, or via the
// checkpoint/restore ioctl APIs the paper proposes (and VeriFS
// implements).
//
// Quick start:
//
//	session, err := mcfs.NewSession(mcfs.Options{
//	    Targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
//	    MaxDepth: 3,
//	    MaxOps:   5000,
//	})
//	if err != nil { ... }
//	defer session.Close()
//	result := session.Run()
//	if result.Bug != nil {
//	    fmt.Println(result.Bug) // discrepancy + replayable trail
//	}
//
// Supported target kinds: "ext2", "ext4" (extfs without/with journal),
// "xfs" (extent-based, 16 MiB minimum volume), "jffs2" (log-structured on
// a simulated MTD flash device), "verifs1" and "verifs2" (the paper's
// RAM file systems with checkpoint/restore support, mounted over a
// simulated FUSE transport). Device-backed kinds can run on simulated
// RAM, SSD, or HDD backing stores; VeriFS kinds accept seeded bugs for
// regenerating the paper's bug-finding results.
package mcfs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fs/xfssim"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/mc"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/perf"
	"mcfs/internal/obs/stream"
	"mcfs/internal/simclock"
	"mcfs/internal/tracker"
	"mcfs/internal/vfs"
	"mcfs/internal/workload"
)

// Re-exported result types.
type (
	// Result summarizes one exploration run.
	Result = mc.Result
	// BugReport is a discrepancy plus its replayable trail.
	BugReport = mc.BugReport
	// Discrepancy describes one behavioral difference.
	Discrepancy = checker.Discrepancy
	// Op is one explored operation.
	Op = workload.Op
	// OpKind enumerates operation types for Pool.Ops.
	OpKind = workload.OpKind
	// Coverage reports operation/outcome counts for a run.
	Coverage = mc.Coverage
	// ResumeState carries visited-state knowledge between runs.
	ResumeState = mc.ResumeState
	// Pool is the bounded operation/parameter space.
	Pool = workload.Pool
	// SwarmResult is the merged outcome of a coordinated swarm run.
	SwarmResult = mc.SwarmResult
	// Cancel is the cancellation token swarm workers share; callers can
	// pass their own (SwarmOptions.Cancel) to abort a running swarm.
	Cancel = mc.Cancel
	// Journal is the flight-recorder writer sessions and swarms append
	// exploration records to (journal.Create / journal.NewWriter).
	Journal = journal.Writer
	// ReplayReport summarizes a deterministic journal replay.
	ReplayReport = mc.ReplayReport
	// MinimizeStats reports what a trail minimization did.
	MinimizeStats = mc.MinimizeStats
	// CrashStats counts crash-exploration work (probes, points, clean
	// recoveries, injected faults) for a run or merged swarm.
	CrashStats = mc.CrashStats
	// CrashSpec pins a crash bug to (target, write index); carried by
	// BugReport.Crash and bug-repro bundles.
	CrashSpec = journal.CrashSpec
	// Stream is the live exploration event bus (stream.New); sessions
	// and swarms publish steps, crash verdicts, heartbeats, and bugs to
	// it in deterministic virtual time.
	Stream = stream.Bus
	// CrashHeatmap aggregates crash-point verdicts by (op, write index);
	// carried by Result.CrashHeatmap and SwarmResult.CrashHeatmap.
	CrashHeatmap = stream.Heatmap
	// WorkerHealth is the stream bus's per-worker liveness view.
	WorkerHealth = stream.Health
	// Fidelity is the visited table's matching precision (exact,
	// compact, or bitstate); carried by Result.Fidelity and
	// SwarmResult.Fidelity.
	Fidelity = visited.Fidelity
	// Observers are the metrics hub, phase profiler, journal and event
	// stream a session or swarm worker reports to; Options embeds one.
	Observers = mc.Observers
)

// Visited-table fidelity levels, re-exported from mc/visited.
const (
	FidelityExact    = visited.FidelityExact
	FidelityCompact  = visited.FidelityCompact
	FidelityBitstate = visited.FidelityBitstate
)

// Visited-table backend names for Options.Visited / SwarmOptions.Visited.
const (
	VisitedExact    = string(visited.KindExact)
	VisitedCompact  = string(visited.KindCompact)
	VisitedBitstate = string(visited.KindBitstate)
)

// NewCancel returns a fresh cancellation token for aborting a swarm.
func NewCancel() *Cancel { return mc.NewCancel() }

// NewStream returns a live exploration event bus ready for
// Options.Stream or SwarmOptions.Stream. Subscribers are lossy ring
// buffers: a slow consumer drops its own events, never blocking the
// engine.
func NewStream() *Stream { return stream.New(stream.Options{}) }

// Operation kinds, re-exported for building custom pools.
const (
	OpCreateFile = workload.OpCreateFile
	OpWriteFile  = workload.OpWriteFile
	OpTruncate   = workload.OpTruncate
	OpMkdir      = workload.OpMkdir
	OpRmdir      = workload.OpRmdir
	OpUnlink     = workload.OpUnlink
	OpRename     = workload.OpRename
	OpLink       = workload.OpLink
	OpSymlink    = workload.OpSymlink
	OpChmod      = workload.OpChmod
	OpRead       = workload.OpRead
)

// Backing selects the storage behind a device-backed file system.
type Backing string

// Backing stores, per Figure 2.
const (
	// BackingRAM is a RAM block device (brd2), the paper's default.
	BackingRAM Backing = "ram"
	// BackingSSD simulates an SSD-backed device.
	BackingSSD Backing = "ssd"
	// BackingHDD simulates an HDD-backed device.
	BackingHDD Backing = "hdd"
)

// Bug names for seeded VeriFS bugs (§6).
const (
	// BugTruncateNoZero: VeriFS1's expanding truncate does not zero
	// newly allocated space.
	BugTruncateNoZero = "truncate-no-zero"
	// BugNoCacheInvalidate: VeriFS restores state without invalidating
	// kernel caches.
	BugNoCacheInvalidate = "no-cache-invalidate"
	// BugWriteHoleNoZero: VeriFS2 does not zero the gap when a write
	// creates a hole.
	BugWriteHoleNoZero = "write-hole-no-zero"
	// BugSizeUpdateOnOverflow: VeriFS2 updates the file size only when a
	// write grows the file beyond its allocated capacity.
	BugSizeUpdateOnOverflow = "size-update-on-overflow"
	// BugJournalCommitFirst (ext4 only): the journal writes its commit
	// block before the descriptor and metadata images, so a crash between
	// commit and images makes recovery replay garbage. Invisible without
	// crash exploration — the volume is consistent whenever it is synced.
	BugJournalCommitFirst = "journal-commit-first"
)

// TargetSpec describes one file system under test.
type TargetSpec struct {
	// Kind is "ext2", "ext4", "xfs", "jffs2", "verifs1", or "verifs2".
	Kind string
	// Backing selects RAM/SSD/HDD for device-backed kinds; default RAM.
	Backing Backing
	// DeviceSize overrides the default device size (256 KiB for ext,
	// 16 MiB for xfs, 256 KiB MTD for jffs2).
	DeviceSize int64
	// Bugs seeds the named defects (VeriFS kinds, plus
	// BugJournalCommitFirst on ext4).
	Bugs []string
	// DisablePerOpRemount turns off the default unmount/remount around
	// every operation for kernel file systems (the §6 ablation).
	DisablePerOpRemount bool
	// VMSnapshot wraps the target's tracker in hypervisor-snapshot
	// latencies (§5).
	VMSnapshot bool
	// DiskOnlyTracking uses the broken §3.2 persistent-state-only
	// tracker. For demonstrating corruption; never for real checking.
	DiskOnlyTracking bool
}

// Options configures a Session.
type Options struct {
	// Targets lists the file systems to check against each other.
	Targets []TargetSpec
	// Pool overrides the operation/parameter pool. When nil, the pool
	// defaults to workload.DefaultPool, restricted to VeriFS1's
	// operation set if any target is verifs1.
	Pool *Pool
	// MaxDepth bounds operation-sequence length (default 3).
	MaxDepth int
	// MaxOps bounds total executed operations (0 = unlimited).
	MaxOps int64
	// MaxStates bounds unique visited states (0 = unlimited).
	MaxStates int64
	// Seed diversifies search order (0 = deterministic enumeration).
	Seed int64
	// Memory enables the RAM/swap model with the given configuration.
	Memory *memmodel.Config
	// DisableEqualizeFreeSpace skips the §3.4 capacity equalization.
	DisableEqualizeFreeSpace bool
	// MajorityVote enables majority voting with three or more targets
	// (the paper's §7 future work): instead of halting at the first
	// pairwise mismatch, the checker identifies the deviating minority.
	MajorityVote bool
	// Resume seeds the visited-state table from a previous run's
	// Result.Resume, continuing an interrupted exploration (§7).
	Resume *ResumeState
	// Observers attach the session's sinks, each nil-safe. Obs is also
	// wired into the kernel, checker, trackers, devices, and FUSE
	// transport, which record metrics and spans into it; the session
	// rebases Obs and Perf onto its virtual clock. Journal records and
	// Stream events carry worker id 0 for a single session; a swarm
	// stamps its workers 1..Workers.
	Observers
	// CrashExploration enables crash-consistency checking: before each
	// explored operation is committed, its write window is crash-tested
	// on every crash-testable target — simulate power loss at sampled
	// write indices, remount through the recovery path, and verify the
	// recovered state against the prefix-consistency oracle. Requires at
	// least one ext2/ext4/jffs2 target with per-op remounts and full
	// state tracking.
	CrashExploration bool
	// CrashPointsPerOp caps sampled crash points per probed operation
	// (mc.DefaultCrashPointsPerOp when 0).
	CrashPointsPerOp int
	// FsckWorkers bounds the worker pool of the parallel post-recovery
	// fsck on ext targets (0 = GOMAXPROCS, capped internally). Any value
	// produces identical problem reports; this knob only trades CPU for
	// latency.
	FsckWorkers int
	// Visited selects the visited-table backend: "exact" (default,
	// full-fidelity), "compact" (64-bit hash compaction), or "bitstate"
	// (fixed-RAM Bloom filter). Reduced backends trade a bounded
	// omission probability (Result.OmissionProb) for orders of
	// magnitude more states per MB, and cannot export a ResumeState.
	Visited string
	// BitstateBytes sizes the bitstate Bloom array
	// (visited.DefaultBitstateBytes when 0; with a MemBudget, a quarter
	// of the budget).
	BitstateBytes int64
	// MemBudget arms the memory governor: the session's modeled
	// footprint is watched against this byte budget, and instead of
	// dying on memmodel.ErrOutOfMemory the visited table degrades —
	// deep exact entries are evicted at the soft watermark, then the
	// backend migrates exact→compact→bitstate at the hard watermark.
	// Result.Fidelity and Result.OmissionProb report the degradation
	// honestly. When Memory is nil, a budget-sized memory model is
	// derived automatically.
	MemBudget int64
}

// Session is an assembled model-checking run: a simulated kernel with
// every target mounted, a checker, and a tracker per target.
type Session struct {
	clock    *simclock.Clock
	kern     *kernel.Kernel
	check    *checker.Checker
	trackers []tracker.Tracker
	servers  []*fuse.Server
	cfg      mc.Config
	mem      *memmodel.Model

	// Visited-table selection, applied when the session runs (see Run).
	visitedKind   string
	bitstateBytes int64
	memBudget     int64

	crash       bool // crash exploration requested
	fsckWorkers int
	crashPlanes []mc.CrashPlane
}

// NewSession builds a session: devices are created and formatted, file
// systems mounted (VeriFS over the FUSE transport), trackers chosen per
// target kind.
func NewSession(opts Options) (*Session, error) {
	if len(opts.Targets) == 0 {
		return nil, fmt.Errorf("mcfs: no targets")
	}
	clock := simclock.New()
	k := kernel.New(clock)
	// The observers go in first: mounting wires devices to cfg.Obs.
	s := &Session{clock: clock, kern: k, cfg: mc.Config{Observers: opts.Observers},
		crash: opts.CrashExploration, fsckWorkers: opts.FsckWorkers, visitedKind: opts.Visited,
		bitstateBytes: opts.BitstateBytes, memBudget: opts.MemBudget}
	// The one rebase point: the hub and profiler move onto this
	// session's virtual clock, so every span, latency, and phase
	// observation is in deterministic virtual time.
	opts.Obs.SetNow(clock.Now)
	opts.Perf.SetNow(clock.Now)
	k.SetObs(opts.Obs)

	var targets []checker.Target
	anyVeriFS1 := false
	for i, ts := range opts.Targets {
		point := fmt.Sprintf("/mnt%d", i)
		name := fmt.Sprintf("%s#%d", ts.Kind, i)
		if err := s.mountTarget(point, ts, i); err != nil {
			s.Close()
			return nil, err
		}
		targets = append(targets, checker.Target{Name: name, MountPoint: point})
		if ts.Kind == "verifs1" {
			anyVeriFS1 = true
		}
	}
	s.check = checker.New(k, targets)
	s.check.SetObs(opts.Obs)

	var vmGroup *tracker.VMGroup
	for i, ts := range opts.Targets {
		point := fmt.Sprintf("/mnt%d", i)
		tr, err := s.trackerFor(point, ts, &vmGroup)
		if err != nil {
			s.Close()
			return nil, err
		}
		if os, ok := tr.(tracker.ObsSetter); ok {
			os.SetObs(opts.Obs)
		}
		s.trackers = append(s.trackers, tr)
	}

	var pool workload.Pool
	switch {
	case opts.Pool != nil:
		pool = *opts.Pool
	case anyVeriFS1:
		pool = workload.VeriFS1Pool()
	default:
		pool = workload.DefaultPool()
	}

	maxDepth := opts.MaxDepth
	if maxDepth == 0 {
		maxDepth = 3
	}
	if opts.Memory != nil {
		s.mem = memmodel.New(*opts.Memory, clock)
	} else if opts.MemBudget > 0 {
		// Budget-derived memory model: RAM sized to the budget, swap left
		// at the paper's default. The governor defends the RAM budget by
		// degrading the visited table; the checkpoint images retained for
		// backtracking are irreducible working set (one per DFS level),
		// so letting them spill to swap — paying the modeled swap cost —
		// is the graceful outcome, not death. A hard swap cap belongs to
		// an explicit Memory config. The initial visited table is small
		// so tiny budgets are not consumed by empty slots.
		memCfg := memmodel.DefaultConfig()
		memCfg.RAMBytes = opts.MemBudget
		memCfg.InitialSlots = 1 << 10
		s.mem = memmodel.New(memCfg, clock)
	}
	if opts.MemBudget > 0 {
		s.mem.SetBudget(opts.MemBudget, 0, 0)
	}
	s.cfg = mc.Config{
		Kernel:            k,
		Checker:           s.check,
		Trackers:          s.trackers,
		Pool:              pool,
		MaxDepth:          maxDepth,
		MaxOps:            opts.MaxOps,
		MaxStates:         opts.MaxStates,
		Seed:              opts.Seed,
		Mem:               s.mem,
		EqualizeFreeSpace: !opts.DisableEqualizeFreeSpace,
		MajorityVote:      opts.MajorityVote,
		Resume:            opts.Resume,
		Observers:         opts.Observers,
	}
	if opts.CrashExploration {
		if len(s.crashPlanes) == 0 {
			s.Close()
			return nil, fmt.Errorf("mcfs: crash exploration needs at least one crash-testable target: ext2, ext4, or jffs2 with per-op remounts and full state tracking")
		}
		s.cfg.Crash = &mc.CrashConfig{
			Planes:      s.crashPlanes,
			PointsPerOp: opts.CrashPointsPerOp,
		}
	}
	return s, nil
}

func (s *Session) deviceFor(name string, ts TargetSpec, size int64) *blockdev.Disk {
	profile := blockdev.RAMProfile
	switch ts.Backing {
	case BackingSSD:
		profile = blockdev.SSDProfile
	case BackingHDD:
		profile = blockdev.HDDProfile
	}
	d := blockdev.NewDisk(name, size, 4096, profile, s.clock)
	d.SetObs(s.cfg.Obs)
	return d
}

// crashEligible reports whether ts can host a crash plane: the probe's
// remount bracketing and power-cycle semantics require per-op remounts
// and full (device-level) state tracking.
func crashEligible(ts TargetSpec) bool {
	return !ts.DisablePerOpRemount && !ts.DiskOnlyTracking
}

// crashMedia is the delta-session surface of one crash plane's backing
// device: partial image reloads, raw media reads for state digests, and
// the mask of byte ranges two state-equivalent images may differ in.
// Targets whose media cannot delta-reload (the MTD behind the mtdblock
// bridge) run their crash planes without one, on full-image paths.
type crashMedia struct {
	loadDelta func(img []byte, regions []fault.Region) error
	readAt    func(p []byte, off int64) error
	mask      []fault.Region
}

// addCrashPlane installs one crash-testing surface for the target at
// idx: snapshot/load access the target's media (the block device, or the
// MTD behind the mtdblock bridge), and strict/fsck encode how much the
// target guarantees after a power cut — ext4's journal promises the
// pre-op or post-op state exactly, ext2 and jffs2 only promise a
// mountable, recoverable volume. A non-nil media enables the crash
// oracle's recovery session: rollbacks and power cuts reload only the
// regions the injector's touch log reports diverged, and recovered
// states are digested over those regions for verdict memoization.
func (s *Session) addCrashPlane(idx int, point string, ts TargetSpec, inj *fault.Injector,
	spec kernel.FilesystemSpec, snapshot func(dst []byte) ([]byte, error), load func([]byte) error,
	media *crashMedia, strict bool, fsck func() []string) {

	k := s.kern
	// loadBack puts img on the media: a delta reload over the regions
	// known to diverge (the touch log plus extra) when the log is usable,
	// the full image otherwise.
	loadBack := func(img []byte, extra []fault.Region) error {
		regions, ok := inj.Touched()
		if media == nil || !ok {
			return load(img)
		}
		regions = append(regions, extra...)
		return media.loadDelta(img, fault.CoalesceRegions(regions))
	}
	plane := mc.CrashPlane{
		Target:   idx,
		Name:     fmt.Sprintf("%s#%d", ts.Kind, idx),
		Mount:    point,
		Injector: inj,
		PreOp:    func() error { return k.Remount(point) },
		PostOp:   func() error { return k.Remount(point) },
		// Crash sessions keep their pre-op image for the whole window,
		// so each snapshot gets a fresh buffer.
		Snapshot: func() ([]byte, error) { return snapshot(nil) },
		Restore: func(img []byte) error {
			// A failed recovery leaves the point unmounted; roll the media
			// back regardless and mount fresh.
			if m, _, e := k.MountAt(point); e == errno.OK && m.Point() == point {
				if err := k.Unmount(point); err != nil {
					return err
				}
			}
			if err := load(img); err != nil {
				return err
			}
			return k.Mount(point, spec, kernel.MountOptions{})
		},
		PowerCycle: func(img []byte) error {
			return k.CrashRemount(point, func() error { return load(img) })
		},
		MetaHash: func() (abstraction.State, errno.Errno) {
			// Ignore file content: data writes are legitimately
			// non-atomic under metadata journaling.
			opts := s.check.AbstractionOptions()
			opts.IgnoreContent = true
			return abstraction.Hash(k, point, opts)
		},
		Fsck:   fsck,
		Strict: strict,
	}
	if media != nil {
		plane.RestoreDelta = func(img []byte, extra []fault.Region) error {
			// The unmount flushes through the injector, so the touch log
			// must be consulted after it — loadBack does.
			if m, _, e := k.MountAt(point); e == errno.OK && m.Point() == point {
				if err := k.Unmount(point); err != nil {
					return err
				}
			}
			if err := loadBack(img, extra); err != nil {
				return err
			}
			// Media now matches img: from here the log describes
			// divergence from it.
			inj.ResetTouchLog()
			return k.Mount(point, spec, kernel.MountOptions{})
		}
		plane.PowerCycleDelta = func(img []byte, extra []fault.Region) error {
			// No reset: the loaded image diverges from the session's base
			// snapshot, and the log (plus extra) must keep saying so.
			return k.CrashRemount(point, func() error { return loadBack(img, extra) })
		}
		plane.MediaDigest = func(regions []fault.Region) ([32]byte, bool) {
			return digestMedia(media, regions)
		}
	}
	s.crashPlanes = append(s.crashPlanes, plane)
}

// digestMedia hashes the media bytes of the given regions, zeroing the
// bytes under the media's compare mask so state-equivalent images
// (differing only in superblock dirty flags, mount counters, or
// replayed journal space) digest identically. Region offsets and
// lengths are folded into the hash: a digest identifies both where the
// media diverged and what it holds there.
func digestMedia(media *crashMedia, regions []fault.Region) ([32]byte, bool) {
	h := sha256.New()
	var hdr [16]byte
	var buf []byte
	for _, r := range regions {
		binary.LittleEndian.PutUint64(hdr[0:8], uint64(r.Off))
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.Len))
		h.Write(hdr[:])
		if int64(cap(buf)) < r.Len {
			buf = make([]byte, r.Len)
		}
		b := buf[:r.Len]
		if err := media.readAt(b, r.Off); err != nil {
			return [32]byte{}, false
		}
		for _, m := range media.mask {
			lo, hi := max(m.Off, r.Off), min(m.Off+m.Len, r.Off+r.Len)
			for i := lo; i < hi; i++ {
				b[i-r.Off] = 0
			}
		}
		h.Write(b)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d, true
}

func (s *Session) mountTarget(point string, ts TargetSpec, idx int) error {
	clock := s.clock
	k := s.kern
	switch ts.Kind {
	case "ext2", "ext4":
		size := ts.DeviceSize
		if size == 0 {
			size = 256 * 1024 // the paper's 256 KB ext devices
		}
		// One mount cache per device: every remount of the same validated
		// geometry — per-op brackets, backtracking restores, crash-probe
		// power cycles — pays warm-mount CPU instead of full validation.
		mopts := extfs.MountOpts{Cache: extfs.NewMountCache()}
		for _, b := range ts.Bugs {
			if b == BugJournalCommitFirst && ts.Kind == "ext4" {
				mopts.JournalCommitFirst = true
				continue
			}
			return fmt.Errorf("mcfs: %s does not support bug %q", ts.Kind, b)
		}
		dev := s.deviceFor(fmt.Sprintf("ram%d", idx), ts, size)
		if err := extfs.Mkfs(dev, extfs.MkfsOptions{Journal: ts.Kind == "ext4"}); err != nil {
			return err
		}
		spec := kernel.FilesystemSpec{
			Type:      ts.Kind,
			Dev:       dev,
			Mounter:   func() (vfs.FS, error) { return extfs.MountWith(dev, clock, mopts) },
			Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
		}
		if err := k.Mount(point, spec, kernel.MountOptions{}); err != nil {
			return err
		}
		if s.crash && crashEligible(ts) {
			inj := fault.New()
			dev.SetInjector(inj)
			var fsck func() []string
			if ts.Kind == "ext4" {
				workers := s.fsckWorkers
				fsck = func() []string {
					probs, err := extfs.FsckWith(dev, extfs.FsckOptions{Workers: workers})
					if err != nil {
						return []string{fmt.Sprintf("fsck error: %v", err)}
					}
					out := make([]string, len(probs))
					for i, p := range probs {
						out[i] = p.String()
					}
					return out
				}
			}
			mask, err := extfs.StateCompareMask(dev)
			if err != nil {
				return fmt.Errorf("mcfs: computing %s compare mask: %w", ts.Kind, err)
			}
			media := &crashMedia{loadDelta: dev.LoadImageDelta, readAt: dev.ReadAt, mask: mask}
			s.addCrashPlane(idx, point, ts, inj, spec, dev.Snapshot, dev.LoadImage, media, ts.Kind == "ext4", fsck)
		}
		return nil
	case "xfs":
		size := ts.DeviceSize
		if size == 0 {
			size = xfssim.MinVolumeSize // 16 MiB minimum (§6)
		}
		dev := s.deviceFor(fmt.Sprintf("ram%d", idx), ts, size)
		if err := xfssim.Mkfs(dev, xfssim.MkfsOptions{}); err != nil {
			return err
		}
		return k.Mount(point, kernel.FilesystemSpec{
			Type:      "xfs",
			Dev:       dev,
			Mounter:   func() (vfs.FS, error) { return xfssim.Mount(dev, clock) },
			Unmounter: func(f vfs.FS) error { return f.(*xfssim.FS).Unmount() },
		}, kernel.MountOptions{})
	case "jffs2":
		size := ts.DeviceSize
		if size == 0 {
			size = 256 * 1024
		}
		// JFFS2 mounts on an MTD device (mtdram); MCFS reaches the flash
		// through the mtdblock bridge for state tracking (§4).
		mtd := blockdev.NewMTD(fmt.Sprintf("mtd%d", idx), size, 8*1024, clock)
		mtd.SetObs(s.cfg.Obs)
		if err := jffs2sim.Mkfs(mtd); err != nil {
			return err
		}
		bridge := blockdev.NewMTDBlock(mtd)
		spec := kernel.FilesystemSpec{
			Type:      "jffs2",
			Dev:       bridge,
			Mounter:   func() (vfs.FS, error) { return jffs2sim.Mount(mtd, clock) },
			Unmounter: func(f vfs.FS) error { return f.(*jffs2sim.FS).Unmount() },
		}
		if err := k.Mount(point, spec, kernel.MountOptions{}); err != nil {
			return err
		}
		if s.crash && crashEligible(ts) {
			inj := fault.New()
			mtd.SetInjector(inj)
			// The MTD cannot delta-reload; jffs2 crash planes stay on the
			// full-image paths (nil media).
			s.addCrashPlane(idx, point, ts, inj, spec, bridge.Snapshot, mtd.LoadImage, nil, false, nil)
		}
		return nil
	case "verifs1", "verifs2":
		backing, err := buildVeriFS(ts, clock)
		if err != nil {
			return err
		}
		srv := fuse.NewServer(backing, clock, fuse.ServerOptions{
			SkipInvalidateOnRestore: hasBug(ts.Bugs, BugNoCacheInvalidate),
		})
		s.servers = append(s.servers, srv)
		client := fuse.NewClient(srv, clock)
		client.SetObs(s.cfg.Obs)
		return k.Mount(point, kernel.FilesystemSpec{
			Type:    ts.Kind,
			Mounter: func() (vfs.FS, error) { return client, nil },
		}, kernel.MountOptions{})
	default:
		return fmt.Errorf("mcfs: unknown target kind %q", ts.Kind)
	}
}

func hasBug(bugs []string, name string) bool {
	for _, b := range bugs {
		if b == name {
			return true
		}
	}
	return false
}

func buildVeriFS(ts TargetSpec, clock *simclock.Clock) (vfs.FS, error) {
	switch ts.Kind {
	case "verifs1":
		var opts []verifs1.Option
		for _, b := range ts.Bugs {
			switch b {
			case BugTruncateNoZero:
				opts = append(opts, verifs1.WithTruncateBug())
			case BugNoCacheInvalidate:
				// Handled at the FUSE server layer.
			default:
				return nil, fmt.Errorf("mcfs: verifs1 does not support bug %q", b)
			}
		}
		return verifs1.New(clock, opts...), nil
	case "verifs2":
		var opts []verifs2.Option
		for _, b := range ts.Bugs {
			switch b {
			case BugWriteHoleNoZero:
				opts = append(opts, verifs2.WithHoleBug())
			case BugSizeUpdateOnOverflow:
				opts = append(opts, verifs2.WithSizeBug())
			case BugNoCacheInvalidate:
				// Handled at the FUSE server layer.
			default:
				return nil, fmt.Errorf("mcfs: verifs2 does not support bug %q", b)
			}
		}
		return verifs2.New(clock, opts...), nil
	}
	return nil, fmt.Errorf("mcfs: not a VeriFS kind: %q", ts.Kind)
}

func (s *Session) trackerFor(point string, ts TargetSpec, vmGroup **tracker.VMGroup) (tracker.Tracker, error) {
	var tr tracker.Tracker
	switch ts.Kind {
	case "verifs1", "verifs2":
		tr = tracker.NewCheckpoint(s.kern, point)
	case "ext2", "ext4", "xfs", "jffs2":
		if ts.DiskOnlyTracking {
			tr = tracker.NewDiskOnly(s.kern, point)
		} else {
			tr = tracker.NewRemount(s.kern, point, !ts.DisablePerOpRemount)
		}
	default:
		return nil, fmt.Errorf("mcfs: unknown target kind %q", ts.Kind)
	}
	if ts.VMSnapshot {
		if *vmGroup == nil {
			*vmGroup = tracker.NewVMGroup(s.kern)
		}
		tr = tracker.NewVMSnapshot(*vmGroup, tr)
	}
	return tr, nil
}

// Run performs the exploration and returns the result. Run may be called
// once per session; build a fresh session for a fresh run.
//
// A non-default visited backend or an armed memory budget gets a
// session-owned table, built here rather than in NewSession: swarm
// workers never call Run and visit the swarm's table instead. The
// session exports its table for resume; a reduced-fidelity backend
// refuses with a typed error the result carries instead of a snapshot.
func (s *Session) Run() Result {
	hooks := governorHooks(func() []*obs.Hub { return []*obs.Hub{s.cfg.Obs} }, s.cfg.Stream)
	set, err := newVisitedSet(s.visitedKind, s.bitstateBytes, s.memBudget, false, hooks)
	if err != nil {
		return Result{Err: err}
	}
	if set == nil {
		return mc.Run(s.cfg)
	}
	set.AttachMem(s.mem)
	s.cfg.Visited = set
	res := mc.Run(s.cfg)
	res.Resume, res.ResumeErr = mc.ExportVisited(set)
	return res
}

// newVisitedSet builds the visited table a session or swarm hands the
// engine: the selected backend, shared when share is set, and governed
// when a memory budget is armed (a bitstate migration's array defaults
// to a quarter of the budget). It returns nil — the engine builds its
// own exact table — when none of that is asked for.
func newVisitedSet(kind string, bitstateBytes, budget int64, share bool, hooks visited.Hooks) (*visited.Set, error) {
	k := visited.Kind(kind)
	if (k == "" || k == visited.KindExact) && budget <= 0 && !share {
		return nil, nil
	}
	tbl, err := visited.NewTable(k, bitstateBytes)
	if err != nil {
		return nil, err
	}
	set := visited.NewSet(tbl)
	if budget > 0 {
		if bitstateBytes <= 0 {
			bitstateBytes = budget / 4
		}
		visited.NewGovernor(set, visited.GovernorConfig{BitstateBytes: bitstateBytes, Hooks: hooks})
	}
	return set, nil
}

// governorHooks wires a governor's degradation events into the
// observability plane: fidelity/omission gauges on every hub, the
// eviction and downgrade counters on the first non-nil hub only (Merge
// sums counters across hubs, so billing them everywhere would
// double-count), and a fidelity-degraded event on the stream bus, from
// worker 0 since the table serves the whole session or swarm. hubs is
// called per event, so a swarm's hooks see the workers built so far.
func governorHooks(hubs func() []*obs.Hub, bus *Stream) visited.Hooks {
	first := func(hs []*obs.Hub) *obs.Hub {
		for _, h := range hs {
			if h != nil {
				return h
			}
		}
		return nil
	}
	return visited.Hooks{
		OnEvict: func(n, depth int) {
			first(hubs()).Counter(obs.MetricVisitedEvictions).Add(int64(n))
		},
		OnDowngrade: func(from, to Fidelity, omission float64) {
			hs := hubs()
			for _, h := range hs {
				h.Gauge(obs.MetricVisitedFidelity).Set(int64(to))
				h.Gauge(obs.MetricVisitedOmissionPPM).Set(int64(omission * 1e6))
			}
			first(hs).Counter(obs.MetricFidelityDowngrades).Inc()
			bus.Publish(stream.Event{
				Kind:   stream.KindFidelityDegraded,
				Detail: fmt.Sprintf("%s->%s p≈%.3g", from, to, omission),
			})
		},
	}
}

// Replay re-executes a trail from the session's current state, returning
// the first discrepancy (nil when the trail no longer reproduces).
func (s *Session) Replay(trail []Op) (*Discrepancy, error) {
	return mc.Replay(s.cfg, trail)
}

// VerifyTrail replays trail and reports whether it reproduces the
// wanted discrepancy (any discrepancy when want is nil, otherwise one
// of the same kind).
func (s *Session) VerifyTrail(trail []Op, want *Discrepancy) (*Discrepancy, bool, error) {
	return mc.VerifyTrail(s.cfg, trail, want)
}

// VerifyCrashTrail replays a crash-bug trail — the prefix executes
// normally, then the final operation is crash-tested on the spec'd
// target at the spec'd write index — and reports whether it reproduces
// the wanted discrepancy. The session must have been built with
// CrashExploration (the crash planes carry the fault injectors). A nil
// spec verifies the trail as VerifyTrail does.
func (s *Session) VerifyCrashTrail(trail []Op, spec *CrashSpec, want *Discrepancy) (*Discrepancy, bool, error) {
	return mc.VerifyCrashTrail(s.cfg, trail, spec, want)
}

// ReplayJournal re-executes a flight-recorder journal against this
// (fresh) session, verifying every recorded errno and state hash — and
// the recorded bug, if any — reproduces. See mc.ReplayJournal.
func (s *Session) ReplayJournal(recs []journal.Record) (ReplayReport, error) {
	return mc.ReplayJournal(s.cfg, recs)
}

// Kernel exposes the session's simulated kernel for direct syscall use
// (examples and tests drive file systems through it).
func (s *Session) Kernel() *kernel.Kernel { return s.kern }

// Clock returns the session's virtual clock.
func (s *Session) Clock() *simclock.Clock { return s.clock }

// Checker exposes the integrity checker.
func (s *Session) Checker() *checker.Checker { return s.check }

// Obs returns the observability hub the session was built with (nil when
// observability is off).
func (s *Session) Obs() *obs.Hub { return s.cfg.Obs }

// Perf returns the phase profiler the session was built with (nil when
// phase profiling is off).
func (s *Session) Perf() *perf.Profiler { return s.cfg.Perf }

// Config exposes the underlying engine configuration (benchmarks tune
// it). A session-owned visited table is installed by Run, not here.
func (s *Session) Config() *mc.Config { return &s.cfg }

// MemoryStats reports the memory model's occupancy; zero Stats when the
// session runs without a memory model.
func (s *Session) MemoryStats() memmodel.Stats {
	if s.mem == nil {
		return memmodel.Stats{}
	}
	return s.mem.Stats()
}

// Close shuts down the session's user-space file system servers.
func (s *Session) Close() {
	for _, srv := range s.servers {
		srv.Shutdown()
	}
	s.servers = nil
}

// DefaultMemoryConfig returns the memory-model configuration matching
// the paper's evaluation VM (64 GB RAM, 128 GB swap on SSD).
func DefaultMemoryConfig() memmodel.Config { return memmodel.DefaultConfig() }

// SwarmOptions configures a coordinated swarm of exploration sessions.
type SwarmOptions struct {
	// Workers is the number of diversified workers (seeds 1..Workers).
	Workers int
	// Parallelism caps concurrently running workers (0 = min(Workers,
	// GOMAXPROCS)); Workers may exceed it — excess workers queue.
	Parallelism int
	// ShareVisited gives every worker one shared visited-state table,
	// pruning states a peer already expanded instead of re-exploring
	// the overlap.
	ShareVisited bool
	// Resume seeds the swarm with an earlier run's visited knowledge.
	Resume *ResumeState
	// Cancel lets the caller abort the swarm; nil means an internal
	// token (still fired by the first bug or failure).
	Cancel *Cancel
	// Journal gives every worker a flight-recorder handle on this
	// shared writer (worker ids 1..Workers); records interleave and
	// carry the worker id for post-hoc de-multiplexing.
	Journal *journal.Writer
	// Stream gives every worker this one live event bus (worker ids
	// 1..Workers): all workers' steps, crash verdicts, and heartbeats
	// interleave on it, and SwarmResult.WorkerHealth snapshots its
	// liveness view at the end.
	Stream *Stream
	// Visited selects the swarm-wide visited-table backend ("exact",
	// "compact", or "bitstate" — see Options.Visited). A non-default
	// backend implies ShareVisited.
	Visited string
	// BitstateBytes sizes the bitstate Bloom array (see
	// Options.BitstateBytes).
	BitstateBytes int64
	// MemBudget arms a memory governor per worker, all watching the
	// swarm's one shared table (see Options.MemBudget): the first worker
	// to cross a watermark degrades the table for everyone, and
	// SwarmResult.Fidelity/OmissionProb report the outcome. Implies
	// ShareVisited.
	MemBudget int64
}

// SwarmRun runs a coordinated swarm (Spin's swarm verification, §2,
// with pFSCK-style coordination): Workers diversified sessions built by
// factory, a shared cancellation token stopping every worker at the
// first bug or failure, and optionally one shared visited table. The
// factory returns the Options for each worker seed; every worker gets
// fully independent file system instances and its own virtual clock.
func SwarmRun(swarm SwarmOptions, factory func(seed int64) (Options, error)) (SwarmResult, error) {
	var sw sessionSwarm
	defer sw.close()
	return sw.run(swarm, factory)
}

// sessionSwarm runs a coordinated swarm of sessions: it builds each
// worker's Session from the factory's Options, keeps the sessions in
// worker order, and closes them. The governor hooks read the workers'
// hubs from it.
type sessionSwarm struct {
	mu       sync.Mutex
	sessions []*Session // guarded by mu; index w is worker w+1, nil until built
}

// run runs the swarm. The caller closes sw afterwards, after reading
// whatever it needs from the sessions.
func (sw *sessionSwarm) run(swarm SwarmOptions, factory func(seed int64) (Options, error)) (SwarmResult, error) {
	sw.mu.Lock()
	sw.sessions = make([]*Session, max(swarm.Workers, 0))
	sw.mu.Unlock()
	shared, err := newVisitedSet(swarm.Visited, swarm.BitstateBytes, swarm.MemBudget,
		swarm.ShareVisited, governorHooks(sw.hubs, swarm.Stream))
	if err != nil {
		return SwarmResult{BugWorker: -1, ErrWorker: -1}, err
	}
	return mc.SwarmRun(mc.SwarmOptions{
		Workers:     swarm.Workers,
		Parallelism: swarm.Parallelism,
		Shared:      shared,
		Resume:      swarm.Resume,
		Cancel:      swarm.Cancel,
		Journal:     swarm.Journal,
		Stream:      swarm.Stream,
	}, func(seed int64) (mc.Config, error) {
		opts, err := factory(seed)
		if err != nil {
			return mc.Config{}, err
		}
		opts.Seed = seed
		// Every worker's model watches the budget; the swarm's one
		// governed table is the only visited table (workers never call
		// Session.Run, which is where a session builds its own).
		if opts.MemBudget == 0 {
			opts.MemBudget = swarm.MemBudget
		}
		s, err := NewSession(opts)
		if err != nil {
			return mc.Config{}, err
		}
		sw.mu.Lock()
		sw.sessions[seed-1] = s
		sw.mu.Unlock()
		return s.cfg, nil
	})
}

// built returns the sessions in worker order; a worker canceled before
// it started has none.
func (sw *sessionSwarm) built() []*Session {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	var out []*Session
	for _, s := range sw.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// hubs returns the hubs of the workers built so far, in worker order.
func (sw *sessionSwarm) hubs() []*obs.Hub {
	var hs []*obs.Hub
	for _, s := range sw.built() {
		hs = append(hs, s.cfg.Obs)
	}
	return hs
}

func (sw *sessionSwarm) close() {
	for _, s := range sw.built() {
		s.Close()
	}
}

// Verify re-checks that all targets currently agree, returning the
// discrepancy if they do not. Useful after driving targets manually via
// Kernel().
func (s *Session) Verify() (*Discrepancy, error) {
	d, e := s.check.CheckStates("verify")
	if e != errno.OK {
		return nil, fmt.Errorf("mcfs: verify: %w", e)
	}
	return d, nil
}
