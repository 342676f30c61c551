// Crash-consistency exploration: at nondeterministically chosen crash
// points inside an operation's write window, simulate power loss —
// discard all volatile state, keep only the blocks that reached media —
// remount the target through its recovery path, and check a
// prefix-consistency oracle: the recovered state must be the state after
// some prefix of the acknowledged (synced) operations. For a journaled
// target that means exactly "before the op" or "after the op" (Strict
// mode, backed by fsck); for unjournaled or log-structured targets the
// oracle is mount-only — recovery must succeed and produce a mountable,
// checkable volume.
//
// The probe is systematic, not random: the operation is executed ONCE
// under an open fault window with a crash point armed at every write
// index up to maxArmedPoints — the injector snapshots the media at each
// armed write as it happens — which measures the write count W and
// captures every crash image in the same pass. The sampled indices (all
// of them when W is small, an even spread including 0 and W-1
// otherwise) are then judged from the captured images without ever
// re-executing the window. Determinism is inherited from the fault
// plane: the same operation sequence produces the same write sequence,
// so a crash bug pins to (trail, target, write index) and flows through
// the journal/replay/minimize/bundle pipeline like any other
// discrepancy.
package mc

import (
	"fmt"
	"time"

	"mcfs/internal/abstraction"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/perf"
	"mcfs/internal/obs/stream"
	"mcfs/internal/workload"
)

// KindCrashConsistency is the discrepancy kind of crash-recovery bugs.
const KindCrashConsistency = "crash-consistency"

// maxArmedPoints bounds how many crash points one probe execution arms:
// a media image is captured at each of the window's first maxArmedPoints
// writes. Sampled points beyond the armed prefix (windows longer than 64
// writes) fall back to a dedicated capture execution per point.
const maxArmedPoints = 64

// DefaultCrashPointsPerOp is how many crash points are sampled per
// (state, operation, target) when the write window is larger. With
// single-execution multi-point capture and warm recovery mounts the
// marginal point is cheap, so the default is effectively exhaustive:
// every write of any window up to maxArmedPoints writes.
const DefaultCrashPointsPerOp = maxArmedPoints

// CrashPlane is one target's crash-testing surface. It is deliberately
// self-contained — closures over the session's kernel, device, and
// injector — so the engine stays ignorant of device and mount plumbing.
type CrashPlane struct {
	// Target is the target's index in the checker's target list; Name
	// its human name (e.g. "ext4#1"); Mount its mount point.
	Target int
	Name   string
	Mount  string
	// Injector is the fault plane installed on the target's device.
	Injector *fault.Injector
	// PreOp/PostOp bracket one probed execution exactly as the target's
	// tracker brackets a normal step (remounts for kernel file systems).
	// PreOp runs before the fault window opens — its flushes belong to
	// the previous state — and PostOp runs inside it, so sync-path
	// writes (journal commits) are crash-testable.
	PreOp  func() error
	PostOp func() error
	// Snapshot captures the device image; Restore brings it back even
	// when the target is left unmounted by a failed recovery.
	Snapshot func() ([]byte, error)
	Restore  func(img []byte) error
	// PowerCycle simulates power loss with img as the surviving media
	// image: drop all volatile state, load img, and remount through the
	// target's recovery path (journal replay, log scan). An error means
	// recovery itself failed.
	PowerCycle func(img []byte) error
	// RestoreDelta and PowerCycleDelta, when set, are delta-session
	// variants of Restore and PowerCycle: instead of reloading the full
	// image they reload only the regions the injector's touch log says
	// have diverged from it, plus extra — regions the caller knows
	// diverged outside the log's view (a crash image loaded since the
	// log's last reset). Both must fall back to the full-image path on
	// their own when the touch log is unusable. RestoreDelta additionally
	// resets the touch log once the media matches img again, so the log
	// describes divergence from img from then on.
	RestoreDelta    func(img []byte, extra []fault.Region) error
	PowerCycleDelta func(img []byte, extra []fault.Region) error
	// MediaDigest, when set, hashes the device media over the given
	// regions, masking byte ranges that may differ between equivalent
	// states (superblock dirty flags, mount counters, replayed journal
	// space). ok == false means the digest could not be computed (a read
	// failed) and the caller must fall back to the full oracle. Two
	// recovered images with equal digests over their divergence regions
	// are state-equivalent: Fsck and MetaHash never read masked bytes.
	MediaDigest func(regions []fault.Region) ([32]byte, bool)
	// MetaHash abstracts the target's current state for the oracle,
	// ignoring file content (data writes are legitimately non-atomic).
	MetaHash func() (abstraction.State, errno.Errno)
	// Fsck, when set, reports post-recovery integrity problems.
	Fsck func() []string
	// Strict requires the recovered state to equal the pre-op or
	// post-op state exactly (journaled targets). Non-strict planes only
	// require recovery to succeed and pass Fsck.
	Strict bool
}

// CrashConfig enables crash exploration on the engine.
type CrashConfig struct {
	// Planes lists the crash-testable targets.
	Planes []CrashPlane
	// PointsPerOp caps sampled crash points per probed operation
	// (DefaultCrashPointsPerOp when <= 0).
	PointsPerOp int
}

// CrashStats counts crash-exploration work for one run.
type CrashStats struct {
	// Probes counts (state, operation, target) windows probed.
	Probes int64
	// PointsExplored counts crash points actually tested.
	PointsExplored int64
	// Recovered counts crash points whose recovery verified clean.
	Recovered int64
	// ErrorsInjected/TornInjected/CorruptInjected sum the fault planes'
	// injection counters.
	ErrorsInjected  int64
	TornInjected    int64
	CorruptInjected int64
}

// Merge folds other into c (aggregating swarm workers).
func (c *CrashStats) Merge(other CrashStats) {
	c.Probes += other.Probes
	c.PointsExplored += other.PointsExplored
	c.Recovered += other.Recovered
	c.ErrorsInjected += other.ErrorsInjected
	c.TornInjected += other.TornInjected
	c.CorruptInjected += other.CorruptInjected
}

// crashPoints samples m write indices out of a window of w writes: all
// of them when w <= m, otherwise an even spread including 0 and w-1.
// m == 1 samples the FIRST write — a crash before anything but write 0
// persists is the sharpest single probe of the recovery path, and the
// documented behavior (a long-standing bug sampled w-1 instead, which
// for journaled targets lands after the commit record and exercises
// nothing).
func crashPoints(w, m int) []int {
	if m <= 0 {
		m = DefaultCrashPointsPerOp
	}
	if w <= m {
		pts := make([]int, w)
		for i := range pts {
			pts[i] = i
		}
		return pts
	}
	if m == 1 {
		return []int{0}
	}
	pts := make([]int, m)
	for i := range pts {
		pts[i] = i * (w - 1) / (m - 1)
	}
	return pts
}

// crashWindow executes op once on the plane's target inside a fault
// window, with crash points armed at the given write indices (nil:
// measurement run, nothing armed). It returns the window's write count.
// The operation's errno is irrelevant here — failing operations have
// write windows too. On EVERY exit path the injector is left with zero
// armed points: captured images are kept for the caller to drain on
// success and dropped on failure, but an arm must never outlive the
// window it was set for (a leftover arm would silently capture in the
// next window).
func crashWindow(cfg *Config, p *CrashPlane, op workload.Op, points []int) (int, error) {
	mt := cfg.Perf.Start(perf.PhaseRemount)
	if err := p.PreOp(); err != nil {
		mt.End()
		return 0, fmt.Errorf("pre-op: %w", err)
	}
	mt.End()
	p.Injector.StartWindow()
	if len(points) > 0 {
		p.Injector.ArmCrashes(points)
	}
	et := cfg.Perf.Start(perf.PhaseExecute)
	workload.Execute(cfg.Kernel, p.Mount, op)
	et.End()
	mt = cfg.Perf.Start(perf.PhaseRemount)
	err := p.PostOp()
	mt.End()
	p.Injector.EndWindow()
	if err != nil {
		p.Injector.Disarm()
		return 0, fmt.Errorf("post-op: %w", err)
	}
	p.Injector.DisarmPending()
	return p.Injector.WindowWrites(), nil
}

// crashOracle power-cycles the plane on the captured image and judges
// the recovered state: recovery must succeed, fsck must be clean, and —
// for strict planes — the recovered metadata state must equal the
// pre-op (b0) or post-op (b1) state. Returns nil when recovery is
// consistent. pf (nil-safe) attributes the oracle's time: recovery
// mounts to remount, integrity checking to fsck, state hashing to hash.
func crashOracle(pf *perf.Profiler, p *CrashPlane, op workload.Op, k, w int, img []byte, b0, b1 abstraction.State) *checker.Discrepancy {
	where := fmt.Sprintf("%s: crash after write %d/%d of %s", p.Name, k+1, w, op)
	mt := pf.Start(perf.PhaseRemount)
	err := p.PowerCycle(img)
	mt.End()
	if err != nil {
		return &checker.Discrepancy{
			Kind: KindCrashConsistency,
			Op:   op.String(),
			Details: []string{
				where,
				fmt.Sprintf("recovery failed: %v", err),
			},
		}
	}
	if p.Fsck != nil {
		ft := pf.Start(perf.PhaseFsck)
		probs := p.Fsck()
		ft.End()
		if len(probs) > 0 {
			return &checker.Discrepancy{
				Kind:    KindCrashConsistency,
				Op:      op.String(),
				Details: append([]string{where, "fsck after recovery:"}, probs...),
			}
		}
	}
	if p.Strict {
		ht := pf.Start(perf.PhaseHash)
		r, er := p.MetaHash()
		ht.End()
		if er != errno.OK {
			return &checker.Discrepancy{
				Kind: KindCrashConsistency,
				Op:   op.String(),
				Details: []string{
					where,
					fmt.Sprintf("hashing recovered state: %v", er),
				},
			}
		}
		if r != b0 && r != b1 {
			return &checker.Discrepancy{
				Kind: KindCrashConsistency,
				Op:   op.String(),
				Details: []string{
					where,
					"recovered state matches neither the pre-op nor the post-op state",
					fmt.Sprintf("recovered %x", r[:8]),
					fmt.Sprintf("pre-op    %x", b0[:8]),
					fmt.Sprintf("post-op   %x", b1[:8]),
				},
			}
		}
	}
	return nil
}

// crashProbe crash-tests op's write window on every plane, from the
// current concrete state. Each (state, op, plane) triple is probed once
// per run. The probe always leaves the target back in its pre-probe
// state, so the engine's normal step proceeds unchanged.
func (e *engine) crashProbe(depth int, op workload.Op) error {
	for i := range e.cfg.Crash.Planes {
		if !e.budgetLeft() {
			return nil
		}
		p := &e.cfg.Crash.Planes[i]
		key := fmt.Sprintf("%x|%s|%s", e.curHash[:], op, p.Name)
		if e.crashSeen[key] {
			continue
		}
		e.crashSeen[key] = true
		if err := e.probePlane(depth, op, p); err != nil {
			return fmt.Errorf("mc: crash probe %s: %w", p.Name, err)
		}
		if e.bug != nil {
			return nil
		}
	}
	return nil
}

// probePlane crash-tests op's write window on one plane out of a SINGLE
// armed execution.
//
// This is the crash oracle's recovery session: the full device image is
// read exactly once (the snapshot), one execution of the window both
// measures its write count and captures a media image at every armed
// write as it happens, and the injector's touch log scopes every
// subsequent power-cycle and the final rollback to the bytes that
// actually diverged. The crash points are judged back to back — each
// power-cycle delta-loads the next captured image directly over the
// previous recovered state, with no rollback to pre in between (the
// touch log plus the window's write set bound the divergence) — and the
// probe rolls back to pre once, at the end. Compared to the original
// per-point flow — re-execute the window once per point, reload the
// full image twice per point — a probe of K points costs 1 execution
// instead of 1+K, K warm recovery mounts, and one delta rollback.
//
// Post-recovery verdicts are memoized per probe by a masked digest of
// the media regions that diverged from the pre-op image: crash points
// that recover to state-equivalent media (common when consecutive
// writes land in masked journal space) are judged once.
func (e *engine) probePlane(depth int, op workload.Op, p *CrashPlane) error {
	ct := e.cfg.Perf.Start(perf.PhaseCheckpoint)
	pre, err := p.Snapshot()
	ct.End()
	if err != nil {
		return err
	}
	// From here until the probe ends, the touch log tracks divergence
	// from pre. RestoreDelta resets it whenever media is rolled back.
	p.Injector.StartTouchLog()
	defer p.Injector.StopTouchLog()
	ht := e.cfg.Perf.Start(perf.PhaseHash)
	b0, er := p.MetaHash()
	ht.End()
	if er != errno.OK {
		return fmt.Errorf("hashing pre-op state: %w", er)
	}
	// The one armed execution: measures the window's write count AND
	// captures a crash image at every write index in the armed prefix.
	armAll := make([]int, maxArmedPoints)
	for i := range armAll {
		armAll[i] = i
	}
	w, err := crashWindow(&e.cfg, p, op, armAll)
	if err != nil {
		return err
	}
	e.countCrashExec()
	ht = e.cfg.Perf.Start(perf.PhaseHash)
	b1, er := p.MetaHash()
	ht.End()
	if er != errno.OK {
		return fmt.Errorf("hashing post-op state: %w", er)
	}
	e.crashStats.Probes++
	imgs := p.Injector.TakeCrashImages()
	// The window's write set, read BEFORE anything resets the log: every
	// captured image diverges from pre only inside it, so it is the
	// `extra` for delta operations against images other than pre.
	capRegions, capOK := p.Injector.Touched()
	if !capOK {
		capRegions = nil
	}

	points := crashPoints(w, e.cfg.Crash.PointsPerOp)
	rec := journal.CrashRecord{
		Target:     p.Target,
		TargetName: p.Name,
		Points:     points,
		Writes:     w,
		OK:         true,
	}
	if e.jr.Enabled() {
		opRec := journal.EncodeOp(op)
		rec.Op = &opRec
	}

	memo := make(map[[32]byte]crashVerdict)
	for _, k := range points {
		if !e.budgetLeft() {
			break
		}
		img := imgs[k]
		if img == nil {
			if k < maxArmedPoints {
				// The armed write never happened (a fault rule erred the
				// op short of write k): nothing to test.
				continue
			}
			// Beyond the armed prefix (window longer than maxArmedPoints):
			// capture this point with a dedicated execution from pre.
			if err := e.restorePlaneDelta(p, pre, capRegions); err != nil {
				return fmt.Errorf("rolling back for capture of write %d: %w", k, err)
			}
			if _, err := crashWindow(&e.cfg, p, op, []int{k}); err != nil {
				return err
			}
			e.countCrashExec()
			img = p.Injector.TakeCrashImage()
			if img == nil {
				continue
			}
		}
		e.crashStats.PointsExplored++
		if e.eobs != nil {
			e.eobs.crashPoints.Inc()
		}
		// Poll phase totals around the judgment so the verdict event can
		// attribute its cost to the dominant recovery phase.
		var phasesBefore []time.Duration
		if e.cfg.Stream != nil {
			phasesBefore = e.cfg.Perf.PhaseTotals()
		}
		d, verdict := e.judgeCrashPoint(p, op, k, w, img, capRegions, capOK, b0, b1, memo)
		e.heatmap.Record(op.String(), k, w, verdict)
		if e.cfg.Stream != nil {
			e.emit(stream.Event{
				Kind:    stream.KindCrashVerdict,
				Op:      op.String(),
				Target:  p.Name,
				Depth:   depth,
				Write:   k,
				Writes:  w,
				Verdict: verdict,
				Phase:   perf.DominantDelta(phasesBefore, e.cfg.Perf.PhaseTotals()),
			})
		}
		if d != nil {
			if err := e.restorePlaneDelta(p, pre, capRegions); err != nil {
				return fmt.Errorf("rolling back crash probe: %w", err)
			}
			rec.OK = false
			e.jr.Crash(depth, rec)
			e.report(d, op)
			e.bug.Crash = &journal.CrashSpec{
				Target:     p.Target,
				TargetName: p.Name,
				Write:      k,
			}
			return nil
		}
		e.crashStats.Recovered++
		if e.eobs != nil {
			e.eobs.crashRecoveries.Inc()
		}
	}
	// One rollback for the whole probe: media currently holds the last
	// recovered crash state (or the post-op state when no point fired).
	if err := e.restorePlaneDelta(p, pre, capRegions); err != nil {
		return fmt.Errorf("rolling back crash probe: %w", err)
	}
	if n := p.Injector.Armed(); n != 0 {
		return fmt.Errorf("crash probe leaked %d armed crash point(s)", n)
	}
	e.jr.Crash(depth, rec)
	return nil
}

// crashVerdict memoizes the state-dependent half of one crash point's
// judgment: the fsck report and (for strict planes) the recovered
// abstract state. Keyed by the masked digest of the recovered media's
// divergence from the pre-op image, it is valid for any crash point of
// the same probe that recovers to state-equivalent media.
type crashVerdict struct {
	fsckProbs []string
	state     abstraction.State
	stateErr  errno.Errno
	hasState  bool
}

// discrepancy renders the memoized verdict against one concrete crash
// point (nil when the recovery is consistent).
func (v crashVerdict) discrepancy(where string, op workload.Op, p *CrashPlane, b0, b1 abstraction.State) *checker.Discrepancy {
	if len(v.fsckProbs) > 0 {
		return &checker.Discrepancy{
			Kind:    KindCrashConsistency,
			Op:      op.String(),
			Details: append([]string{where, "fsck after recovery:"}, v.fsckProbs...),
		}
	}
	if !v.hasState {
		return nil
	}
	if v.stateErr != errno.OK {
		return &checker.Discrepancy{
			Kind: KindCrashConsistency,
			Op:   op.String(),
			Details: []string{
				where,
				fmt.Sprintf("hashing recovered state: %v", v.stateErr),
			},
		}
	}
	if v.state != b0 && v.state != b1 {
		return &checker.Discrepancy{
			Kind: KindCrashConsistency,
			Op:   op.String(),
			Details: []string{
				where,
				"recovered state matches neither the pre-op nor the post-op state",
				fmt.Sprintf("recovered %x", v.state[:8]),
				fmt.Sprintf("pre-op    %x", b0[:8]),
				fmt.Sprintf("post-op   %x", b1[:8]),
			},
		}
	}
	return nil
}

// label names the verdict for the heatmap and the event stream: bug on
// any discrepancy; for strict planes (hasState), which acknowledged
// state recovery landed on; fsck-repaired for a non-strict plane's
// clean recovery.
func (v crashVerdict) label(d *checker.Discrepancy, b0 abstraction.State) string {
	switch {
	case d != nil:
		return stream.VerdictBug
	case v.hasState && v.state == b0:
		return stream.VerdictB0
	case v.hasState:
		return stream.VerdictB1
	default:
		return stream.VerdictFsckRepaired
	}
}

// judgeCrashPoint power-cycles the plane on one captured crash image
// (delta-loading only the capture run's write set when the session
// supports it) and judges the recovered state, returning the verdict
// label (Verdict* constants) alongside any discrepancy. Before running
// the expensive checks it digests the recovered media's divergence from
// the pre-op image — capRegions plus whatever recovery itself wrote —
// and reuses the memoized verdict of any earlier point in this probe
// that recovered to masked-identical media. Callable from ANY media
// state whose divergence from img is bounded by capRegions plus the
// touch log (the post-op state, or a previous point's recovered state);
// returns with media == img-after-recovery. The caller rolls back once
// after the last point.
func (e *engine) judgeCrashPoint(p *CrashPlane, op workload.Op, k, w int, img []byte,
	capRegions []fault.Region, capOK bool, b0, b1 abstraction.State,
	memo map[[32]byte]crashVerdict) (*checker.Discrepancy, string) {

	where := fmt.Sprintf("%s: crash after write %d/%d of %s", p.Name, k+1, w, op)
	mt := e.cfg.Perf.Start(perf.PhaseRemount)
	var err error
	if capOK && p.PowerCycleDelta != nil {
		err = p.PowerCycleDelta(img, capRegions)
	} else {
		err = p.PowerCycle(img)
	}
	mt.End()
	if err != nil {
		return &checker.Discrepancy{
			Kind: KindCrashConsistency,
			Op:   op.String(),
			Details: []string{
				where,
				fmt.Sprintf("recovery failed: %v", err),
			},
		}, stream.VerdictBug
	}
	// Fast path: masked digest of everything that diverged from pre —
	// the crash image's writes plus recovery's own (journal replay).
	// Planes with no post-recovery checks at all have nothing to
	// memoize, so skip the digest reads.
	var dig [32]byte
	haveDig := false
	if p.MediaDigest != nil && (p.Strict || p.Fsck != nil) {
		ot := e.cfg.Perf.Start(perf.PhaseOracle)
		if recovered, ok := p.Injector.Touched(); ok {
			regions := fault.CoalesceRegions(append(append([]fault.Region(nil), capRegions...), recovered...))
			dig, haveDig = p.MediaDigest(regions)
		}
		ot.End()
		if haveDig {
			if v, hit := memo[dig]; hit {
				d := v.discrepancy(where, op, p, b0, b1)
				return d, v.label(d, b0)
			}
		}
	}
	var v crashVerdict
	if p.Fsck != nil {
		ft := e.cfg.Perf.Start(perf.PhaseFsck)
		v.fsckProbs = p.Fsck()
		ft.End()
	}
	if p.Strict {
		ht := e.cfg.Perf.Start(perf.PhaseHash)
		v.state, v.stateErr = p.MetaHash()
		ht.End()
		v.hasState = true
	}
	if haveDig {
		memo[dig] = v
	}
	d := v.discrepancy(where, op, p, b0, b1)
	return d, v.label(d, b0)
}

// countCrashExec charges one probed execution against the op budget —
// crash probes dominate a crash-exploration run's cost and must respect
// MaxOps like every other execution.
func (e *engine) countCrashExec() {
	e.executed++
	if e.eobs != nil {
		e.eobs.ops.Inc()
	}
	e.cfg.Perf.Observe(e.executed, e.unique, e.revisits,
		e.crashStats.PointsExplored, len(e.trail))
	e.maybeBeat()
}

// restorePlaneDelta rolls the plane's device image back to img,
// attributing the rollback to the restore phase. Planes with a delta
// session reload only the diverged regions (the injector's touch log
// plus extra — regions the caller knows diverged outside the log's
// view); others reload the full image.
func (e *engine) restorePlaneDelta(p *CrashPlane, img []byte, extra []fault.Region) error {
	rt := e.cfg.Perf.Start(perf.PhaseRestore)
	var err error
	if p.RestoreDelta != nil {
		err = p.RestoreDelta(img, extra)
	} else {
		err = p.Restore(img)
	}
	rt.End()
	return err
}

// replayCrashSpec re-runs the crash test for one (op, plane, write)
// triple at the targets' CURRENT state: measure the window, roll back,
// crash at spec.Write, power-cycle, judge. Returns the discrepancy (nil
// when recovery is consistent) — the crash-bug analogue of the final
// check in Replay.
func replayCrashSpec(cfg Config, op workload.Op, spec *journal.CrashSpec) (*checker.Discrepancy, error) {
	p := crashPlaneFor(cfg, spec.Target)
	if p == nil {
		return nil, fmt.Errorf("mc: crash replay: no crash plane for target %d (session built without crash exploration?)", spec.Target)
	}
	pre, err := p.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("mc: crash replay: %w", err)
	}
	b0, er := p.MetaHash()
	if er != errno.OK {
		return nil, fmt.Errorf("mc: crash replay: hashing pre-op state: %w", er)
	}
	w, err := crashWindow(&cfg, p, op, nil)
	if err != nil {
		return nil, fmt.Errorf("mc: crash replay: %w", err)
	}
	b1, er := p.MetaHash()
	if er != errno.OK {
		return nil, fmt.Errorf("mc: crash replay: hashing post-op state: %w", er)
	}
	if err := p.Restore(pre); err != nil {
		return nil, fmt.Errorf("mc: crash replay: %w", err)
	}
	if spec.Write >= w {
		return nil, nil // window shrank below the recorded crash point
	}
	if _, err := crashWindow(&cfg, p, op, []int{spec.Write}); err != nil {
		return nil, fmt.Errorf("mc: crash replay: %w", err)
	}
	img := p.Injector.TakeCrashImage()
	if img == nil {
		if err := p.Restore(pre); err != nil {
			return nil, fmt.Errorf("mc: crash replay: %w", err)
		}
		return nil, nil
	}
	d := crashOracle(cfg.Perf, p, op, spec.Write, w, img, b0, b1)
	if err := p.Restore(pre); err != nil {
		return nil, fmt.Errorf("mc: crash replay: %w", err)
	}
	return d, nil
}

func crashPlaneFor(cfg Config, target int) *CrashPlane {
	if cfg.Crash == nil {
		return nil
	}
	for i := range cfg.Crash.Planes {
		if cfg.Crash.Planes[i].Target == target {
			return &cfg.Crash.Planes[i]
		}
	}
	return nil
}

// ReplayCrash replays a crash-bug trail: the prefix executes normally on
// every target (exactly as Replay does), then the FINAL operation is
// crash-tested on the spec'd target at the spec'd write index. Returns
// the first discrepancy observed — a prefix discrepancy counts (the
// trail diverged before the crash point), otherwise the crash oracle's
// verdict.
func ReplayCrash(cfg Config, trail []workload.Op, spec *journal.CrashSpec) (*checker.Discrepancy, error) {
	if len(trail) == 0 {
		return nil, fmt.Errorf("mc: crash replay: empty trail")
	}
	if spec == nil {
		return nil, fmt.Errorf("mc: crash replay: nil crash spec")
	}
	prefix, final := trail[:len(trail)-1], trail[len(trail)-1]
	if d, err := Replay(cfg, prefix); err != nil || d != nil {
		return d, err
	}
	return replayCrashSpec(cfg, final, spec)
}

// VerifyCrashTrail replays a crash-bug trail (ReplayCrash) and reports
// whether it reproduces the wanted discrepancy: any discrepancy when
// want is nil, otherwise one of the same kind.
func VerifyCrashTrail(cfg Config, trail []workload.Op, spec *journal.CrashSpec, want *checker.Discrepancy) (*checker.Discrepancy, bool, error) {
	got, err := ReplayCrash(cfg, trail, spec)
	if err != nil {
		return nil, false, err
	}
	same := got != nil && (want == nil || got.Kind == want.Kind)
	return got, same, nil
}
