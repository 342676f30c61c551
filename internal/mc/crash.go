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
	"slices"
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
// window, with crash points armed at the given write indices, and
// returns the window's write count. The operation's errno is irrelevant
// here — failing operations have write windows too. On EVERY exit path
// the injector is left with zero armed points: captured images are kept
// for the caller to drain on success and dropped on failure, but an arm
// must never outlive the window it was set for (a leftover arm would
// silently capture in the next window).
func crashWindow(cfg *Config, p *CrashPlane, op workload.Op, points []int) (int, error) {
	mt := cfg.Perf.Start(perf.PhaseRemount)
	if err := p.PreOp(); err != nil {
		mt.End()
		return 0, fmt.Errorf("pre-op: %w", err)
	}
	mt.End()
	p.Injector.StartWindow()
	p.Injector.ArmCrashes(points)
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

// probePlane crash-tests op's write window on one plane: one crash
// session with every write of the armed prefix captured, judged at the
// sampled points with the engine's bookkeeping around each verdict —
// stats, heatmap, events, the journal's crash record, and the op budget.
func (e *engine) probePlane(depth int, op workload.Op, p *CrashPlane) error {
	armAll := make([]int, maxArmedPoints)
	for i := range armAll {
		armAll[i] = i
	}
	s, err := startCrashSession(&e.cfg, p, op, armAll, e.countExec)
	if err != nil {
		return err
	}
	defer s.stop()
	e.crashStats.Probes++

	points := crashPoints(s.w, e.cfg.Crash.PointsPerOp)
	rec := journal.CrashRecord{
		Target:     p.Target,
		TargetName: p.Name,
		Points:     points,
		Writes:     s.w,
		OK:         true,
	}
	if e.jr.Enabled() {
		opRec := journal.EncodeOp(op)
		rec.Op = &opRec
	}
	var bug *checker.Discrepancy
	var bugWrite int
	for _, k := range points {
		if !e.budgetLeft() {
			break
		}
		img, err := s.image(k)
		if err != nil {
			return err
		}
		if img == nil {
			continue
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
		d, verdict := s.judge(k, img)
		e.heatmap.Record(op.String(), k, s.w, verdict)
		if e.cfg.Stream != nil {
			e.emit(stream.Event{
				Kind:    stream.KindCrashVerdict,
				Op:      op.String(),
				Target:  p.Name,
				Depth:   depth,
				Write:   k,
				Writes:  s.w,
				Verdict: verdict,
				Phase:   perf.DominantDelta(phasesBefore, e.cfg.Perf.PhaseTotals()),
			})
		}
		if d != nil {
			bug, bugWrite = d, k
			break
		}
		e.crashStats.Recovered++
		if e.eobs != nil {
			e.eobs.crashRecoveries.Inc()
		}
	}
	if err := s.rollback(); err != nil {
		return err
	}
	rec.OK = bug == nil
	e.jr.Crash(depth, rec)
	if bug != nil {
		e.report(bug, op)
		e.bug.Crash = &journal.CrashSpec{
			Target:     p.Target,
			TargetName: p.Name,
			Write:      bugWrite,
		}
	}
	return nil
}

// crashSession is one plane's crash test of one operation, shared by the
// engine and every crash replay.
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
// session rolls back to pre once, at the end: a session of K points
// costs one execution, K warm recovery mounts and one delta rollback.
//
// The session starts from the target's current state, whatever
// volatile (in-memory) state it carries: that is the state the engine
// probed from, and a replay reproduces it only by reaching it the same
// way, never by restoring an image.
//
// Post-recovery verdicts are memoized per session by a masked digest of
// the media regions that diverged from the pre-op image: crash points
// that recover to state-equivalent media (common when consecutive
// writes land in masked journal space) are judged once.
type crashSession struct {
	cfg *Config
	p   *CrashPlane
	op  workload.Op
	// arm lists the write indices the execution captured; onExec (may
	// be nil) runs after every execution of the window.
	arm    []int
	onExec func()
	// pre is the pre-op media image; b0 and b1 the pre-op and post-op
	// metadata states; w the window's write count.
	pre    []byte
	b0, b1 abstraction.State
	w      int
	imgs   map[int][]byte
	// capRegions is the window's write set, read BEFORE anything resets
	// the log: every captured image diverges from pre only inside it, so
	// it is the `extra` for delta operations against images other than
	// pre. capOK is false when the log could not provide it.
	capRegions []fault.Region
	capOK      bool
	memo       map[[32]byte]crashVerdict
}

// startCrashSession snapshots the plane, starts the touch log, hashes
// the pre-op state, runs the one execution armed at arm and hashes the
// post-op state. The caller judges points with image and judge, then
// calls rollback, and stops the session with stop on every path.
func startCrashSession(cfg *Config, p *CrashPlane, op workload.Op, arm []int, onExec func()) (*crashSession, error) {
	s := &crashSession{cfg: cfg, p: p, op: op, arm: arm, onExec: onExec,
		memo: make(map[[32]byte]crashVerdict)}
	ct := cfg.Perf.Start(perf.PhaseCheckpoint)
	pre, err := p.Snapshot()
	ct.End()
	if err != nil {
		return nil, err
	}
	s.pre = pre
	// From here until the session stops, the touch log tracks divergence
	// from pre. RestoreDelta resets it whenever media is rolled back.
	p.Injector.StartTouchLog()
	var er errno.Errno
	ht := cfg.Perf.Start(perf.PhaseHash)
	s.b0, er = p.MetaHash()
	ht.End()
	if er != errno.OK {
		s.stop()
		return nil, fmt.Errorf("hashing pre-op state: %w", er)
	}
	if s.w, err = s.execute(arm); err != nil {
		s.stop()
		return nil, err
	}
	ht = cfg.Perf.Start(perf.PhaseHash)
	s.b1, er = p.MetaHash()
	ht.End()
	if er != errno.OK {
		s.stop()
		return nil, fmt.Errorf("hashing post-op state: %w", er)
	}
	s.imgs = p.Injector.TakeCrashImages()
	if s.capRegions, s.capOK = p.Injector.Touched(); !s.capOK {
		s.capRegions = nil
	}
	return s, nil
}

// execute runs the window once with crash points armed at points.
func (s *crashSession) execute(points []int) (int, error) {
	w, err := crashWindow(s.cfg, s.p, s.op, points)
	if err == nil && s.onExec != nil {
		s.onExec()
	}
	return w, err
}

// stop ends the session's touch log.
func (s *crashSession) stop() { s.p.Injector.StopTouchLog() }

// image returns the media image captured at write k: from the armed
// execution, or — for a point it did not arm (beyond the engine's armed
// prefix) — from a dedicated capture execution from pre. Nil means the
// armed write never happened (a fault rule erred the op short of it):
// nothing to test.
func (s *crashSession) image(k int) ([]byte, error) {
	if img := s.imgs[k]; img != nil || slices.Contains(s.arm, k) {
		return img, nil
	}
	if err := s.restore(); err != nil {
		return nil, fmt.Errorf("rolling back for capture of write %d: %w", k, err)
	}
	if _, err := s.execute([]int{k}); err != nil {
		return nil, err
	}
	return s.p.Injector.TakeCrashImage(), nil
}

// rollback returns the plane to pre once, after the last point: media
// holds the last recovered crash state (or the post-op state when no
// point was judged).
func (s *crashSession) rollback() error {
	if err := s.restore(); err != nil {
		return fmt.Errorf("rolling back crash probe: %w", err)
	}
	if n := s.p.Injector.Armed(); n != 0 {
		return fmt.Errorf("crash probe leaked %d armed crash point(s)", n)
	}
	return nil
}

// restore rolls the plane's device image back to pre, attributing the
// rollback to the restore phase. Planes with a delta session reload only
// the diverged regions (the touch log plus the window's write set);
// others reload the full image.
func (s *crashSession) restore() error {
	rt := s.cfg.Perf.Start(perf.PhaseRestore)
	defer rt.End()
	if s.p.RestoreDelta != nil {
		return s.p.RestoreDelta(s.pre, s.capRegions)
	}
	return s.p.Restore(s.pre)
}

// crashVerdict memoizes the state-dependent half of one crash point's
// judgment: the fsck report and (for strict planes) the recovered
// abstract state. Keyed by the masked digest of the recovered media's
// divergence from the pre-op image, it is valid for any crash point of
// the same session that recovers to state-equivalent media.
type crashVerdict struct {
	fsckProbs []string
	state     abstraction.State
	stateErr  errno.Errno
	hasState  bool
}

// discrepancy renders the memoized verdict against one concrete crash
// point (nil when the recovery is consistent).
func (v crashVerdict) discrepancy(where string, op workload.Op, b0, b1 abstraction.State) *checker.Discrepancy {
	switch {
	case len(v.fsckProbs) > 0:
		return crashDiscrepancy(op, append([]string{where, "fsck after recovery:"}, v.fsckProbs...)...)
	case !v.hasState:
		return nil
	case v.stateErr != errno.OK:
		return crashDiscrepancy(op, where, fmt.Sprintf("hashing recovered state: %v", v.stateErr))
	case v.state != b0 && v.state != b1:
		return crashDiscrepancy(op, where,
			"recovered state matches neither the pre-op nor the post-op state",
			fmt.Sprintf("recovered %x", v.state[:8]),
			fmt.Sprintf("pre-op    %x", b0[:8]),
			fmt.Sprintf("post-op   %x", b1[:8]))
	}
	return nil
}

// crashDiscrepancy is the crash oracle's finding on op: where it
// crashed, then what recovery got wrong.
func crashDiscrepancy(op workload.Op, details ...string) *checker.Discrepancy {
	return &checker.Discrepancy{Kind: KindCrashConsistency, Op: op.String(), Details: details}
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

// judge power-cycles the plane on the crash image captured at write k
// (delta-loading only the window's write set when the session supports
// it) and judges the recovered state: recovery must succeed, fsck must
// be clean, and — for strict planes — the recovered metadata state must
// equal the pre-op (b0) or post-op (b1) state. It returns the verdict
// label (Verdict* constants) alongside any discrepancy. Before running
// the expensive checks it digests the recovered media's divergence from
// the pre-op image — the window's write set plus whatever recovery
// itself wrote — and reuses the memoized verdict of any earlier point
// that recovered to masked-identical media. Callable from ANY media
// state whose divergence from img is bounded by the window's write set
// plus the touch log (the post-op state, or a previous point's
// recovered state); returns with media == img-after-recovery.
func (s *crashSession) judge(k int, img []byte) (*checker.Discrepancy, string) {
	p, pf := s.p, s.cfg.Perf
	where := fmt.Sprintf("%s: crash after write %d/%d of %s", p.Name, k+1, s.w, s.op)
	mt := pf.Start(perf.PhaseRemount)
	var err error
	if s.capOK && p.PowerCycleDelta != nil {
		err = p.PowerCycleDelta(img, s.capRegions)
	} else {
		err = p.PowerCycle(img)
	}
	mt.End()
	if err != nil {
		return crashDiscrepancy(s.op, where, fmt.Sprintf("recovery failed: %v", err)), stream.VerdictBug
	}
	// Fast path: masked digest of everything that diverged from pre —
	// the crash image's writes plus recovery's own (journal replay).
	// Planes with no post-recovery checks at all have nothing to
	// memoize, so skip the digest reads.
	var dig [32]byte
	haveDig := false
	if p.MediaDigest != nil && (p.Strict || p.Fsck != nil) {
		ot := pf.Start(perf.PhaseOracle)
		if recovered, ok := p.Injector.Touched(); ok {
			regions := fault.CoalesceRegions(append(append([]fault.Region(nil), s.capRegions...), recovered...))
			dig, haveDig = p.MediaDigest(regions)
		}
		ot.End()
		if haveDig {
			if v, hit := s.memo[dig]; hit {
				d := v.discrepancy(where, s.op, s.b0, s.b1)
				return d, v.label(d, s.b0)
			}
		}
	}
	var v crashVerdict
	if p.Fsck != nil {
		ft := pf.Start(perf.PhaseFsck)
		v.fsckProbs = p.Fsck()
		ft.End()
	}
	if p.Strict {
		ht := pf.Start(perf.PhaseHash)
		v.state, v.stateErr = p.MetaHash()
		ht.End()
		v.hasState = true
	}
	if haveDig {
		s.memo[dig] = v
	}
	d := v.discrepancy(where, s.op, s.b0, s.b1)
	return d, v.label(d, s.b0)
}

// replayProbe crash-tests op's write window on p at the given write
// indices, from the targets' current state, and returns the first
// discrepancy (nil when every point inside the window recovers
// cleanly). It is the replays' side of the engine's probe: one crash
// session armed at exactly the points it judges, always leaving the
// target back in its pre-probe state.
func replayProbe(cfg *Config, p *CrashPlane, op workload.Op, points []int) (*checker.Discrepancy, error) {
	s, err := startCrashSession(cfg, p, op, points, nil)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	var found *checker.Discrepancy
	for _, k := range points {
		// Every point is armed: a nil image is a write the window no
		// longer reaches.
		img, err := s.image(k)
		if err != nil {
			return nil, err
		}
		if img == nil {
			continue
		}
		if d, _ := s.judge(k, img); d != nil {
			found = d
			break
		}
	}
	if err := s.rollback(); err != nil {
		return nil, err
	}
	return found, nil
}

func crashPlaneFor(cfg *Config, target int) *CrashPlane {
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
