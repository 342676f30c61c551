// Journal replay: re-execute a flight-recorder journal deterministically
// against fresh file systems, verifying that every recorded observation
// (per-target errnos, abstract state hashes, and the bug itself)
// reproduces. This is the engine's nondeterminism made checkable: the
// journal pins every choice the DFS made, so a divergence on replay
// means either the file systems or the checker behaved differently —
// exactly the signal a developer needs when a repro "stops working".
package mc

import (
	"fmt"

	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/obs/journal"
	"mcfs/internal/workload"
)

// ReplayReport summarizes one journal replay.
type ReplayReport struct {
	// Worker is the journal worker id that was replayed.
	Worker int
	// Steps counts the op records re-executed and verified.
	Steps int
	// Diverged reports that a recorded observation did not reproduce;
	// DivergedAt is the sequence number of the diverging record and
	// Reason describes the mismatch.
	Diverged   bool
	DivergedAt int64
	Reason     string
	// BugReproduced reports that the journal's bug record was reached
	// and the same discrepancy kind re-occurred; Bug is the discrepancy
	// the replay observed.
	BugReproduced bool
	Bug           *checker.Discrepancy
}

// ReplayJournal re-executes one worker's records from a flight-recorder
// journal against cfg's fresh targets. The worker defaults to the one
// that recorded a bug (the first op-record worker otherwise). Each op
// record is re-executed inside the same checkpoint/restore envelope the
// engine used — checkpoint, execute, verify, and a restore for every
// backtrack record — so the concrete state evolves exactly as recorded.
// Replay stops at the first divergence, at the bug record (after
// verifying the bug reproduces), or at the end of the journal.
func ReplayJournal(cfg Config, recs []journal.Record) (ReplayReport, error) {
	rep := ReplayReport{}
	worker, ok := replayWorker(recs)
	if !ok {
		return rep, fmt.Errorf("mc: journal has no op records to replay")
	}
	rep.Worker = worker
	recs = journal.WorkerRecords(recs, worker)

	if cfg.EqualizeFreeSpace {
		if er := cfg.Checker.EqualizeFreeSpace(); er != errno.OK {
			return rep, fmt.Errorf("mc: replay equalizing free space: %w", er)
		}
	}
	// The meta record pins the initial state: diverging here means the
	// replay session was assembled with different targets or options.
	for _, r := range recs {
		if r.T == journal.TypeMeta && r.Meta != nil && r.Meta.InitState != "" {
			h, er := cfg.Checker.StateHash()
			if er != errno.OK {
				return rep, fmt.Errorf("mc: replay hashing initial state: %w", er)
			}
			if got := fmt.Sprintf("%x", h[:]); got != r.Meta.InitState {
				rep.Diverged = true
				rep.DivergedAt = r.Seq
				rep.Reason = fmt.Sprintf("initial state hash %s, journal recorded %s", got, r.Meta.InitState)
				return rep, nil
			}
			break
		}
	}

	targets := cfg.Checker.Targets()
	var keys []uint64 // checkpoint keys, innermost last
	var nextKey uint64
	defer func() {
		// Abandoned checkpoints (divergence, bug, truncated journal)
		// must not leak images out of the snapshot pools.
		for _, key := range keys {
			for _, t := range cfg.Trackers {
				t.Discard(key)
			}
		}
	}()

	for _, rec := range recs {
		switch rec.T {
		case journal.TypeOp:
			if rec.Op == nil {
				return rep, fmt.Errorf("mc: journal record %d: op record without op", rec.Seq)
			}
			op, err := rec.Op.Decode()
			if err != nil {
				return rep, fmt.Errorf("mc: journal record %d: %w", rec.Seq, err)
			}
			key := nextKey
			nextKey++
			for i, t := range cfg.Trackers {
				if err := t.Checkpoint(key); err != nil {
					for _, prev := range cfg.Trackers[:i] {
						prev.Discard(key)
					}
					return rep, fmt.Errorf("mc: replay checkpoint %s: %w", t.Name(), err)
				}
			}
			keys = append(keys, key)

			for _, t := range cfg.Trackers {
				if err := t.PreOp(); err != nil {
					return rep, fmt.Errorf("mc: replay pre-op %s: %w", t.Name(), err)
				}
			}
			results := make([]checker.OpResult, len(targets))
			for i, tgt := range targets {
				results[i] = workload.Execute(cfg.Kernel, tgt.MountPoint, op)
			}
			for _, t := range cfg.Trackers {
				if err := t.PostOp(); err != nil {
					return rep, fmt.Errorf("mc: replay post-op %s: %w", t.Name(), err)
				}
			}
			rep.Steps++

			// Per-target errnos must match the recording.
			if len(rec.Errnos) == len(results) {
				for i, r := range results {
					if got := r.Err.String(); got != rec.Errnos[i] {
						rep.Diverged = true
						rep.DivergedAt = rec.Seq
						rep.Reason = fmt.Sprintf("op %s target %d returned %s, journal recorded %s",
							op, i, got, rec.Errnos[i])
						return rep, nil
					}
				}
			}

			if rec.State == "" {
				// The bug op: the engine stopped before hashing. Verify
				// the discrepancy re-occurs with the same checks.
				d, er := check(&cfg, op, results)
				if er != errno.OK {
					return rep, fmt.Errorf("mc: replay state check: %w", er)
				}
				if d == nil {
					rep.Diverged = true
					rep.DivergedAt = rec.Seq
					rep.Reason = fmt.Sprintf("op %s exposed no discrepancy, journal recorded a bug", op)
					return rep, nil
				}
				rep.Bug = d
				continue
			}

			h, er := cfg.Checker.StateHash()
			if er != errno.OK {
				return rep, fmt.Errorf("mc: replay hashing state: %w", er)
			}
			if got := fmt.Sprintf("%x", h[:]); got != rec.State {
				rep.Diverged = true
				rep.DivergedAt = rec.Seq
				rep.Reason = fmt.Sprintf("op %s reached state %s, journal recorded %s", op, got, rec.State)
				return rep, nil
			}

		case journal.TypeBacktrack:
			if len(keys) == 0 {
				return rep, fmt.Errorf("mc: journal record %d: backtrack with no checkpoint", rec.Seq)
			}
			key := keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			for i, t := range cfg.Trackers {
				if err := t.Restore(key); err != nil {
					for _, rest := range cfg.Trackers[i:] {
						rest.Discard(key)
					}
					return rep, fmt.Errorf("mc: replay restore %s: %w", t.Name(), err)
				}
			}

		case journal.TypeCrash:
			if rec.Crash == nil {
				return rep, fmt.Errorf("mc: journal record %d: crash record without crash data", rec.Seq)
			}
			if cfg.Crash == nil || rec.Crash.Op == nil {
				// The replay session was built without crash exploration
				// (or the recording ran without an op journal): the probe
				// cannot be re-run, so its verdict is taken on trust.
				continue
			}
			op, err := rec.Crash.Op.Decode()
			if err != nil {
				return rep, fmt.Errorf("mc: journal record %d: %w", rec.Seq, err)
			}
			d, err := replayCrashRecord(cfg, op, rec.Crash)
			if err != nil {
				return rep, fmt.Errorf("mc: journal record %d: %w", rec.Seq, err)
			}
			if okNow := d == nil; okNow != rec.Crash.OK {
				rep.Diverged = true
				rep.DivergedAt = rec.Seq
				if okNow {
					rep.Reason = fmt.Sprintf("crash probe of %s on %s recovered cleanly, journal recorded a crash bug",
						op, rec.Crash.TargetName)
				} else {
					rep.Reason = fmt.Sprintf("crash probe of %s on %s found %q, journal recorded clean recovery",
						op, rec.Crash.TargetName, d.Kind)
				}
				return rep, nil
			}
			if d != nil {
				// The recorded crash bug re-occurred; the bug record that
				// follows verifies the kind and closes the replay.
				rep.Bug = d
			}

		case journal.TypeBug:
			if rec.Bug == nil {
				return rep, fmt.Errorf("mc: journal record %d: bug record without bug", rec.Seq)
			}
			if rep.Bug == nil {
				rep.Diverged = true
				rep.DivergedAt = rec.Seq
				rep.Reason = "journal recorded a bug, replay observed none"
				return rep, nil
			}
			if rep.Bug.Kind != rec.Bug.Kind {
				rep.Diverged = true
				rep.DivergedAt = rec.Seq
				rep.Reason = fmt.Sprintf("replay discrepancy kind %q, journal recorded %q",
					rep.Bug.Kind, rec.Bug.Kind)
				return rep, nil
			}
			rep.BugReproduced = true
			return rep, nil
		}
	}
	return rep, nil
}

// replayCrashRecord re-runs a journaled crash probe at the targets'
// current state: measure op's write window on the recorded plane, roll
// back, and crash-test every recorded point that still falls inside the
// window. Returns the first discrepancy (nil when every point recovers
// cleanly), always leaving the target in its pre-probe state.
func replayCrashRecord(cfg Config, op workload.Op, rec *journal.CrashRecord) (*checker.Discrepancy, error) {
	p := crashPlaneFor(cfg, rec.Target)
	if p == nil {
		return nil, fmt.Errorf("no crash plane for target %d (%s)", rec.Target, rec.TargetName)
	}
	pre, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	b0, er := p.MetaHash()
	if er != errno.OK {
		return nil, fmt.Errorf("hashing pre-op state: %w", er)
	}
	w, err := crashWindow(&cfg, p, op, nil)
	if err != nil {
		return nil, err
	}
	b1, er := p.MetaHash()
	if er != errno.OK {
		return nil, fmt.Errorf("hashing post-op state: %w", er)
	}
	if err := p.Restore(pre); err != nil {
		return nil, fmt.Errorf("rolling back measurement run: %w", err)
	}
	for _, k := range rec.Points {
		if k >= w {
			continue
		}
		if _, err := crashWindow(&cfg, p, op, []int{k}); err != nil {
			return nil, err
		}
		img := p.Injector.TakeCrashImage()
		if img == nil {
			if err := p.Restore(pre); err != nil {
				return nil, fmt.Errorf("rolling back crash run: %w", err)
			}
			continue
		}
		d := crashOracle(cfg.Perf, p, op, k, w, img, b0, b1)
		if err := p.Restore(pre); err != nil {
			return nil, fmt.Errorf("rolling back crash run: %w", err)
		}
		if d != nil {
			return d, nil
		}
	}
	return nil, nil
}

// replayWorker picks the journal worker to replay: the first to record
// a bug, else the first to record an op.
func replayWorker(recs []journal.Record) (int, bool) {
	if b, w := journal.FirstBug(recs); b != nil {
		return w, true
	}
	for _, r := range recs {
		if r.T == journal.TypeOp {
			return r.W, true
		}
	}
	return 0, false
}
