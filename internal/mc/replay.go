// Replay: re-run what the engine ran against fresh file systems. Replay
// and VerifyTrail follow one trail; ReplayJournal follows a whole
// flight-recorder journal, verifying that every recorded observation
// (per-target errnos, abstract state hashes, crash verdicts, and the bug
// itself) reproduces. This is the engine's nondeterminism made
// checkable: the journal pins every choice the DFS made, so a divergence
// on replay means either the file systems or the checker behaved
// differently — exactly the signal a developer needs when a repro
// "stops working". Every replay runs the engine's own per-op sequence
// (trackerSet checkpoints, execute, check, the state hash) and its own
// crash session, never a copy of them.
package mc

import (
	"fmt"

	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/obs/journal"
	"mcfs/internal/workload"
)

// Replay executes a recorded trail from the targets' current (fresh)
// state, checking after every operation, and returns the first
// discrepancy (nil if the trail no longer reproduces).
func Replay(cfg Config, trail []workload.Op) (*checker.Discrepancy, error) {
	return replay(&cfg, trail, nil)
}

// VerifyTrail replays trail against cfg's fresh targets and reports
// whether it reproduces the wanted discrepancy: any discrepancy when
// want is nil, otherwise one of the same kind.
func VerifyTrail(cfg Config, trail []workload.Op, want *checker.Discrepancy) (*checker.Discrepancy, bool, error) {
	return verify(&cfg, trail, nil, want)
}

// VerifyCrashTrail is VerifyTrail for a crash-bug trail: the prefix
// executes normally, then the FINAL operation is crash-tested on the
// spec'd target at the spec'd write index. A nil spec verifies the
// trail as VerifyTrail does.
func VerifyCrashTrail(cfg Config, trail []workload.Op, spec *journal.CrashSpec, want *checker.Discrepancy) (*checker.Discrepancy, bool, error) {
	return verify(&cfg, trail, spec, want)
}

// verify is the one reproduction rule: replay the trail (crash-testing
// its final op when spec is set) and match the first discrepancy the
// replay hits against want by kind, exactly as the original run judged
// its first one.
func verify(cfg *Config, trail []workload.Op, spec *journal.CrashSpec, want *checker.Discrepancy) (*checker.Discrepancy, bool, error) {
	got, err := replay(cfg, trail, spec)
	if err != nil {
		return nil, false, err
	}
	return got, got != nil && (want == nil || got.Kind == want.Kind), nil
}

// replay runs trail exactly as the engine ran it on its way down that
// trail: the root's free-space equalization and initial hash (prepare),
// then per op a checkpoint of every target, the step (execute and
// check), and the state hash. A linear replay never backtracks, so each
// checkpoint is discarded at once; it is taken because it acts on the
// targets (a remount tracker syncs before it snapshots). With a spec,
// the final op is crash-tested on the spec'd plane at spec.Write in the
// engine's crash session instead of being stepped. A prefix discrepancy
// is returned as it is: the trail diverged before the crash point.
func replay(cfg *Config, trail []workload.Op, spec *journal.CrashSpec) (*checker.Discrepancy, error) {
	var p *CrashPlane
	if spec != nil {
		if len(trail) == 0 {
			return nil, fmt.Errorf("mc: crash replay: empty trail")
		}
		if p = crashPlaneFor(cfg, spec.Target); p == nil {
			return nil, fmt.Errorf("mc: crash replay: no crash plane for target %d (session built without crash exploration?)", spec.Target)
		}
	}
	if _, err := prepare(cfg); err != nil {
		return nil, err
	}
	ts := trackersOf(cfg)
	for i, op := range trail {
		key := uint64(i)
		err := ts.Checkpoint(key)
		ts.Discard(key)
		if err != nil {
			return nil, err
		}
		if p != nil && i == len(trail)-1 {
			d, err := replayProbe(cfg, p, op, []int{spec.Write})
			if err != nil {
				return nil, fmt.Errorf("mc: crash replay: %w", err)
			}
			return d, nil
		}
		results, err := execute(cfg, op)
		if err != nil {
			return nil, err
		}
		d, err := check(cfg, op, results)
		if err != nil {
			return nil, err
		}
		if d != nil {
			return d, nil
		}
		if _, er := cfg.Checker.StateHash(); er != errno.OK {
			return nil, fmt.Errorf("mc: hashing state: %w", er)
		}
	}
	return nil, nil
}

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
// The engine probes an op's crash windows after its checkpoint and
// before stepping it, so an op's crash records come first: the first of
// them takes the checkpoint and the op record reuses it. Replay stops at
// the first divergence, at the bug record (after verifying the bug
// reproduces), or at the end of the journal.
func ReplayJournal(cfg Config, recs []journal.Record) (ReplayReport, error) {
	rep := ReplayReport{}
	worker, ok := replayWorker(recs)
	if !ok {
		return rep, fmt.Errorf("mc: journal has no op records to replay")
	}
	rep.Worker = worker
	recs = journal.WorkerRecords(recs, worker)

	h, err := prepare(&cfg)
	if err != nil {
		return rep, err
	}
	diverged := func(seq int64, format string, args ...any) (ReplayReport, error) {
		rep.Diverged, rep.DivergedAt, rep.Reason = true, seq, fmt.Sprintf(format, args...)
		return rep, nil
	}
	// The meta record pins the initial state: diverging here means the
	// replay session was assembled with different targets or options.
	for _, r := range recs {
		if r.T == journal.TypeMeta && r.Meta != nil && r.Meta.InitState != "" {
			if got := fmt.Sprintf("%x", h[:]); got != r.Meta.InitState {
				return diverged(r.Seq, "initial state hash %s, journal recorded %s", got, r.Meta.InitState)
			}
			break
		}
	}

	ts := trackersOf(&cfg)
	var keys []uint64 // checkpoint keys, innermost last
	var nextKey uint64
	held := false // the next op's checkpoint is taken (its crash records came first)
	defer func() {
		// Abandoned checkpoints (divergence, bug, truncated journal)
		// must not leak images out of the snapshot pools.
		for _, key := range keys {
			ts.Discard(key)
		}
	}()
	checkpoint := func() error {
		if held {
			return nil
		}
		key := nextKey
		nextKey++
		if err := ts.Checkpoint(key); err != nil {
			return err
		}
		keys = append(keys, key)
		held = true
		return nil
	}

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
			if err := checkpoint(); err != nil {
				return rep, err
			}
			held = false
			results, err := execute(&cfg, op)
			if err != nil {
				return rep, err
			}
			rep.Steps++

			// Per-target errnos must match the recording.
			if len(rec.Errnos) == len(results) {
				for i, r := range results {
					if got := r.Err.String(); got != rec.Errnos[i] {
						return diverged(rec.Seq, "op %s target %d returned %s, journal recorded %s",
							op, i, got, rec.Errnos[i])
					}
				}
			}

			if rec.State == "" {
				// The bug op: the engine stopped before hashing. Verify
				// the discrepancy re-occurs with the same checks.
				d, err := check(&cfg, op, results)
				if err != nil {
					return rep, err
				}
				if d == nil {
					return diverged(rec.Seq, "op %s exposed no discrepancy, journal recorded a bug", op)
				}
				rep.Bug = d
				continue
			}

			h, er := cfg.Checker.StateHash()
			if er != errno.OK {
				return rep, fmt.Errorf("mc: hashing state: %w", er)
			}
			if got := fmt.Sprintf("%x", h[:]); got != rec.State {
				return diverged(rec.Seq, "op %s reached state %s, journal recorded %s", op, got, rec.State)
			}

		case journal.TypeBacktrack:
			if len(keys) == 0 {
				return rep, fmt.Errorf("mc: journal record %d: backtrack with no checkpoint", rec.Seq)
			}
			key := keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			if err := ts.Restore(key); err != nil {
				return rep, err
			}

		case journal.TypeCrash:
			if rec.Crash == nil {
				return rep, fmt.Errorf("mc: journal record %d: crash record without crash data", rec.Seq)
			}
			if err := checkpoint(); err != nil {
				return rep, err
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
			p := crashPlaneFor(&cfg, rec.Crash.Target)
			if p == nil {
				return rep, fmt.Errorf("mc: journal record %d: no crash plane for target %d (%s)",
					rec.Seq, rec.Crash.Target, rec.Crash.TargetName)
			}
			d, err := replayProbe(&cfg, p, op, rec.Crash.Points)
			if err != nil {
				return rep, fmt.Errorf("mc: journal record %d: %w", rec.Seq, err)
			}
			switch {
			case d == nil && !rec.Crash.OK:
				return diverged(rec.Seq, "crash probe of %s on %s recovered cleanly, journal recorded a crash bug",
					op, rec.Crash.TargetName)
			case d != nil && rec.Crash.OK:
				return diverged(rec.Seq, "crash probe of %s on %s found %q, journal recorded clean recovery",
					op, rec.Crash.TargetName, d.Kind)
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
				return diverged(rec.Seq, "journal recorded a bug, replay observed none")
			}
			if rep.Bug.Kind != rec.Bug.Kind {
				return diverged(rec.Seq, "replay discrepancy kind %q, journal recorded %q", rep.Bug.Kind, rec.Bug.Kind)
			}
			rep.BugReproduced = true
			return rep, nil
		}
	}
	return rep, nil
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
