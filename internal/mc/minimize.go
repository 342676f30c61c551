// Trail minimization by delta debugging: shrink a failing operation
// trail to a locally-minimal repro by replaying candidate subsequences
// against fresh file systems. The engine's DFS finds bugs with whatever
// prefix the search order happened to walk through first; most of those
// operations are incidental. A minimized trail is the difference between
// "here is a 9-operation log" and "create the file, then write at offset
// 4096" — the actionable repro the paper's reporting contract promises.
package mc

import (
	"fmt"

	"mcfs/internal/checker"
	"mcfs/internal/obs/journal"
	"mcfs/internal/workload"
)

// MinimizeOptions bounds a minimization.
type MinimizeOptions struct {
	// MaxReplays caps candidate replays (DefaultMaxReplays when <= 0).
	// Minimization returns the best trail found so far when the cap is
	// hit, never an error.
	MaxReplays int
	// Crash, when set, marks the trail as a crash-bug repro: the final
	// operation is the one whose write window crashes, so it is pinned —
	// ddmin shrinks only the prefix, and every candidate's final op is
	// crash-tested at this spec (VerifyCrashTrail). The minimal repro can
	// be the crash op alone.
	Crash *journal.CrashSpec
}

// DefaultMaxReplays bounds minimization work: ddmin on a trail of n ops
// needs O(n^2) replays worst-case, and each replay rebuilds fresh file
// systems.
const DefaultMaxReplays = 500

// MinimizeStats reports what a minimization did.
type MinimizeStats struct {
	// From and To are the trail lengths before and after.
	From, To int
	// Replays counts candidate replays executed (including the initial
	// reproduction check).
	Replays int
	// Minimal reports that the result is 1-minimal: removing any single
	// remaining operation stops the bug from reproducing. False only
	// when MaxReplays cut the search short.
	Minimal bool
}

// Minimize shrinks trail to a locally-minimal subsequence that still
// reproduces the wanted discrepancy (same kind; any discrepancy when
// want is nil), using the ddmin delta-debugging algorithm. Each
// candidate is replayed against a fresh Config built by factory — the
// returned cleanup func (may be nil) is called after the replay, so
// factories can recycle sessions. Minimize errors if the full trail
// does not reproduce to begin with (a repro that never reproduced
// cannot be shrunk, only questioned).
func Minimize(factory func() (Config, func(), error), trail []workload.Op,
	want *checker.Discrepancy, opts MinimizeOptions) ([]workload.Op, MinimizeStats, error) {

	maxReplays := opts.MaxReplays
	if maxReplays <= 0 {
		maxReplays = DefaultMaxReplays
	}
	stats := MinimizeStats{From: len(trail), To: len(trail)}

	// Crash-bug trails pin the final (crashing) op: ddmin works on the
	// prefix only, and the empty prefix is a legal candidate.
	body, final := trail, []workload.Op(nil)
	minBody := 2
	if opts.Crash != nil && len(trail) > 0 {
		body, final = trail[:len(trail)-1], trail[len(trail)-1:]
		minBody = 1
	}

	test := func(candidate []workload.Op) (bool, error) {
		if stats.Replays >= maxReplays {
			return false, errReplayBudget
		}
		stats.Replays++
		cfg, cleanup, err := factory()
		if err != nil {
			return false, fmt.Errorf("mc: minimize factory: %w", err)
		}
		if cleanup != nil {
			defer cleanup()
		}
		full := candidate
		if len(final) > 0 {
			full = append(append([]workload.Op(nil), candidate...), final...)
		}
		_, same, err := verify(&cfg, full, opts.Crash, want)
		if err != nil {
			return false, fmt.Errorf("mc: minimize replay: %w", err)
		}
		return same, nil
	}

	ok, err := test(body)
	if err != nil {
		return nil, stats, err
	}
	if !ok {
		return nil, stats, fmt.Errorf("mc: minimize: trail of %d ops does not reproduce the discrepancy", len(trail))
	}

	cur := append([]workload.Op(nil), body...)
	n := 2
	if n > len(cur) && len(cur) >= minBody {
		n = len(cur)
	}
	budgetHit := false
	for len(cur) >= minBody && n <= len(cur) {
		reduced := false
		chunk := (len(cur) + n - 1) / n
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			// Complement: drop cur[start:end], keep the rest.
			candidate := make([]workload.Op, 0, len(cur)-(end-start))
			candidate = append(candidate, cur[:start]...)
			candidate = append(candidate, cur[end:]...)
			ok, err := test(candidate)
			if err == errReplayBudget {
				budgetHit = true
				break
			}
			if err != nil {
				return nil, stats, err
			}
			if ok {
				cur = candidate
				// Fewer ops, same granularity target: re-split what is
				// left into n-1 chunks (ddmin's "reduce to complement").
				n--
				if n < 2 {
					n = 2
				}
				reduced = true
				break
			}
		}
		if budgetHit {
			break
		}
		if !reduced {
			if n >= len(cur) {
				// Every single-op removal was tested and failed: cur is
				// 1-minimal.
				stats.Minimal = true
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	if len(cur) < minBody {
		stats.Minimal = !budgetHit
	}
	cur = append(cur, final...)
	stats.To = len(cur)
	return cur, stats, nil
}

// errReplayBudget is the internal signal that MaxReplays was exhausted.
var errReplayBudget = fmt.Errorf("mc: minimize replay budget exhausted")
