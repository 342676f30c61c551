#!/bin/sh
# check.sh — the repo's verification gate, runnable locally or in CI.
#
# Encodes ROADMAP.md's tier-1 verify plus the observability gate:
#   1. go build ./...                               (everything compiles)
#   2. go test ./...                                (tier-1 test suite)
#   3. go vet ./...                                 (static checks)
#   4. go test -race internal/mc + internal/obs     (swarm + hub + event
#         (includes internal/obs/stream)             stream under the
#                                                    race detector)
#   5. bench smoke: every benchmark in mc,          (catches bit-rotted
#      blockdev, tracker and jffs2sim runs once      benchmarks; includes
#                                                    the nil-obs and
#                                                    swarm shared-vs-
#                                                    independent pairs and
#                                                    the flash/remount
#                                                    image round trips)
#   5b. FuzzMount for 10s: arbitrary flash images   (the JFFS2 mount scan
#       must mount deterministically, never panic,   reads untrusted
#       never write the flash                        media in place)
#   6. replay-determinism smoke: a seeded-bug run   (flight recorder end
#      writes a repro bundle, mcfs replay must       to end: journal ->
#      reproduce it, mcfs shrink must minimize it;   bundle -> replay ->
#      the same round trip for a -majority run       shrink)
#   7. go test -race ./internal/fault/...           (fault plane and the
#         ./internal/fs/extfs/...                    parallel fsck under
#                                                    the race detector)
#   8. crash-exploration smoke: the seeded ext4     (fault injection end
#      journal-ordering bug is found only under      to end: crash points
#      -crash, its bundle replays and shrinks, the   -> oracle -> verdict
#      -crash-heatmap artifact pinpoints it with a   heatmap -> bundle ->
#      "bug" cell, the same round trip at -seed 1    replay -> shrink)
#      -depth 2 passes too, and the same run
#      without -crash stays clean
#   9. mcfslint ./...                                (domain static
#      plus: -list and -json must name the            analysis: checkpoint
#      full nine-analyzer suite, so a registry        leaks, map-order
#      regression can't silently drop the             nondeterminism, wall
#      flow-sensitive analyzers (lockorder,           time, dropped errnos,
#      guardedby, atomicplain, lockbalance)           nil-obs safety, lock
#                                                    order/balance, guarded
#                                                    fields, atomic/plain
#                                                    mixing)
#  10. bench regression gate: fsbench -json at a     (speed claims are
#      smoke budget, diffed against the committed     tracked, not
#      BENCH_mc.json at a loose tolerance             asserted; a rate
#                                                    drop fails the gate)
#  11. bounded-memory smoke: a run under a tiny      (the memory governor
#      -mem-budget must complete (exit 0) at          degrades fidelity
#      reduced visited fidelity instead of dying      instead of dying
#      out of memory                                  mid-run)
#
# Usage: scripts/check.sh   (from the repo root or anywhere inside it)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./internal/mc/... ./internal/obs/... (incl. internal/obs/stream)"
go test -race ./internal/mc/... ./internal/obs/...

echo "==> bench smoke (one iteration per benchmark)"
go test -bench . -benchtime 1x -run '^$' ./internal/mc/... \
	./internal/blockdev/... ./internal/tracker/... ./internal/fs/jffs2sim/...

echo "==> fuzz smoke (FuzzMount, 10s)"
# Minimizing an 8 KiB flash image can outlast the whole budget; cap it
# so the time goes to new inputs.
go test -run '^$' -fuzz '^FuzzMount$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/jffs2sim

echo "==> replay-determinism smoke (run -> bundle -> replay -> shrink)"
# go run remaps the child's exit code, so build the real binary.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bundle="$work/bundle"
go build -o "$work/mcfs" ./cmd/mcfs
rc=0
"$work/mcfs" -fs verifs1 -fs verifs2 -bug write-hole-no-zero \
	-depth 3 -max-ops 5000 -bundle "$bundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded-bug run exited $rc, want 3 (bug found)"; exit 1; }
"$work/mcfs" replay "$bundle" >/dev/null || {
	echo "FAIL: bundle did not reproduce deterministically"; exit 1; }
"$work/mcfs" shrink "$bundle" >/dev/null || {
	echo "FAIL: bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$bundle" >/dev/null || {
	echo "FAIL: minimized bundle did not reproduce"; exit 1; }
# A majority-vote bug must replay as a majority-vote bug: replay and
# shrink judge the trail with the checks the run used.
majbundle="$work/majbundle"
rc=0
"$work/mcfs" -fs verifs1 -fs verifs2 -fs verifs2 -bug write-hole-no-zero \
	-majority -depth 3 -max-ops 5000 -bundle "$majbundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded -majority run exited $rc, want 3 (bug found)"; exit 1; }
"$work/mcfs" replay "$majbundle" >/dev/null || {
	echo "FAIL: majority-vote bundle did not reproduce"; exit 1; }
"$work/mcfs" shrink "$majbundle" >/dev/null || {
	echo "FAIL: majority-vote bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$majbundle" >/dev/null || {
	echo "FAIL: minimized majority-vote bundle did not reproduce"; exit 1; }

echo "==> go test -race ./internal/fault/... ./internal/fs/extfs/..."
go test -race ./internal/fault/... ./internal/fs/extfs/...

echo "==> crash-exploration smoke (-crash -> heatmap -> bundle -> replay -> shrink)"
crashbundle="$work/crashbundle"
heatmap="$work/heatmap.json"
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -bug journal-commit-first -crash \
	-depth 1 -max-ops 5000 -crash-heatmap "$heatmap" \
	-bundle "$crashbundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded crash-bug run exited $rc, want 3 (bug found)"; exit 1; }
# Zero counts are omitted from heatmap cells, so a literal "bug" key
# appears exactly when some crash point was judged a bug.
grep -q '"bug"' "$heatmap" || {
	echo "FAIL: crash heatmap has no bug cell for the seeded journal bug"; exit 1; }
"$work/mcfs" replay "$crashbundle" >/dev/null || {
	echo "FAIL: crash bundle did not reproduce deterministically"; exit 1; }
"$work/mcfs" shrink "$crashbundle" >/dev/null || {
	echo "FAIL: crash bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$crashbundle" >/dev/null || {
	echo "FAIL: minimized crash bundle did not reproduce"; exit 1; }
# A shuffled search order (any seed but 0) reaches the crashing op after
# other ops were explored and backtracked: replay must still run the
# engine's own checkpoint -> probe sequence and re-find the bug, both
# from the trail and from the bundle's journal.
seedbundle="$work/crashbundle-seed1"
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -bug journal-commit-first -crash \
	-seed 1 -depth 2 -max-ops 5000 -bundle "$seedbundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded crash-bug run (-seed 1) exited $rc, want 3 (bug found)"; exit 1; }
"$work/mcfs" replay "$seedbundle" >/dev/null || {
	echo "FAIL: -seed 1 crash bundle did not reproduce deterministically"; exit 1; }
"$work/mcfs" shrink "$seedbundle" >/dev/null || {
	echo "FAIL: -seed 1 crash bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$seedbundle" >/dev/null || {
	echo "FAIL: minimized -seed 1 crash bundle did not reproduce"; exit 1; }
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -bug journal-commit-first \
	-depth 1 -max-ops 5000 >/dev/null || rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: without -crash the seeded crash bug must stay invisible (exited $rc)"; exit 1; }

echo "==> mcfslint ./... (domain static analysis)"
go build -o "$work/mcfslint" ./cmd/mcfslint
# The registered suite must stay complete: -list and the -json envelope
# both name every analyzer, so dropping one from Analyzers() fails here
# even while the module itself is finding-free.
for a in checkpointleak maporder walltime errnodrop nilobs \
		lockorder guardedby atomicplain lockbalance; do
	"$work/mcfslint" -list | grep -q "^$a " || {
		echo "FAIL: mcfslint -list does not register analyzer '$a'"; exit 1; }
done
"$work/mcfslint" -json ./... >"$work/lint.json" || {
	echo "FAIL: mcfslint reported findings:"; cat "$work/lint.json"; exit 1; }
for a in checkpointleak maporder walltime errnodrop nilobs \
		lockorder guardedby atomicplain lockbalance; do
	grep -q "\"$a\"" "$work/lint.json" || {
		echo "FAIL: mcfslint -json envelope does not name analyzer '$a'"; exit 1; }
done

echo "==> bench regression gate (fsbench -json vs committed BENCH_mc.json)"
# Smoke budget (150 ops/scenario) against the committed 400-op point:
# virtual-clock rates are nearly budget-independent, so a loose 50%
# tolerance catches real slowdowns without flaking on budget skew.
go build -o "$work/fsbench" ./cmd/fsbench
"$work/fsbench" -json -budget 150 -o "$work/bench_smoke.json"
"$work/fsbench" -compare BENCH_mc.json -with "$work/bench_smoke.json" -tolerance 0.5 || {
	echo "FAIL: benchmark regression against committed BENCH_mc.json"; exit 1; }

echo "==> bounded-memory smoke (tiny -mem-budget degrades instead of dying)"
# A 1 MiB budget cannot hold the ext pair's 256 KiB device images at
# exact fidelity: the governor must downgrade the visited table and the
# run must still complete cleanly (exit 0), reporting the degraded
# fidelity and never the out-of-memory failure.
budgetout="$work/budget.out"
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -depth 3 -max-ops 2000 \
	-mem-budget 1M >"$budgetout" 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { cat "$budgetout"
	echo "FAIL: budgeted run exited $rc, want 0 (graceful degradation)"; exit 1; }
grep -q 'visited fidelity: *\(compact\|bitstate\)' "$budgetout" || { cat "$budgetout"
	echo "FAIL: budgeted run did not report degraded visited fidelity"; exit 1; }
if grep -qi 'out of memory' "$budgetout"; then cat "$budgetout"
	echo "FAIL: budgeted run still hit the OOM path"; exit 1; fi

echo "OK: all checks passed"
