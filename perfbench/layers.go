package main

import (
	"time"

	"mcfs/internal/obs/perf"
)

// trackerKinds lists every target kind a workload can use; a kind the
// workload does not mount reports zeros.
var trackerKinds = []string{"ext2", "ext4", "jffs2", "verifs1", "verifs2"}

// layers derives the per-layer metrics from an untraced pass u and a
// traced pass t over the same runs. Times are wall seconds per run;
// counts from the traced pass are normalised per explored op.
func (b *bench) layers(u, t *pass) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	runs := float64(len(t.runs))
	perRun := func(d time.Duration) float64 { return d.Seconds() / runs }

	gt := b.groups(t)
	wallRate := b.opsRate(u, false)
	put("trace.overhead_ratio", ratio(b.opsRate(t, false), wallRate), "ratio")

	// Wall-clock figures of the untraced pass: what a user waits for,
	// host CPU steal included.
	tu := b.groups(u).total()
	put("wall.ops_per_s", wallRate, "1/s")
	put("wall.states_per_s", ratio(wallRate*tu.unique, tu.ops), "1/s")
	put("wall.time_to_verdict_p50_ms", b.verdict(u, false), "ms")
	put("wall.cpu_per_wall", ratio(tu.cpu, tu.search), "ratio")
	// The host-speed probe of the untraced pass, and the unscaled CPU
	// rate that the end-to-end ops_per_cpu_s scales by its slowdown.
	put("host.probe_ms", quantile(b.probe.cpu, 0.5)*1e3, "ms")
	put("host.slowdown", b.probe.slowdown(), "ratio")
	put("cpu.ops_per_s", b.opsRate(u, true), "1/s")

	// Tracker layer, by target kind, from the timing decorator.
	for _, kind := range trackerKinds {
		st := t.tr.trackers[kind]
		if st == nil {
			st = &trackerStats{}
		}
		p := "tracker." + kind + "."
		put(p+"checkpoint_s", perRun(st.checkpoint.total), "s")
		put(p+"restore_s", perRun(st.restore.total), "s")
		put(p+"preop_s", perRun(st.preop.total), "s")
		put(p+"postop_s", perRun(st.postop.total), "s")
		put(p+"checkpoint_calls", float64(len(st.checkpoint.durs))/runs, "count")
		put(p+"errors", float64(st.errors), "count")
		put(p+"checkpoint_p50_us", st.checkpoint.micros(0.5), "us")
		put(p+"checkpoint_p99_us", st.checkpoint.micros(0.99), "us")
		put(p+"restore_p50_us", st.restore.micros(0.5), "us")
		put(p+"restore_p99_us", st.restore.micros(0.99), "us")
	}

	// Engine phases, from the profiler on a wall clock.
	var phaseSum time.Duration
	for i, ph := range perf.Phases() {
		phaseSum += t.phases[i]
		// No flight recorder is attached, so the journal phase is idle.
		if ph != perf.PhaseJournal {
			put("phase."+ph+"_s", perRun(t.phases[i]), "s")
		}
	}
	var search time.Duration
	for _, r := range t.runs {
		search += r.search
	}
	put("mc.self_s", perRun(search-phaseSum), "s")

	// Self time per span layer.
	self := t.tr.rec.selfTimes()
	for _, l := range spanLayers {
		put("span.self."+l+"_s", perRun(self[l]), "s")
	}

	// Engine counts, from the untraced pass (identical in the traced one).
	var c struct{ ops, unique, revisits, probes, points, recovered, faults, memPeak int64 }
	for _, r := range u.runs {
		c.ops += r.counts.ops
		c.unique += r.unique
		c.revisits += r.revisits
		c.probes += r.crash.Probes
		c.points += r.crash.PointsExplored
		c.recovered += r.crash.Recovered
		c.faults += r.crash.ErrorsInjected + r.crash.TornInjected + r.crash.CorruptInjected
		c.memPeak = max(c.memPeak, r.memPeak)
	}
	n := float64(len(u.runs))
	ops := float64(c.ops)
	put("mc.ops", ops/n, "count")
	put("mc.unique_states", float64(c.unique)/n, "count")
	put("mc.revisits", float64(c.revisits)/n, "count")
	put("mc.novel_ratio", ratio(float64(c.unique), ops), "ratio")
	put("mc.crash.probes", float64(c.probes)/n, "count")
	put("mc.crash.points", float64(c.points)/n, "count")
	put("mc.crash.points_per_probe", ratio(float64(c.points), float64(c.probes)), "ratio")
	put("mc.crash.recovered_ratio", ratio(float64(c.recovered), float64(c.points)), "ratio")
	put("mc.crash.faults_injected", float64(c.faults)/n, "count")
	put("mc.crash.points_per_s", ratio(wallRate*float64(c.points), ops), "1/s")

	// Kernel, FUSE and block-device counts from the hub, per op.
	tops := gt.total().ops
	hits, misses := t.tr.dcache()
	put("kernel.syscalls_per_op", ratio(float64(t.syscalls), tops), "ratio")
	put("kernel.remounts_per_op", ratio(float64(t.remounts), tops), "ratio")
	put("kernel.dcache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	put("fuse.requests_per_op", ratio(float64(t.fuseReqs), tops), "ratio")
	put("blockdev.reads_per_op", ratio(float64(t.devReads), tops), "ratio")
	put("blockdev.writes_per_op", ratio(float64(t.devWrites), tops), "ratio")
	put("blockdev.erases_per_op", ratio(float64(t.devErases), tops), "ratio")

	// Memory model and Go runtime, from the untraced pass.
	put("memmodel.peak_bytes", float64(c.memPeak), "B")
	put("gc.cycles", float64(u.gcs)/n, "count")
	put("gc.cpu_fraction", ratio(u.gcCPU, u.cpu), "ratio")
	put("gc.allocs_per_op", ratio(float64(u.mallocs), ops), "ratio")

	b.huntLayer(u, put)
	return m
}

// huntLayer reports the bug-hunt phases and failure classes; zeros on
// the explore workloads.
func (b *bench) huntLayer(u *pass, put func(string, float64, string)) {
	var setup, search, verify, toBug, trail, ttb []float64
	var unreproduced, engineErrors, notFound, failed int
	runs, distinct := u.runs, b.distinct(u)
	if !b.hunt {
		runs, distinct = nil, nil
	}
	for _, r := range runs {
		setup = append(setup, r.setup.Seconds()*1e3)
		search = append(search, r.search.Seconds()*1e3)
		if r.bug {
			verify = append(verify, r.replay.Seconds()*1e3)
			toBug = append(toBug, float64(r.opsToBug))
			trail = append(trail, float64(r.trail))
			ttb = append(ttb, (r.setup+r.search).Seconds()*1e3)
		}
	}
	// Failures count once per distinct hunt; repeats end alike.
	for _, r := range distinct {
		switch r.class {
		case failUnreproduced:
			unreproduced++
		case failNotFound:
			notFound++
		case failEngine:
			engineErrors++
		}
		if r.failure != "" {
			failed++
		}
	}
	put("hunt.setup_ms_p50", quantile(setup, 0.5), "ms")
	put("hunt.search_ms_p50", quantile(search, 0.5), "ms")
	put("hunt.verify_ms_p50", quantile(verify, 0.5), "ms")
	put("hunt.ops_to_bug_p50", quantile(toBug, 0.5), "count")
	put("hunt.trail_len_p50", quantile(trail, 0.5), "count")
	put("hunt.time_to_bug_p95_ms", quantile(ttb, 0.95), "ms")
	put("hunt.bugs_reported", float64(len(ttb)), "count")
	put("hunt.unreproduced", float64(unreproduced), "count")
	put("hunt.engine_errors", float64(engineErrors), "count")
	put("hunt.not_found", float64(notFound), "count")
	put("hunt.failed_share", ratio(float64(failed), float64(len(distinct))), "ratio")
}
