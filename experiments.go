package mcfs

import (
	"fmt"
	"time"

	"mcfs/internal/memmodel"
)

// This file regenerates the paper's evaluation (§6): Figure 2's
// model-checking speed comparison, the in-text remount ablation, Figure
// 3's two-week VeriFS1 run, and the five-day soak projection. Absolute
// numbers come from the virtual clock's calibrated cost model, so the
// point of comparison with the paper is the *shape*: which configuration
// wins and by roughly what factor.

// Figure2Row is one bar of Figure 2.
type Figure2Row struct {
	// Label names the configuration, e.g. "Ext2 vs Ext4 (HDD)".
	Label string
	// OpsPerSec is the model-checking speed in operations per virtual
	// second.
	OpsPerSec float64
	// Ops and UniqueStates describe the run that produced the rate.
	Ops          int64
	UniqueStates int64
	// SwapBytes is the memory model's swap usage at the end of the run.
	SwapBytes int64
}

// Figure2Budget is the per-row operation budget used by RunFigure2.
const Figure2Budget = 600

// figure2RAMBudget scales the paper's 64 GB RAM so the swap crossover
// happens at benchmark scale: XFS concrete states (16 MiB devices) must
// overflow RAM within Figure2Budget unique states while ext states
// (256 KiB devices) do not — the same relative position as the paper's
// run, where Ext4-vs-XFS consumed 105 GB of swap and Ext2-vs-Ext4 stayed
// in RAM.
const figure2RAMBudget = 1 << 30

func figure2Memory() *memmodel.Config {
	cfg := memmodel.DefaultConfig()
	cfg.RAMBytes = figure2RAMBudget
	cfg.SwapBytes = 0 // unlimited, like overcommitted swap
	return &cfg
}

// figure2Specs enumerates the Figure 2 configurations in presentation
// order.
func figure2Specs() []struct {
	Label   string
	Targets []TargetSpec
} {
	return []struct {
		Label   string
		Targets []TargetSpec
	}{
		{"Ext2 vs Ext4", []TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}},
		{"Ext2 vs Ext4 (HDD)", []TargetSpec{{Kind: "ext2", Backing: BackingHDD}, {Kind: "ext4", Backing: BackingHDD}}},
		{"Ext2 vs Ext4 (SSD)", []TargetSpec{{Kind: "ext2", Backing: BackingSSD}, {Kind: "ext4", Backing: BackingSSD}}},
		{"Ext4 vs XFS", []TargetSpec{{Kind: "ext4"}, {Kind: "xfs"}}},
		{"Ext4 vs JFFS2", []TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}}},
		{"VeriFS1 vs VeriFS2", []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}}},
	}
}

// RunFigure2Row measures one Figure 2 configuration.
func RunFigure2Row(label string, targets []TargetSpec, budget int64) (Figure2Row, error) {
	s, err := NewSession(Options{
		Targets:  targets,
		MaxDepth: 4,
		MaxOps:   budget,
		Memory:   figure2Memory(),
	})
	if err != nil {
		return Figure2Row{}, fmt.Errorf("mcfs: figure 2 row %q: %w", label, err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		return Figure2Row{}, fmt.Errorf("mcfs: figure 2 row %q: %w", label, res.Err)
	}
	if res.Bug != nil {
		return Figure2Row{}, fmt.Errorf("mcfs: figure 2 row %q found an unexpected bug: %v", label, res.Bug.Discrepancy)
	}
	return Figure2Row{
		Label:        label,
		OpsPerSec:    res.Rate,
		Ops:          res.Ops,
		UniqueStates: res.UniqueStates,
		SwapBytes:    s.MemoryStats().SwapBytes,
	}, nil
}

// RunFigure2 regenerates all Figure 2 rows.
func RunFigure2(budget int64) ([]Figure2Row, error) {
	if budget <= 0 {
		budget = Figure2Budget
	}
	var rows []Figure2Row
	for _, spec := range figure2Specs() {
		row, err := RunFigure2Row(spec.Label, spec.Targets, budget)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow is one row of the §6 remount ablation: the same
// configuration with and without per-operation remounts.
type AblationRow struct {
	Label           string
	WithRemounts    float64 // ops/s
	WithoutRemounts float64 // ops/s
	SpeedupPercent  float64 // (without-with)/with * 100
}

// RunRemountAblation regenerates the §6 in-text numbers: Ext2 vs Ext4 was
// 38% faster without inter-operation remounts, Ext4 vs XFS 70% faster.
func RunRemountAblation(budget int64) ([]AblationRow, error) {
	if budget <= 0 {
		budget = Figure2Budget
	}
	configs := []struct {
		label   string
		targets func(disableRemount bool) []TargetSpec
	}{
		{"Ext2 vs Ext4", func(d bool) []TargetSpec {
			return []TargetSpec{
				{Kind: "ext2", DisablePerOpRemount: d},
				{Kind: "ext4", DisablePerOpRemount: d},
			}
		}},
		{"Ext4 vs XFS", func(d bool) []TargetSpec {
			return []TargetSpec{
				{Kind: "ext4", DisablePerOpRemount: d},
				{Kind: "xfs", DisablePerOpRemount: d},
			}
		}},
	}
	var rows []AblationRow
	for _, c := range configs {
		with, err := RunFigure2Row(c.label, c.targets(false), budget)
		if err != nil {
			return rows, err
		}
		without, err := RunFigure2Row(c.label, c.targets(true), budget)
		if err != nil {
			return rows, err
		}
		rows = append(rows, AblationRow{
			Label:           c.label,
			WithRemounts:    with.OpsPerSec,
			WithoutRemounts: without.OpsPerSec,
			SpeedupPercent:  (without.OpsPerSec - with.OpsPerSec) / with.OpsPerSec * 100,
		})
	}
	return rows, nil
}

// VMSnapshotRate measures exploration speed with VM-level snapshotting
// (§5): LightVM-class checkpoint/restore latencies cap the rate at the
// paper's 20-30 ops/s.
func VMSnapshotRate(budget int64) (float64, error) {
	if budget <= 0 {
		budget = 300
	}
	s, err := NewSession(Options{
		Targets: []TargetSpec{
			{Kind: "verifs1", VMSnapshot: true},
			{Kind: "verifs2", VMSnapshot: true},
		},
		MaxDepth: 4,
		MaxOps:   budget,
	})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		return 0, res.Err
	}
	return res.Rate, nil
}

// Figure3Point is one sample of the two-week run: throughput and swap
// usage at a given day.
type Figure3Point struct {
	Day       float64
	OpsPerSec float64
	SwapGB    float64
}

// Figure3Config parameterizes the long-run simulation.
type Figure3Config struct {
	// Days is the simulated duration (the paper ran 14 days).
	Days float64
	// BasePerOp is the cost of one explored operation when every state
	// fits in RAM. When zero it is measured by running a short real
	// exploration of the VeriFS1 configuration.
	BasePerOp time.Duration
	// StateBytes is the size of one concrete state (measured when zero).
	StateBytes int64
	// Memory is the machine model; nil means the paper's VM (64 GB RAM,
	// 128 GB swap).
	Memory *memmodel.Config
	// SaturationStates is the number of unique states at which the
	// bounded state space is effectively exhausted and almost every
	// operation revisits a known state. Revisits of recently-touched
	// states hit RAM, producing the paper's day-13-14 rebound.
	SaturationStates int64
	// Progress, when non-nil, receives every simulated point as it is
	// computed, letting callers stream the multi-day series live.
	Progress func(Figure3Point)
	// Observers are threaded into the calibration exploration: Journal
	// and Stream record every worker in swarm mode, Obs and Perf the
	// first worker only (they rebase onto one session's clock). Obs also
	// tracks the simulated series as gauges ("figure3.day" in hours,
	// "figure3.ops_per_sec", "figure3.swap_gb").
	Observers
	// CalibrationWorkers, when > 1, calibrates BasePerOp with a
	// coordinated swarm of diversified workers instead of one run,
	// averaging the per-operation cost over every worker's exploration.
	CalibrationWorkers int
	// ShareVisited makes the calibration swarm share one visited table
	// (workers skip states their peers already expanded).
	ShareVisited bool
	// Crash calibrates with crash-consistency checking enabled. Crash
	// probing needs a crash plane (snapshotable media), which the
	// FUSE-backed VeriFS pair does not expose, so the crash calibration
	// runs the ext2-vs-ext4 pair instead — the configuration whose fsck
	// and power-cycle costs the profiler is there to surface.
	Crash bool
	// Visited selects the calibration run's visited-table backend
	// ("exact", "compact", "bitstate" — see Options.Visited); the
	// multi-day simulation itself is analytic and unaffected.
	Visited string
	// BitstateBytes sizes the bitstate Bloom array (see
	// Options.BitstateBytes).
	BitstateBytes int64
	// MemBudget arms the calibration run's memory governor (see
	// Options.MemBudget).
	MemBudget int64
}

// measureBasePerOp runs a short real exploration to extract the base
// per-operation cost and concrete-state size for Figure 3 — the VeriFS
// pair normally, the crash-plane-capable ext pair in crash mode. With
// workers > 1 the measurement is a coordinated swarm and the per-op
// cost averages over every worker's (virtual) exploration time.
func measureBasePerOp(cfg Figure3Config) (time.Duration, int64, error) {
	cal := Options{
		Targets:       []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:      4,
		MaxOps:        400,
		Visited:       cfg.Visited,
		BitstateBytes: cfg.BitstateBytes,
		MemBudget:     cfg.MemBudget,
	}
	if cfg.Crash {
		cal.Targets = []TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}
		cal.CrashExploration = true
	}
	if cfg.CalibrationWorkers <= 1 {
		o := cal
		o.Observers = cfg.Observers
		s, err := NewSession(o)
		if err != nil {
			return 0, 0, err
		}
		defer s.Close()
		res := s.Run()
		if res.Err != nil {
			return 0, 0, res.Err
		}
		if res.Ops == 0 {
			return 0, 0, fmt.Errorf("mcfs: figure 3 measurement executed no ops")
		}
		return res.Elapsed / time.Duration(res.Ops), sessionStateBytes(s), nil
	}

	var sw sessionSwarm
	defer sw.close()
	sr, err := sw.run(SwarmOptions{Workers: cfg.CalibrationWorkers, ShareVisited: cfg.ShareVisited,
		Visited: cfg.Visited, BitstateBytes: cfg.BitstateBytes, MemBudget: cfg.MemBudget,
		Journal: cfg.Journal, Stream: cfg.Stream},
		func(seed int64) (Options, error) {
			o := cal
			if seed == 1 {
				// The hub and profiler rebase onto one session's virtual
				// clock, so only the first worker carries them.
				o.Obs = cfg.Obs
				o.Perf = cfg.Perf
			}
			return o, nil
		})
	if err != nil {
		return 0, 0, err
	}
	if sr.Err != nil {
		return 0, 0, sr.Err
	}
	if sr.Ops == 0 {
		return 0, 0, fmt.Errorf("mcfs: figure 3 swarm measurement executed no ops")
	}
	var elapsed time.Duration
	for _, r := range sr.Workers {
		elapsed += r.Elapsed
	}
	return elapsed / time.Duration(sr.Ops), sessionStateBytes(sw.built()[0]), nil
}

// sessionStateBytes sums the per-target concrete-state sizes, falling
// back to the 512 KiB the paper's VeriFS states average.
func sessionStateBytes(s *Session) int64 {
	var stateBytes int64
	for _, t := range s.trackers {
		stateBytes += t.StateBytes()
	}
	if stateBytes == 0 {
		stateBytes = 512 * 1024
	}
	return stateBytes
}

// RunFigure3 regenerates Figure 3: ops/s and swap usage over a simulated
// multi-day run. A short real exploration calibrates the per-operation
// cost; the long-run dynamics (visited-state growth, hash-table resizes,
// swap spill, late-run RAM hit-rate rebound) come from the memory model,
// stepped hour by hour. Executing the paper's ~1.8 billion operations
// directly is infeasible; the model-stepped series preserves the
// phenomena the paper reports.
func RunFigure3(cfg Figure3Config) ([]Figure3Point, error) {
	if cfg.Days == 0 {
		cfg.Days = 14
	}
	if cfg.BasePerOp == 0 || cfg.StateBytes == 0 {
		perOp, stateBytes, err := measureBasePerOp(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.BasePerOp == 0 {
			cfg.BasePerOp = perOp
		}
		if cfg.StateBytes == 0 {
			cfg.StateBytes = stateBytes
		}
	}
	memCfg := memmodel.DefaultConfig()
	if cfg.Memory != nil {
		memCfg = *cfg.Memory
	}
	if cfg.SaturationStates == 0 {
		cfg.SaturationStates = defaultSaturationStates
	}

	// Memory composition: Spin's visited table holds one slot plus a
	// COLLAPSE-compressed state record per visited state; full concrete
	// states live only on the bounded DFS stack. The table is therefore
	// what grows into swap over days — at ~1000+ new states/s, a billion
	// entries times ~100 bytes cross the 64 GB RAM budget mid-run,
	// heading toward the paper's ~105 GB of swap.
	const (
		slotBytes        = 24 // hash slot
		compressedState  = 96 // COLLAPSE-compressed state record
		initialSlots     = 4.3e8
		tableGrowth      = 4   // Spin-style aggressive table growth
		rehashSwapFactor = 0.5 // rehashed entries paying swap I/O
		rehashPerEntry   = 8 * time.Microsecond
		insertCost       = 300 * time.Nanosecond
		swapDecay        = 0.25 // per-hour decay of transient swap spikes
	)

	// The run executes on the order of a billion operations, so the hour
	// steps are computed analytically from the memory-model cost
	// constants rather than charging a virtual clock per operation.
	var (
		points     []Figure3Point
		unique     float64 // visited states
		swap       float64 // bytes in swap
		slots      = initialSlots
		rehashDebt float64 // leftover resize work, spilling across hours
		step       = time.Hour
		totalHours = int(cfg.Days * 24)
		swapInCost = memCfg.SwapInCost.Seconds()
		ram        = float64(memCfg.RAMBytes)
		// Pages the DFS stack's concrete states occupy: restoring them
		// pays swap-in once the table has pushed them out of RAM.
		statePages = float64((cfg.StateBytes + memmodel.PageSize - 1) / memmodel.PageSize)
	)
	memoryFootprint := func() float64 { return slots*slotBytes + unique*compressedState }
	for h := 0; h < totalHours; h++ {
		// Fraction of operations reaching a brand-new state: ~1/2 while
		// the space is fresh, falling to 0 as the bounded space
		// saturates.
		newFrac := 0.5 * (1 - unique/float64(cfg.SaturationStates))
		if newFrac < 0 {
			newFrac = 0
		}
		// Hotness of the pages an operation touches: exploring fresh
		// territory probes cold table regions and restores cold stack
		// states; near saturation the working set is the recently
		// visited, RAM-resident states — the paper's day-13-14
		// RAM-hit-rate rebound.
		hotness := 1 - 2*newFrac
		if hotness < 0 {
			hotness = 0
		}

		swapFrac := 0.0
		if fp := memoryFootprint(); fp > 0 {
			swapFrac = swap / fp
			if swapFrac > 1 {
				swapFrac = 1
			}
		}
		// Expected per-op cost (seconds): base + swap-ins for the table
		// probe and the concrete-state restore.
		pSwap := swapFrac * (1 - hotness)
		perOp := cfg.BasePerOp.Seconds() +
			pSwap*(1+statePages)*swapInCost +
			newFrac*insertCost.Seconds()

		hourBudget := step.Seconds()

		// Pay down leftover resize work first.
		if rehashDebt > 0 {
			pay := rehashDebt
			if pay > hourBudget*0.95 {
				pay = hourBudget * 0.95
			}
			rehashDebt -= pay
			hourBudget -= pay
		}

		// Hash-table resize: when this hour's inserts would cross the
		// load threshold, the rehash pass eats into this hour (and the
		// next, via the debt) and the transient double-table pushes
		// pages to swap — the paper's day-3 crash and swap spike.
		projectedOps := hourBudget / perOp
		projectedEntries := unique + projectedOps*newFrac
		if rehashDebt <= 0 && projectedEntries > slots*0.75 {
			rehashDebt = projectedEntries * rehashPerEntry.Seconds()
			rehashDebt += swapFrac * projectedEntries * rehashSwapFactor * swapInCost
			// While rehashing, the old and new tables coexist.
			transient := memoryFootprint() + slots*tableGrowth*slotBytes - ram
			if transient > swap {
				swap = transient
			}
			slots *= tableGrowth
			pay := rehashDebt
			if pay > hourBudget*0.95 {
				pay = hourBudget * 0.95
			}
			rehashDebt -= pay
			hourBudget -= pay
		}

		ops := hourBudget / perOp
		newStates := ops * newFrac
		if unique+newStates > float64(cfg.SaturationStates) {
			newStates = float64(cfg.SaturationStates) - unique
		}
		unique += newStates
		// Steady-state swap: the footprint beyond RAM. Transient spikes
		// (freed half-tables) decay back toward it.
		overflow := memoryFootprint() - ram
		if overflow < 0 {
			overflow = 0
		}
		if swap > overflow {
			swap -= (swap - overflow) * swapDecay
		}
		if overflow > swap {
			swap = overflow
		}
		if memCfg.SwapBytes > 0 && swap > float64(memCfg.SwapBytes) {
			swap = float64(memCfg.SwapBytes) // swap full; thrashing at the edge
		}
		pt := Figure3Point{
			Day:       float64(h+1) / 24,
			OpsPerSec: ops / step.Seconds(),
			SwapGB:    swap / (1 << 30),
		}
		points = append(points, pt)
		cfg.Obs.Gauge("figure3.day").Set(int64(h + 1))
		cfg.Obs.Gauge("figure3.ops_per_sec").Set(int64(pt.OpsPerSec))
		cfg.Obs.Gauge("figure3.swap_gb").Set(int64(pt.SwapGB))
		if cfg.Progress != nil {
			cfg.Progress(pt)
		}
	}
	return points, nil
}

// defaultSaturationStates is the bounded-state-space size used by the
// Figure 3 simulation: large enough that exploration still finds fresh
// states on day 12, small enough that the late-run revisit rate rises and
// the RAM hit rate rebounds (the paper's day 13-14 uptick).
const defaultSaturationStates = 800_000_000

// SwarmComparison quantifies what the shared visited table buys a
// swarm: the same worker pool (identical seeds, targets, depth, and
// per-worker budget) run twice, once with independent per-worker
// visited tables and once sharing one table. Duplicates counts states
// discovered by more than one worker — redundant exploration the
// shared table eliminates.
type SwarmComparison struct {
	// Workers is the pool width; Budget the per-worker op budget.
	Workers int
	Budget  int64
	// Independent and Shared summarize the two runs.
	Independent SwarmModeStats
	Shared      SwarmModeStats
}

// SwarmModeStats summarizes one swarm mode of the comparison.
type SwarmModeStats struct {
	// Ops sums executed operations across workers.
	Ops int64
	// UniqueStates sums per-worker unique discoveries; GlobalUnique is
	// the number of distinct states across the whole swarm.
	UniqueStates int64
	GlobalUnique int64
	// Duplicates = UniqueStates - GlobalUnique: states more than one
	// worker paid to discover.
	Duplicates int64
}

func swarmModeStats(sr SwarmResult) SwarmModeStats {
	return SwarmModeStats{
		Ops:          sr.Ops,
		UniqueStates: sr.UniqueStates,
		GlobalUnique: sr.GlobalUniqueStates,
		Duplicates:   sr.DuplicateStates,
	}
}

// RunSwarmComparison runs the shared-table vs. independent comparison
// on a clean VeriFS1/VeriFS2 pair (no seeded bug, so no early
// cancellation skews the totals).
func RunSwarmComparison(workers int, budget int64) (SwarmComparison, error) {
	if workers <= 0 {
		workers = 4
	}
	if budget <= 0 {
		budget = 800
	}
	factory := func(seed int64) (Options, error) {
		return Options{
			Targets:  []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3,
			MaxOps:   budget,
		}, nil
	}
	cmp := SwarmComparison{Workers: workers, Budget: budget}
	for _, share := range []bool{false, true} {
		sr, err := SwarmRun(SwarmOptions{Workers: workers, ShareVisited: share}, factory)
		if err != nil {
			return cmp, err
		}
		if sr.Err != nil {
			return cmp, sr.Err
		}
		if sr.Bug != nil {
			return cmp, fmt.Errorf("mcfs: swarm comparison found an unexpected bug: %v", sr.Bug.Discrepancy)
		}
		if share {
			cmp.Shared = swarmModeStats(sr)
		} else {
			cmp.Independent = swarmModeStats(sr)
		}
	}
	return cmp, nil
}

// SoakResult is the outcome of the E9 soak projection (§5: "over 159
// million syscalls without any errors").
type SoakResult struct {
	// OpsExecuted and SyscallsExecuted count the real exploration run.
	OpsExecuted      int64
	SyscallsExecuted int64
	// VirtualElapsed is the virtual time the run took.
	VirtualElapsed time.Duration
	// ProjectedSyscallsPer5Days extrapolates the measured syscall rate
	// to the paper's five-day run.
	ProjectedSyscallsPer5Days float64
	// DiscrepancyFound should be false: VeriFS1 vs Ext4 agree.
	DiscrepancyFound bool
}

// RunSoak performs a bounded real exploration of Ext4 vs VeriFS1 (the
// paper's five-day configuration) and projects the syscall rate to five
// days.
func RunSoak(budget int64) (SoakResult, error) {
	if budget <= 0 {
		budget = 3000
	}
	s, err := NewSession(Options{
		Targets:  []TargetSpec{{Kind: "ext4"}, {Kind: "verifs1"}},
		MaxDepth: 4,
		MaxOps:   budget,
	})
	if err != nil {
		return SoakResult{}, err
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		return SoakResult{}, res.Err
	}
	out := SoakResult{
		OpsExecuted:      res.Ops,
		SyscallsExecuted: s.Kernel().SyscallCount(),
		VirtualElapsed:   res.Elapsed,
		DiscrepancyFound: res.Bug != nil,
	}
	if res.Elapsed > 0 {
		perSec := float64(out.SyscallsExecuted) / res.Elapsed.Seconds()
		out.ProjectedSyscallsPer5Days = perSec * 5 * 24 * 3600
	}
	return out, nil
}
