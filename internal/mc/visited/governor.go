package visited

import (
	"sync"
	"sync/atomic"

	"mcfs/internal/memmodel"
)

// Hooks are the governor's observability callbacks, invoked under the
// governor's mutex from whichever worker triggered the action.
type Hooks struct {
	// OnEvict fires after a depth-layer eviction: n entries at depth
	// went.
	OnEvict func(n, depth int)
	// OnDowngrade fires after a fidelity migration, with the new
	// backend's omission estimate at the moment of the switch.
	OnDowngrade func(from, to Fidelity, omission float64)
}

// GovernorConfig tunes the degradation policy.
type GovernorConfig struct {
	// BitstateBytes sizes the Bloom array a compact→bitstate migration
	// builds (DefaultBitstateBytes when <= 0).
	BitstateBytes int64
	// EvictFloor protects depth layers <= floor from eviction
	// (default 1: never evict near-root knowledge).
	EvictFloor int
	// MaxEvictRounds caps depth-layer evictions before the governor
	// stops trying eviction (default 8); hard pressure then migrates.
	MaxEvictRounds int
	// Hooks are the observability callbacks.
	Hooks Hooks
}

// Governor watches a memory model's footprint against its budget and
// degrades the visited set instead of letting the run die: under soft
// pressure it evicts the exact table's deepest (cheapest-to-lose) depth
// layers; under hard pressure it migrates exact→compact→bitstate. One
// action per Maybe call keeps the schedule deterministic for a given
// exploration sequence.
//
// A nil *Governor is valid and does nothing — the engine calls Maybe
// unconditionally on its hot path.
type Governor struct {
	set  *Set
	mu   sync.Mutex
	cfg  GovernorConfig // guarded by mu
	done atomic.Bool    // reached bitstate; no further relief possible

	evictRounds int // guarded by mu
	evictions   atomic.Int64
	downgrades  atomic.Int64
}

// NewGovernor builds a governor over the set and attaches it (a set
// keeps one; a later governor replaces it). Call memmodel.SetBudget on
// each watched model to define the watermarks; Maybe is a no-op for
// models without a budget.
func NewGovernor(s *Set, cfg GovernorConfig) *Governor {
	if cfg.BitstateBytes <= 0 {
		cfg.BitstateBytes = DefaultBitstateBytes
	}
	if cfg.EvictFloor <= 0 {
		cfg.EvictFloor = 1
	}
	if cfg.MaxEvictRounds <= 0 {
		cfg.MaxEvictRounds = 8
	}
	g := &Governor{set: s, cfg: cfg}
	s.mu.Lock()
	s.gov = g
	s.mu.Unlock()
	return g
}

// SetHooks installs the observability callbacks (replacing any set at
// construction). Safe on a nil governor.
func (g *Governor) SetHooks(h Hooks) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.cfg.Hooks = h
	g.mu.Unlock()
}

// Evictions reports entries evicted so far. Safe on a nil governor.
func (g *Governor) Evictions() int64 {
	if g == nil {
		return 0
	}
	return g.evictions.Load()
}

// Downgrades reports fidelity migrations so far. Safe on a nil
// governor.
func (g *Governor) Downgrades() int64 {
	if g == nil {
		return 0
	}
	return g.downgrades.Load()
}

// Maybe checks m's pressure and takes at most one degradation action.
// Called by the engine on every novel visit; must be cheap when idle.
// m must be the calling worker's own model (Pressure reads
// owner-goroutine fields). Safe on a nil governor.
func (g *Governor) Maybe(m *memmodel.Model) {
	if g == nil {
		return
	}
	if g.done.Load() {
		return
	}
	p := m.Pressure()
	if p == memmodel.PressureNone {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case p == memmodel.PressureSoft:
		// Soft: cheap relief only. Evict the exact table's deepest
		// layer while rounds remain; reduced backends have nothing
		// evictable.
		if g.set.Fidelity() != FidelityExact || g.evictRounds >= g.cfg.MaxEvictRounds {
			return
		}
		g.evictRounds++
		if n, depth := g.set.evictDeepest(g.cfg.EvictFloor); n > 0 {
			g.evictions.Add(int64(n))
			if g.cfg.Hooks.OnEvict != nil {
				g.cfg.Hooks.OnEvict(n, depth)
			}
		}
	case p == memmodel.PressureHard:
		g.migrateLocked()
	}
}

// Relieve is the emergency path: the memory model just refused a Store.
// It migrates one fidelity level immediately (eviction is too little,
// too late at this point) and reports whether anything changed — the
// caller retries the Store once on true. Safe on a nil governor.
func (g *Governor) Relieve(m *memmodel.Model) bool {
	if g == nil {
		return false
	}
	if g.done.Load() {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.migrateLocked()
}

// migrateLocked downgrades one level under g.mu, firing hooks and
// noting terminal bitstate.
func (g *Governor) migrateLocked() bool {
	from, to, omission := g.set.migrate(g.cfg.BitstateBytes)
	if to == from {
		g.done.Store(true)
		return false
	}
	g.downgrades.Add(1)
	if to == FidelityBitstate {
		g.done.Store(true)
	}
	if g.cfg.Hooks.OnDowngrade != nil {
		g.cfg.Hooks.OnDowngrade(from, to, omission)
	}
	return true
}
