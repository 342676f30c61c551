package visited

import (
	"sync"
	"sync/atomic"

	"mcfs/internal/abstraction"
	"mcfs/internal/memmodel"
)

// Set is the shared visited-state store: a swappable Table behind a
// read-write lock, the memory-model ledger that keeps every attached
// model's shared-table accounting exact across backend migrations, and
// the attachment point for a Governor.
//
// Visits run under the read lock — many workers concurrently — while a
// migration or eviction takes the write lock, mutates or replaces the
// table, and rebills each attached model by the footprint delta (never
// a re-charge of surviving entries, so no double-charge on rehash).
type Set struct {
	mu    sync.RWMutex // guards table identity; Visit/Seed hold RLock
	table Table        // guarded by mu

	novel atomic.Int64 // discoveries (excludes seeds), stable across migration

	// memMu orders the ledger below mu. charged is the per-model bytes
	// billed so far; the invariant charged == table.Bytes() holds at
	// every quiescent point.
	memMu   sync.Mutex
	mems    []*memmodel.Model // guarded by memMu
	charged int64             // guarded by memMu

	gov *Governor // guarded by mu
}

// NewSet wraps a backend table. A nil table gets a fresh exact one.
func NewSet(t Table) *Set {
	if t == nil {
		t = NewExact()
	}
	return &Set{table: t}
}

// Visit records st at depth (the backend's novel/expand semantics) and
// bills any novel entry's footprint to every attached memory model.
func (s *Set) Visit(st abstraction.State, depth int) (novel, expand bool) {
	s.mu.RLock()
	novel, expand = s.table.Visit(st, depth)
	if novel {
		s.charge(s.table.EntryBytes())
	}
	s.mu.RUnlock()
	if novel {
		s.novel.Add(1)
	}
	return novel, expand
}

// Seed preloads prior knowledge: pruned like any visited state, billed
// like any entry, never counted in NovelCount.
func (s *Set) Seed(st abstraction.State, depth int) {
	s.mu.RLock()
	if s.table.Seed(st, depth) {
		s.charge(s.table.EntryBytes())
	}
	s.mu.RUnlock()
}

// AttachMem subscribes a memory model to the set's footprint: the
// bytes billed so far are charged immediately, every later entry (and
// every migration delta) follows.
func (s *Set) AttachMem(m *memmodel.Model) {
	if s == nil || m == nil {
		return
	}
	s.memMu.Lock()
	s.mems = append(s.mems, m)
	m.AddSharedVisited(s.charged)
	s.memMu.Unlock()
}

// charge bills n bytes of growth to every attached model. Callers hold
// at least the table read lock, so a concurrent migration's rebill
// cannot interleave and double-count.
func (s *Set) charge(n int64) {
	if n == 0 {
		return
	}
	s.memMu.Lock()
	s.charged += n
	for _, m := range s.mems {
		m.AddSharedVisited(n)
	}
	s.memMu.Unlock()
}

// rebill settles the ledger to the table's current footprint — the
// single accounting path for migrations and evictions. Callers hold
// the table write lock.
func (s *Set) rebill() {
	s.memMu.Lock()
	delta := s.table.Bytes() - s.charged
	if delta != 0 {
		s.charged += delta
		for _, m := range s.mems {
			m.AddSharedVisited(delta)
		}
	}
	s.memMu.Unlock()
}

// Len reports the table's entry count.
func (s *Set) Len() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.Len()
}

// Bytes reports the table's modeled footprint.
func (s *Set) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.Bytes()
}

// NovelCount reports discoveries (excluding seeds) — stable across
// migrations, unlike the table's Len.
func (s *Set) NovelCount() int64 { return s.novel.Load() }

// Fidelity reports the current backend's precision.
func (s *Set) Fidelity() Fidelity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.Fidelity()
}

// Omission reports the current backend's estimated omission
// probability.
func (s *Set) Omission() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.Omission()
}

// Export snapshots the table for resume, or returns the backend's
// typed ErrNoExport refusal.
func (s *Set) Export() ([]Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.Export()
}

// Governor returns the attached governor (nil when ungoverned; a nil
// *Governor is safe to call).
func (s *Set) Governor() *Governor {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gov
}

// evictDeepest drops the exact table's deepest depth layer (no-op on
// other backends) and settles the ledger. Returns the evicted count
// and layer depth.
func (s *Set) evictDeepest(floor int) (evicted, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ex, ok := s.table.(*Exact)
	if !ok {
		return 0, -1
	}
	evicted, depth = ex.EvictDeepest(floor)
	if evicted > 0 {
		s.rebill()
		s.memMu.Lock()
		for _, m := range s.mems {
			m.NoteVisitedEvictions(int64(evicted))
		}
		s.memMu.Unlock()
	}
	return evicted, depth
}

// migrate downgrades the table one fidelity level — exact→compact or
// compact→bitstate — preserving membership (every recorded fingerprint
// is replayed into the new backend, minimum depths kept where the
// target keeps depths) and settling the ledger by delta. Reports the
// transition taken; from == to means there was nothing lower to go.
func (s *Set) migrate(bitstateBytes int64) (from, to Fidelity, omission float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from = s.table.Fidelity()
	to = from
	switch old := s.table.(type) {
	case *Exact:
		next := NewCompact()
		old.rng(func(st abstraction.State, depth int) {
			next.Seed(st, depth)
		})
		s.table, to = next, FidelityCompact
	case *Compact:
		next := NewBitstate(bitstateBytes, 0)
		old.rngFP(func(fp uint64, _ int32) {
			next.seedFP(fp)
		})
		s.table, to = next, FidelityBitstate
	default:
		return from, to, s.table.Omission()
	}
	s.rebill()
	s.memMu.Lock()
	for _, m := range s.mems {
		m.NoteFidelityDowngrade()
	}
	s.memMu.Unlock()
	return from, to, s.table.Omission()
}
