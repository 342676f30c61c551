package visited

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"

	"mcfs/internal/abstraction"
)

type exactShard struct {
	mu sync.Mutex
	m  map[abstraction.State]int // guarded by mu; state -> shallowest depth expanded at
}

// Exact is the full-fidelity table: the sharded state→depth map the
// engine and swarm always used, now behind the Table interface. It is
// the only backend that can export a ResumeState and the only one the
// governor can evict from (an evicted exact entry is merely re-expanded
// if reached again — duplicate work, never lost coverage).
type Exact struct {
	shards [tableShards]exactShard
	count  atomic.Int64
}

// NewExact returns an empty exact table.
func NewExact() *Exact {
	t := &Exact{}
	for i := range t.shards {
		t.shards[i].m = make(map[abstraction.State]int)
	}
	return t
}

func (t *Exact) shard(st abstraction.State) *exactShard {
	return &t.shards[int(st[0])&(tableShards-1)]
}

// Visit implements Table: the depth-bounded re-expansion rule (descend
// when new, or when every earlier expansion was strictly deeper).
func (t *Exact) Visit(st abstraction.State, depth int) (novel, expand bool) {
	sh := t.shard(st)
	sh.mu.Lock()
	prev, seen := sh.m[st]
	switch {
	case !seen:
		sh.m[st] = depth
		novel, expand = true, true
	case prev > depth:
		sh.m[st] = depth
		expand = true
	}
	sh.mu.Unlock()
	if novel {
		t.count.Add(1)
	}
	return novel, expand
}

// Seed implements Table: preload prior knowledge, keeping the
// shallowest depth on duplicates.
func (t *Exact) Seed(st abstraction.State, depth int) (novel bool) {
	sh := t.shard(st)
	sh.mu.Lock()
	prev, seen := sh.m[st]
	if !seen || prev > depth {
		sh.m[st] = depth
	}
	sh.mu.Unlock()
	if !seen {
		t.count.Add(1)
		return true
	}
	return false
}

// Len implements Table.
func (t *Exact) Len() int64 { return t.count.Load() }

// Bytes implements Table.
func (t *Exact) Bytes() int64 { return t.count.Load() * ExactEntryBytes }

// EntryBytes implements Table.
func (t *Exact) EntryBytes() int64 { return ExactEntryBytes }

// Fidelity implements Table.
func (t *Exact) Fidelity() Fidelity { return FidelityExact }

// Omission implements Table: an exact table never wrongly matches.
func (t *Exact) Omission() float64 { return 0 }

// Export implements Table: a byte-ordered snapshot of every entry.
func (t *Exact) Export() ([]Entry, error) {
	out := make([]Entry, 0, t.count.Load())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for st, depth := range sh.m {
			out = append(out, Entry{State: st, Depth: depth})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].State[:], out[j].State[:]) < 0
	})
	return out, nil
}

// rng iterates every entry. Migration calls it with the table already
// quiescent (the Set holds its write lock), so per-shard locking is
// belt and braces.
func (t *Exact) rng(f func(st abstraction.State, depth int)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for st, depth := range sh.m {
			f(st, depth)
		}
		sh.mu.Unlock()
	}
}

// MaxDepth reports the deepest recorded expansion depth (-1 when
// empty).
func (t *Exact) MaxDepth() int {
	max := -1
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, depth := range sh.m {
			if depth > max {
				max = depth
			}
		}
		sh.mu.Unlock()
	}
	return max
}

// EvictDeepest removes every entry recorded at the table's deepest
// depth layer, provided that layer is strictly deeper than floor:
// layers at depth <= floor are protected (evicting near-root knowledge
// would forfeit most pruning). Deep entries are the
// cheap ones to lose — the re-expansion rule would re-expand them on
// any shallower re-encounter regardless, so eviction costs duplicate
// work, never coverage. Returns how many entries went and the depth of
// the evicted layer (0, -1 when nothing qualified).
func (t *Exact) EvictDeepest(floor int) (evicted int, depth int) {
	deepest := t.MaxDepth()
	if deepest <= floor {
		return 0, -1
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for st, d := range sh.m {
			if d == deepest {
				delete(sh.m, st)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		t.count.Add(int64(-evicted))
	}
	return evicted, deepest
}
