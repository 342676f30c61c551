package visited

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"mcfs/internal/abstraction"
)

// st derives a distinct deterministic state from an index.
func st(i int) abstraction.State {
	var s abstraction.State
	binary.LittleEndian.PutUint64(s[:8], uint64(i)*0x9E3779B97F4A7C15+1)
	binary.LittleEndian.PutUint64(s[8:16], uint64(i)+0xDEADBEEF)
	return s
}

func TestNewTableKinds(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want Fidelity
	}{
		{KindExact, FidelityExact},
		{KindCompact, FidelityCompact},
		{KindBitstate, FidelityBitstate},
	} {
		tbl, err := NewTable(tc.kind, 0)
		if err != nil {
			t.Fatalf("NewTable(%q): %v", tc.kind, err)
		}
		if got := tbl.Fidelity(); got != tc.want {
			t.Errorf("NewTable(%q).Fidelity() = %v, want %v", tc.kind, got, tc.want)
		}
	}
	if _, err := NewTable("bogus", 0); err == nil {
		t.Error("NewTable(bogus) should fail")
	}
}

// TestCrossBackendAgreement is the agreement property: for any visit
// sequence, the set of states the exact table reports novel is a
// superset of what the reduced backends report novel — reduced
// fidelity may only omit states (false "seen before"), never invent
// them. Bitstate omissions must stay within a slack factor of the
// backend's own estimate.
func TestCrossBackendAgreement(t *testing.T) {
	const n = 5000
	exact := NewExact()
	compact := NewCompact()
	// Small array so the bitstate backend actually omits some states.
	bits := NewBitstate(1<<11, 0)

	exactNovel := make(map[abstraction.State]bool)
	var compactOmissions, bitsOmissions int
	for i := 0; i < n; i++ {
		// Revisit every third state to exercise the seen path too.
		s := st(i)
		if i%3 == 0 {
			s = st(i / 3)
		}
		depth := i % 7
		en, _ := exact.Visit(s, depth)
		cn, _ := compact.Visit(s, depth)
		bn, _ := bits.Visit(s, depth)
		if cn && !en {
			t.Fatalf("state %d: compact novel but exact seen", i)
		}
		if bn && !en {
			t.Fatalf("state %d: bitstate novel but exact seen", i)
		}
		if en {
			exactNovel[s] = true
			if !cn {
				compactOmissions++
			}
			if !bn {
				bitsOmissions++
			}
		}
	}

	// Compact's 64-bit fingerprints should not collide at this scale.
	if compactOmissions > 0 {
		t.Errorf("compact omitted %d of %d states (64-bit collision this early is a bug)",
			compactOmissions, len(exactNovel))
	}
	// Bitstate omissions are expected but bounded by the estimator: the
	// estimate is the per-visit omission probability at final load, an
	// overestimate of the average rate, so 3x plus slack is generous.
	est := bits.Omission() * float64(len(exactNovel))
	if limit := 3*est + 10; float64(bitsOmissions) > limit {
		t.Errorf("bitstate omitted %d states, estimator allows ~%.1f", bitsOmissions, est)
	}
	if bitsOmissions == 0 {
		t.Logf("note: bitstate omitted nothing at this load (omission=%.3g)", bits.Omission())
	}
}

// TestMigrationPreservesMembership checks the live-downgrade invariant:
// after exact→compact→bitstate migration, every state recorded before
// the migration is still recognized as seen (the common fingerprint
// guarantees membership is preserved, never lost).
func TestMigrationPreservesMembership(t *testing.T) {
	const n = 2000
	set := NewSet(NewExact())
	for i := 0; i < n; i++ {
		set.Visit(st(i), i%5)
	}

	from, to, _ := set.migrate(1 << 20)
	if from != FidelityExact || to != FidelityCompact {
		t.Fatalf("first migrate = %v->%v, want exact->compact", from, to)
	}
	for i := 0; i < n; i++ {
		if novel, _ := set.Visit(st(i), i%5); novel {
			t.Fatalf("state %d lost in exact->compact migration", i)
		}
	}

	from, to, _ = set.migrate(1 << 20)
	if from != FidelityCompact || to != FidelityBitstate {
		t.Fatalf("second migrate = %v->%v, want compact->bitstate", from, to)
	}
	for i := 0; i < n; i++ {
		if novel, _ := set.Visit(st(i), 0); novel {
			t.Fatalf("state %d lost in compact->bitstate migration", i)
		}
	}

	// Nothing below bitstate.
	from, to, _ = set.migrate(1 << 20)
	if from != to {
		t.Fatalf("migrate past bitstate = %v->%v, want no-op", from, to)
	}
}

func TestExactReexpansionRule(t *testing.T) {
	ex := NewSet(NewExact())
	if novel, expand := ex.Visit(st(1), 4); !novel || !expand {
		t.Fatal("first visit must be novel and expandable")
	}
	if novel, expand := ex.Visit(st(1), 5); novel || expand {
		t.Fatal("deeper revisit must not re-expand")
	}
	// Shallower revisit: not novel, but the re-expansion rule applies —
	// the subtree can be explored deeper from here.
	if novel, expand := ex.Visit(st(1), 2); novel || !expand {
		t.Fatal("shallower revisit must re-expand")
	}
	if novel, expand := ex.Visit(st(1), 2); novel || expand {
		t.Fatal("equal-depth revisit must not re-expand")
	}
	if ex.Len() != 1 || ex.NovelCount() != 1 {
		t.Errorf("Len=%d NovelCount=%d, want 1/1", ex.Len(), ex.NovelCount())
	}
}

func TestBitstateForfeitsReexpansion(t *testing.T) {
	b := NewBitstate(1<<16, 0)
	if novel, expand := b.Visit(st(1), 4); !novel || !expand {
		t.Fatal("first visit must be novel")
	}
	// Bitstate keeps no depths: a shallower revisit cannot re-expand.
	if novel, expand := b.Visit(st(1), 1); novel || expand {
		t.Fatal("bitstate revisit must never re-expand")
	}
}

func TestExportRefusal(t *testing.T) {
	ex := NewExact()
	ex.Visit(st(1), 0)
	if _, err := ex.Export(); err != nil {
		t.Fatalf("exact export: %v", err)
	}
	var noExport ErrNoExport
	if _, err := NewCompact().Export(); !errors.As(err, &noExport) {
		t.Fatalf("compact export err = %v, want ErrNoExport", err)
	} else if noExport.Mode != FidelityCompact {
		t.Errorf("ErrNoExport.Mode = %v, want compact", noExport.Mode)
	}
	if _, err := NewBitstate(0, 0).Export(); !errors.As(err, &noExport) {
		t.Fatalf("bitstate export err = %v, want ErrNoExport", err)
	}
}

func TestEvictDeepest(t *testing.T) {
	ex := NewExact()
	perLayer := 10
	for d := 0; d <= 4; d++ {
		for i := 0; i < perLayer; i++ {
			ex.Visit(st(d*1000+i), d)
		}
	}
	n0 := ex.Len()
	evicted, depth := ex.EvictDeepest(1)
	if evicted != perLayer || depth != 4 {
		t.Fatalf("EvictDeepest = (%d, %d), want (%d, 4)", evicted, depth, perLayer)
	}
	if got := ex.Len(); got != n0-int64(perLayer) {
		t.Fatalf("Len after evict = %d, want %d", got, n0-int64(perLayer))
	}
	// Evicted states are rediscoverable (duplicate work, not lost
	// coverage).
	if novel, _ := ex.Visit(st(4000), 4); !novel {
		t.Fatal("evicted state should be novel again")
	}
	ex.Visit(st(4000), 4)

	// Floor stops eviction at shallow layers.
	for {
		if n, _ := ex.EvictDeepest(1); n == 0 {
			break
		}
	}
	if d := ex.MaxDepth(); d > 1 {
		t.Fatalf("MaxDepth after full eviction = %d, want <= 1", d)
	}
	if ex.Len() == 0 {
		t.Fatal("floor should protect layers <= 1")
	}
}

func TestOmissionEstimates(t *testing.T) {
	if got := NewExact().Omission(); got != 0 {
		t.Errorf("exact omission = %v, want 0", got)
	}
	c := NewCompact()
	for i := 0; i < 1000; i++ {
		c.Visit(st(i), 0)
	}
	want := float64(1000) * float64(1000) / math.Pow(2, 65)
	if got := c.Omission(); math.Abs(got-want) > want/100 {
		t.Errorf("compact omission = %g, want ~%g", got, want)
	}
	b := NewBitstate(1<<10, 0)
	if got := b.Omission(); got != 0 {
		t.Errorf("empty bitstate omission = %v, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		b.Visit(st(i), 0)
	}
	if got := b.Omission(); got <= 0 || got >= 1 {
		t.Errorf("loaded bitstate omission = %v, want in (0,1)", got)
	}
}

func TestSetNovelCountStableAcrossMigration(t *testing.T) {
	set := NewSet(nil)
	for i := 0; i < 500; i++ {
		set.Visit(st(i), 0)
	}
	if got := set.NovelCount(); got != 500 {
		t.Fatalf("NovelCount = %d, want 500", got)
	}
	set.migrate(1 << 16)
	set.migrate(1 << 16)
	if got := set.NovelCount(); got != 500 {
		t.Fatalf("NovelCount after migrations = %d, want 500", got)
	}
	if got := set.Fidelity(); got != FidelityBitstate {
		t.Fatalf("Fidelity = %v, want bitstate", got)
	}
}
