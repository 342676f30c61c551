package visited

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mcfs/internal/memmodel"
)

// TestMigrationUnderChurn is the -race test for live downgrades: many
// workers visiting while another goroutine migrates the table
// exact→compact→bitstate mid-flight. Every state visited before its
// worker finished must still be recognized as seen, the novel counter
// must equal the number of distinct states (workers use disjoint
// ranges), and the memory ledger must settle to exactly the final
// table's footprint.
func TestMigrationUnderChurn(t *testing.T) {
	const (
		workers   = 8
		perWorker = 2000
	)
	set := NewSet(NewExact())
	mem := memmodel.New(memmodel.Config{InitialSlots: 1, SlotBytes: 0}, nil)
	set.AttachMem(mem)
	// The Bloom array is sized so generously (4 MB for ~16k states) that
	// a false "seen" would mean a hashing bug, not expected omission —
	// the per-visit collision odds are ~3e-9.
	const bloomBytes = 1 << 22

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			base := w * perWorker
			for i := 0; i < perWorker; i++ {
				novel, _ := set.Visit(st(base+i), i%7)
				if !novel {
					t.Errorf("worker %d: state %d not novel on first visit", w, base+i)
					return
				}
			}
		}(w)
	}
	// The migrator races the workers: two live downgrades while visits
	// stream in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for set.NovelCount() < workers*perWorker/3 {
			runtime.Gosched()
		}
		set.migrate(bloomBytes)
		for set.NovelCount() < 2*workers*perWorker/3 {
			runtime.Gosched()
		}
		set.migrate(bloomBytes)
	}()
	close(start)
	wg.Wait()

	if got := set.Fidelity(); got != FidelityBitstate {
		t.Fatalf("Fidelity after churn = %v, want bitstate", got)
	}
	if got := set.NovelCount(); got != workers*perWorker {
		t.Fatalf("NovelCount = %d, want %d", got, workers*perWorker)
	}
	// Membership survived both live migrations.
	for i := 0; i < workers*perWorker; i++ {
		if novel, _ := set.Visit(st(i), 0); novel {
			t.Fatalf("state %d lost during live migration", i)
		}
	}
	// The ledger settled: the model is billed exactly the final table's
	// footprint, no double-charge from visits racing the rebill.
	if got, want := mem.Stats().SharedVisitedBytes, set.Bytes(); got != want {
		t.Fatalf("model billed %d bytes, table holds %d", got, want)
	}
	// The migrator called Set.migrate directly (bypassing any governor),
	// so the downgrade count lives in the model-side stats.
	if got := mem.Stats().FidelityDowngrades; got != 2 {
		t.Fatalf("Stats.FidelityDowngrades = %d, want 2", got)
	}
}

// TestConcurrentVisitLedger checks the charge path alone under -race:
// concurrent visits on a stable exact table bill exactly once per novel
// state.
func TestConcurrentVisitLedger(t *testing.T) {
	const (
		workers = 8
		states  = 1000
	)
	set := NewSet(NewExact())
	mem := memmodel.New(memmodel.Config{InitialSlots: 1, SlotBytes: 0}, nil)
	set.AttachMem(mem)

	var wg sync.WaitGroup
	var credited atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// All workers visit the same states: exactly one wins novelty
			// for each.
			for i := 0; i < states; i++ {
				if novel, _ := set.Visit(st(i), i%5); novel {
					credited.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if got := credited.Load(); got != states {
		t.Fatalf("racing workers were credited %d novel visits, want %d (each state once)", got, states)
	}
	if got := set.NovelCount(); got != states {
		t.Fatalf("NovelCount = %d, want %d", got, states)
	}
	if got := set.Len(); got != states {
		t.Fatalf("Len = %d, want %d", got, states)
	}
	if got, want := mem.Stats().SharedVisitedBytes, int64(states*ExactEntryBytes); got != want {
		t.Fatalf("model billed %d bytes, want %d", got, want)
	}
}
