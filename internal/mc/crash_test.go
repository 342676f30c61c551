package mc

import (
	"errors"
	"strings"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/workload"
)

func TestCrashPointsTable(t *testing.T) {
	tests := []struct {
		w, m int
		want []int
	}{
		{w: 0, m: 1, want: []int{}},
		{w: 0, m: 4, want: []int{}},
		{w: 1, m: 1, want: []int{0}},
		{w: 1, m: 4, want: []int{0}},
		{w: 3, m: 4, want: []int{0, 1, 2}},
		// m == 1 samples the FIRST write; the old code returned w-1,
		// which for journaled targets lands after the commit record and
		// exercises no recovery at all.
		{w: 10, m: 1, want: []int{0}},
		{w: 10, m: 2, want: []int{0, 9}},
		{w: 10, m: 4, want: []int{0, 3, 6, 9}},
		{w: 10, m: 0, want: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, // default: exhaustive up to maxArmedPoints
		{w: 100, m: 3, want: []int{0, 49, 99}},
	}
	for _, tc := range tests {
		got := crashPoints(tc.w, tc.m)
		if len(got) != len(tc.want) {
			t.Errorf("crashPoints(%d, %d) = %v, want %v", tc.w, tc.m, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("crashPoints(%d, %d) = %v, want %v", tc.w, tc.m, got, tc.want)
				break
			}
		}
	}
}

// crashWindow must leave zero armed crash points on EVERY exit path —
// a leftover arm silently captures in the next window. The op here
// executes against an empty kernel (no mount), so the window sees zero
// writes and every armed point stays pending until the cleanup runs.

func windowFixture(postErr error) (*Config, *CrashPlane) {
	cfg := &Config{Kernel: kernel.New(simclock.New())}
	p := &CrashPlane{
		Name:     "test#0",
		Mount:    "/mnt0",
		Injector: fault.New(),
		PreOp:    func() error { return nil },
		PostOp:   func() error { return postErr },
	}
	return cfg, p
}

func TestCrashWindowDisarmsOnSuccess(t *testing.T) {
	cfg, p := windowFixture(nil)
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	if _, err := crashWindow(cfg, p, op, []int{3, 7}); err != nil {
		t.Fatalf("crashWindow: %v", err)
	}
	if n := p.Injector.Armed(); n != 0 {
		t.Errorf("success path leaked %d armed crash point(s)", n)
	}
}

func TestCrashWindowDisarmsOnPostOpError(t *testing.T) {
	cfg, p := windowFixture(errors.New("remount exploded"))
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	_, err := crashWindow(cfg, p, op, []int{3, 7})
	if err == nil || !strings.Contains(err.Error(), "post-op") {
		t.Fatalf("crashWindow error = %v, want post-op failure", err)
	}
	if n := p.Injector.Armed(); n != 0 {
		t.Errorf("post-op error path leaked %d armed crash point(s)", n)
	}
	if img := p.Injector.TakeCrashImage(); img != nil {
		t.Error("post-op error path kept a captured image")
	}
}
