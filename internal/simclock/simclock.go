// Package simclock provides the virtual clock that every simulated
// component in MCFS charges time against.
//
// The paper reports model-checking rates (operations per second of real
// time) measured on a 16-core VM driving real kernels and devices. This
// reproduction replaces real time with a deterministic virtual clock:
// simulated devices charge seek and transfer latencies, trackers charge
// snapshot latencies, and the explorer charges per-operation CPU costs.
// Benchmarks then compute ops/s from virtual elapsed time, so every run
// reproduces the paper's *relative* speeds exactly and in milliseconds of
// wall-clock time.
package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock. It is safe for
// concurrent use. Every exploration session builds its own clock, so
// swarm workers advance independent virtual timelines.
//
// The zero value is a valid clock at time zero.
type Clock struct {
	mu  sync.Mutex
	now time.Duration // guarded by mu
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored: simulated costs are never refunds.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d <= 0 {
		c.mu.Lock()
		now := c.now
		c.mu.Unlock()
		return now
	}
	c.mu.Lock()
	c.now += d
	now := c.now
	c.mu.Unlock()
	return now
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Reset rewinds the clock to zero. Only tests and benchmark harnesses
// call this, between independent runs.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.now = 0
	c.mu.Unlock()
}

// Stopwatch measures a span of virtual time on a clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// Watch starts a stopwatch at the clock's current time.
func Watch(c *Clock) Stopwatch { return Stopwatch{clock: c, start: c.Now()} }

// Elapsed returns the virtual time accumulated since the stopwatch began.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }

// Rate converts an event count over a virtual duration into events per
// virtual second. A zero or negative duration yields 0 rather than Inf so
// callers can print rates unconditionally.
func Rate(events int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Seconds()
}

// FormatRate renders an events/second value the way the paper's Figure 2
// labels do, e.g. "228.6 ops/s".
func FormatRate(rate float64) string {
	return fmt.Sprintf("%.1f ops/s", rate)
}
