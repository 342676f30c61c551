package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"mcfs"
	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/tracker"
)

// Span layers recorded by the benchmark, outermost first. Every span
// brackets a call from this package into one public layer of MCFS.
const (
	layerBench   = "bench"   // one root span per workload run
	layerSetup   = "setup"   // mcfs.NewSession
	layerMC      = "mc"      // Session.Run
	layerReplay  = "replay"  // Session.VerifyTrail / VerifyCrashTrail
	layerTracker = "tracker" // one tracker call
)

var spanLayers = []string{layerBench, layerSetup, layerMC, layerReplay, layerTracker}

// span is one timed call. Spans of one explored operation share op, the
// checkpoint key the engine passes to Checkpoint and Restore.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Op     uint64        `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the traced pass ends. The
// engine calls trackers from its own goroutine only, so one open-span
// stack suffices.
type recorder struct {
	spans []span
	open  []int
}

func (r *recorder) begin(layer, name string, op uint64) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Op: op, Start: wallNow()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = wallNow()
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].End - r.spans[id].Start
}

// selfTimes sums, per layer, each span's duration minus the part its
// child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration, len(spanLayers))
	for _, s := range r.spans {
		self[s.Layer] += s.End - s.Start
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Layer] -= s.End - s.Start
		}
	}
	return self
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callStats accumulates one tracker method's calls for one target kind.
type callStats struct {
	total time.Duration
	durs  []time.Duration
}

func (c *callStats) add(d time.Duration) {
	c.total += d
	c.durs = append(c.durs, d)
}

// trackerStats is the tracker layer's account for one target kind.
type trackerStats struct {
	checkpoint, restore, preop, postop callStats
	errors                             int64
}

// cacheStats accumulates one mount point's dentry-cache counters across
// remounts: each remount starts a fresh Mount whose counters restart.
type cacheStats struct {
	sess     *mcfs.Session
	point    string
	last     *kernel.Mount
	lastHits int64
	lastMiss int64
	hits     int64
	misses   int64
}

// sample folds the counters gained since the previous sample.
func (c *cacheStats) sample() {
	m, _, e := c.sess.Kernel().MountAt(c.point)
	if e != errno.OK || m.Point() != c.point {
		return
	}
	h, mi := m.CacheStats()
	if m != c.last {
		c.last, c.lastHits, c.lastMiss = m, 0, 0
	}
	c.hits += h - c.lastHits
	c.misses += mi - c.lastMiss
	c.lastHits, c.lastMiss = h, mi
}

// timedTracker decorates one engine tracker: it times every call,
// records a span for it, and samples its mount's dentry cache at each
// call boundary.
type timedTracker struct {
	inner tracker.Tracker
	kind  string
	stats *trackerStats
	cache *cacheStats
	rec   *recorder
	op    uint64 // checkpoint key of the op in progress
}

func (t *timedTracker) call(c *callStats, method string, op uint64, f func() error) error {
	t.cache.sample()
	id := t.rec.begin(layerTracker, t.kind+"."+method, op)
	err := f()
	d := t.rec.end(id)
	t.cache.sample()
	if c != nil {
		c.add(d)
	}
	if err != nil {
		t.stats.errors++
	}
	return err
}

func (t *timedTracker) Name() string      { return t.inner.Name() }
func (t *timedTracker) StateBytes() int64 { return t.inner.StateBytes() }

func (t *timedTracker) Checkpoint(key uint64) error {
	t.op = key
	return t.call(&t.stats.checkpoint, "checkpoint", key, func() error { return t.inner.Checkpoint(key) })
}

func (t *timedTracker) Restore(key uint64) error {
	return t.call(&t.stats.restore, "restore", key, func() error { return t.inner.Restore(key) })
}

func (t *timedTracker) Discard(key uint64) {
	_ = t.call(nil, "discard", key, func() error { t.inner.Discard(key); return nil })
}

func (t *timedTracker) PreOp() error {
	return t.call(&t.stats.preop, "preop", t.op, t.inner.PreOp)
}

func (t *timedTracker) PostOp() error {
	return t.call(&t.stats.postop, "postop", t.op, t.inner.PostOp)
}

// tracing is the traced pass's instrumentation state across runs.
type tracing struct {
	rec      recorder
	trackers map[string]*trackerStats // by target kind
	caches   []*cacheStats
}

func newTracing() *tracing {
	return &tracing{trackers: map[string]*trackerStats{}}
}

// begin opens a span; on a nil tracing (an untraced run) it records
// nothing.
func (tr *tracing) begin(layer, name string) int {
	if tr == nil {
		return -1
	}
	return tr.rec.begin(layer, name, 0)
}

func (tr *tracing) end(id int) {
	if tr != nil {
		tr.rec.end(id)
	}
}

// wrap replaces every tracker of s with a timed decorator.
func (tr *tracing) wrap(s *mcfs.Session, targets []mcfs.TargetSpec) {
	cfg := s.Config()
	points := s.Checker().Targets()
	wrapped := make([]tracker.Tracker, len(cfg.Trackers))
	for i, inner := range cfg.Trackers {
		kind := targets[i].Kind
		st := tr.trackers[kind]
		if st == nil {
			st = &trackerStats{}
			tr.trackers[kind] = st
		}
		cache := &cacheStats{sess: s, point: points[i].MountPoint}
		tr.caches = append(tr.caches, cache)
		wrapped[i] = &timedTracker{inner: inner, kind: kind, stats: st, cache: cache, rec: &tr.rec}
	}
	cfg.Trackers = wrapped
}

// dcache sums hits and misses over every sampled mount.
func (tr *tracing) dcache() (hits, misses int64) {
	for _, c := range tr.caches {
		hits += c.hits
		misses += c.misses
	}
	return hits, misses
}

// micros returns the q-quantile call duration in microseconds.
func (c *callStats) micros(q float64) float64 {
	us := make([]float64, len(c.durs))
	for i, d := range c.durs {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return quantile(us, q)
}
