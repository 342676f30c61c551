package main

import (
	"crypto/sha256"
	"encoding/binary"
	"time"
)

// hostProbe times a fixed job between runs: clearing, filling and
// hashing a preallocated buffer and updating a map that keeps its
// buckets. It uses no MCFS code and allocates nothing, so it leaves the
// heap and the GC as the runs left them.
//
// On a shared host the same process runs slower at some times than at
// others: its neighbours contend for cores, caches and memory, and that
// stretches CPU time too. Ten runs of one workload, made back to back,
// drifted by a quarter over a few minutes on a 2-vCPU x86-64 VM. The
// probe sees the same drift, so the gated CPU figures are reported at
// the host speed under which the probe takes probeRef.
type hostProbe struct {
	buf  []byte
	m    map[uint64]int
	last time.Duration
	cpu  []float64 // seconds per probe
}

const (
	// The buffer is small, so the probe adds little to the process's
	// resident set that peak_rss_mb reports; it is worked over
	// probePasses times.
	probeBytes  = 512 << 10
	probeBlock  = 4 << 10
	probePasses = 16
	// probeEvery is the least wall time between two probes; a probe
	// takes a few hundredths of a second.
	probeEvery = 500 * time.Millisecond
	// probeRef is the probe's CPU time, in seconds, at the reference
	// host speed: about its median on a 2-vCPU x86-64 VM.
	probeRef = 0.019
)

// newHostProbe allocates the probe's memory and runs it once untimed,
// so that page faults of the first touch are not measured.
func newHostProbe() *hostProbe {
	h := &hostProbe{buf: make([]byte, probeBytes), m: make(map[uint64]int, probeBytes/probeBlock)}
	h.job()
	return h
}

// maybe runs a timed probe when probeEvery has passed since the last.
func (h *hostProbe) maybe() {
	if len(h.cpu) > 0 && wallNow()-h.last < probeEvery {
		return
	}
	h.last = wallNow()
	c0 := cpuTime()
	h.job()
	h.cpu = append(h.cpu, (cpuTime() - c0).Seconds())
}

func (h *hostProbe) job() {
	for pass := 0; pass < probePasses; pass++ {
		clear(h.buf)
		for i := 0; i+probeBlock <= len(h.buf); i += probeBlock {
			blk := h.buf[i : i+probeBlock]
			for j := range blk {
				blk[j] = byte(pass + i>>12 + j)
			}
			sum := sha256.Sum256(blk)
			k := binary.LittleEndian.Uint64(sum[:])
			h.m[k] = i
			if i%(2*probeBlock) == 0 {
				delete(h.m, k)
			}
		}
		clear(h.m)
	}
}

// slowdown is the median probe time over probeRef: above 1 when the host
// ran slower than the reference. A CPU rate times the slowdown, or a CPU
// time over it, is the figure at the reference speed.
func (h *hostProbe) slowdown() float64 {
	return quantile(h.cpu, 0.5) / probeRef
}
