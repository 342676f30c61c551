// Package blockdev simulates the storage devices that back the file
// systems MCFS checks.
//
// The paper runs block-based file systems (Ext2/Ext4/XFS) on Linux RAM
// block devices — a modified brd driver ("brd2") that permits different
// sizes per disk — and also measures runs backed by a real HDD and SSD to
// show why RAM backing matters (Figure 2). JFFS2 requires an MTD character
// device, provided in the paper via mtdram plus the mtdblock bridge.
//
// This package reproduces each of those: a RAM disk, latency-model disks
// parameterized by seek time, transfer bandwidth and cache-flush cost
// (HDD/SSD profiles), an MTD flash device with erase-block semantics, and
// an mtdblock bridge exposing the MTD device through the block interface.
// All devices charge their I/O costs to a shared virtual clock
// (internal/simclock).
//
// The cost model includes the parts of the storage stack that shaped the
// paper's Figure 2:
//
//   - a page cache: reads of previously accessed pages cost RAM time, so
//     only cold reads and all writes touch the medium (Linux's buffer
//     cache was present in the paper's HDD/SSD runs too — the 18-20x
//     slowdowns come from writes and flushes, not re-reads);
//   - seek locality: a request near the end of the previous one pays a
//     small fraction of the full positioning cost (elevator scheduling);
//   - explicit cache-flush cost, charged by Sync — write barriers are
//     what make per-operation remounting so expensive on real disks.
//
// Snapshot and Restore stand in for Spin mmapping the backing store into
// its address space: Snapshot reads the full image (through the cache),
// Restore writes it through to the medium.
package blockdev

import (
	"fmt"
	"sync"
	"time"

	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
)

// Device is the block interface the simulated kernel mounts file systems
// on. Offsets and lengths are in bytes; implementations enforce bounds.
type Device interface {
	// ReadAt fills p from the device starting at off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p to the device starting at off.
	WriteAt(p []byte, off int64) error
	// Size returns the device capacity in bytes.
	Size() int64
	// BlockSize returns the device's natural I/O unit in bytes.
	BlockSize() int
	// Sync flushes the device write cache, charging the flush cost.
	Sync() error
	// Snapshot copies the full device image into dst and returns it.
	// A nil or wrong-sized dst is replaced by a fresh allocation, so
	// callers that keep images can recycle consumed ones as dst.
	Snapshot(dst []byte) ([]byte, error)
	// Restore overwrites the device contents with a previously taken
	// snapshot, charging the cost of writing the whole device.
	Restore(img []byte) error
	// Name identifies the device in logs, e.g. "ram0" or "sda".
	Name() string
}

// cachePage is the page-cache granularity.
const cachePage = 4096

// nearDistance is how close a request must start to the previous
// request's end to count as sequential (pays nearSeekFraction of Seek).
const nearDistance = 1 << 20

// nearSeekDiv divides Seek for sequential requests.
const nearSeekDiv = 20

// Profile describes a device's latency model.
type Profile struct {
	// Seek is the positioning cost of a random request; sequential
	// requests pay Seek/nearSeekDiv.
	Seek time.Duration
	// PerKiB is the medium transfer time per KiB.
	PerKiB time.Duration
	// CachedPerKiB is the page-cache (RAM) transfer time per KiB.
	CachedPerKiB time.Duration
	// Flush is the cost of a cache-flush barrier (Sync).
	Flush time.Duration
}

// Cost returns the cost of a cold transfer of n bytes with a random seek
// (kept for calibration tests; the Disk applies locality and caching on
// top).
func (p Profile) Cost(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	kib := (n + 1023) / 1024
	return p.Seek + time.Duration(kib)*p.PerKiB
}

// Device latency profiles, calibrated so the remount-tracked Figure 2
// configurations land near the paper's ratios: HDD ~20x and SSD ~18x
// slower than RAM backing for Ext2-vs-Ext4.
var (
	// RAMProfile: brd2-style RAM disk — medium transfers pay the block
	// layer's per-request overhead (~1 GiB/s effective), cached reads are
	// plain memory speed, and there are no barriers.
	RAMProfile = Profile{Seek: 0, PerKiB: 600 * time.Nanosecond, CachedPerKiB: 100 * time.Nanosecond}
	// SSDProfile: SATA SSD, ~90us access, ~400 MiB/s, ms-class FLUSH.
	SSDProfile = Profile{
		Seek:         90 * time.Microsecond,
		PerKiB:       2500 * time.Nanosecond,
		CachedPerKiB: 100 * time.Nanosecond,
		Flush:        9 * time.Millisecond,
	}
	// HDDProfile: 7200rpm disk, ~6ms positioning, ~150 MiB/s, rotational
	// FLUSH.
	HDDProfile = Profile{
		Seek:         6 * time.Millisecond,
		PerKiB:       6500 * time.Nanosecond,
		CachedPerKiB: 100 * time.Nanosecond,
		Flush:        6 * time.Millisecond,
	}
)

// Disk is an in-memory device with a configurable latency profile. It
// simulates the paper's brd2 RAM disks (RAMProfile) as well as HDD- and
// SSD-backed storage. brd2's reason for existing — RAM disks of different
// sizes per file system — is simply the size argument here.
type Disk struct {
	mu      sync.Mutex
	name    string
	data    []byte
	blkSize int
	profile Profile
	clock   *simclock.Clock

	cached  []bool // page-cache residency per cachePage
	lastEnd int64  // end offset of the previous medium request

	// inj is the schedulable fault plane (nil = no faults). failRule is
	// the SetFailWrites compatibility shim's rule id on inj, -1 when the
	// shim is off.
	inj      *fault.Injector
	failRule int

	reads, writes int64 // medium request counters

	// Observability handles (nil unless SetObs was called): medium
	// requests are mirrored to per-device counters, and the big
	// tracker-driven transfers (Snapshot/Restore) get LayerBlockdev
	// spans. Per-page cache hits are deliberately not traced.
	obsHub              *obs.Hub
	ctrReads, ctrWrites *obs.Counter
}

// SetObs attaches an observability hub, registering the device's read
// and write counters under "blockdev.<name>.reads"/".writes". Nil-safe.
func (d *Disk) SetObs(h *obs.Hub) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obsHub = h
	d.ctrReads = h.Counter("blockdev." + d.name + ".reads")
	d.ctrWrites = h.Counter("blockdev." + d.name + ".writes")
}

// NewRAM returns a RAM disk of the given size. Sizes need not match
// across devices (the brd2 modification from the paper).
func NewRAM(name string, size int64, clock *simclock.Clock) *Disk {
	return NewDisk(name, size, 4096, RAMProfile, clock)
}

// NewDisk returns a disk with an explicit block size and latency profile.
func NewDisk(name string, size int64, blkSize int, p Profile, clock *simclock.Clock) *Disk {
	if size <= 0 {
		panic(fmt.Sprintf("blockdev: non-positive size %d for %s", size, name))
	}
	if blkSize <= 0 {
		blkSize = 4096
	}
	return &Disk{
		name:     name,
		data:     make([]byte, size),
		blkSize:  blkSize,
		profile:  p,
		clock:    clock,
		cached:   make([]bool, (size+cachePage-1)/cachePage),
		failRule: -1,
	}
}

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = fmt.Errorf("blockdev: access out of range")

// ErrWriteFault is returned for writes while write fault injection is on.
var ErrWriteFault = fmt.Errorf("blockdev: injected write fault")

// ImageLoader is implemented by devices that can have a raw image
// installed directly — the media literally holding these bytes, with no
// I/O charged and no fault-plane consultation. Power-loss simulation
// installs crash images through it; caches come back cold, exactly as
// after a real power cut.
type ImageLoader interface {
	LoadImage(img []byte) error
}

func (d *Disk) checkRange(n int, off int64) error {
	if off < 0 || n < 0 || off+int64(n) > int64(len(d.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, n, len(d.data), d.name)
	}
	return nil
}

// seekCost returns the positioning cost for a medium request at off,
// applying the sequential-locality discount.
func (d *Disk) seekCost(off int64) time.Duration {
	delta := off - d.lastEnd
	if delta < 0 {
		delta = -delta
	}
	if delta <= nearDistance {
		return d.profile.Seek / nearSeekDiv
	}
	return d.profile.Seek
}

func (d *Disk) charge(t time.Duration) {
	if d.clock != nil && t > 0 {
		d.clock.Advance(t)
	}
}

// pageRange returns the first and one-past-last cache page of a byte
// range.
func pageRange(off int64, n int) (int64, int64) {
	return off / cachePage, (off + int64(n) + cachePage - 1) / cachePage
}

// ReadAt implements Device. Cached pages cost RAM time; cold pages pay
// seek plus medium transfer and become cached.
func (d *Disk) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(len(p), off); err != nil {
		return err
	}
	if err := d.inj.OnRead(off, len(p)); err != nil {
		// A failed read transfers nothing and caches nothing, but the
		// request was issued: charge the positioning cost.
		d.reads++
		d.ctrReads.Inc()
		d.charge(d.seekCost(off))
		return err
	}
	copy(p, d.data[off:])
	first, last := pageRange(off, len(p))
	coldPages := 0
	for pg := first; pg < last; pg++ {
		if !d.cached[pg] {
			coldPages++
			d.cached[pg] = true
		}
	}
	if coldPages > 0 {
		d.reads++
		d.ctrReads.Inc()
		d.charge(d.seekCost(off) + time.Duration(coldPages*cachePage/1024)*d.profile.PerKiB)
		d.lastEnd = off + int64(len(p))
	}
	kib := (len(p) + 1023) / 1024
	d.charge(time.Duration(kib) * d.profile.CachedPerKiB)
	return nil
}

// WriteAt implements Device: write-through — the payload pays seek plus
// medium transfer, and the touched pages become cached.
func (d *Disk) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(len(p), off); err != nil {
		return err
	}
	dec := d.inj.OnWrite(off, len(p))
	if dec.Err != nil {
		return dec.Err
	}
	n := len(p)
	if dec.Persist >= 0 && dec.Persist < n {
		n = dec.Persist // torn write: only the prefix reaches the medium
	}
	copy(d.data[off:], p[:n])
	if dec.FlipBit >= 0 && dec.FlipBit < int64(len(p))*8 {
		d.data[off+dec.FlipBit/8] ^= 1 << uint(dec.FlipBit%8)
	}
	first, last := pageRange(off, len(p))
	for pg := first; pg < last; pg++ {
		d.cached[pg] = true
	}
	d.writes++
	d.ctrWrites.Inc()
	// The full request was issued and charged; the tear lives in the
	// medium, not the bus.
	kib := (len(p) + 1023) / 1024
	d.charge(d.seekCost(off) + time.Duration(kib)*d.profile.PerKiB)
	d.lastEnd = off + int64(len(p))
	if dec.Capture {
		img := make([]byte, len(d.data))
		copy(img, d.data)
		d.inj.SetCrashImage(img)
	}
	return nil
}

// Size implements Device.
func (d *Disk) Size() int64 { return int64(len(d.data)) }

// BlockSize implements Device.
func (d *Disk) BlockSize() int { return d.blkSize }

// Sync implements Device: a write barrier costing the profile's flush
// latency.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.charge(d.profile.Flush)
	return nil
}

// Snapshot implements Device. The image is read through the page cache
// (the paper mmaps the device, so resident pages cost RAM time).
func (d *Disk) Snapshot(dst []byte) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.obsHub.StartSpan(obs.LayerBlockdev, "snapshot:"+d.name).End()
	if len(dst) != len(d.data) {
		dst = make([]byte, len(d.data))
	}
	copy(dst, d.data)
	coldPages := 0
	for pg := range d.cached {
		if !d.cached[pg] {
			coldPages++
			d.cached[pg] = true
		}
	}
	if coldPages > 0 {
		d.reads++
		d.ctrReads.Inc()
		d.charge(d.profile.Seek + time.Duration(coldPages*cachePage/1024)*d.profile.PerKiB)
	}
	d.charge(time.Duration(len(d.data)/1024) * d.profile.CachedPerKiB)
	return dst, nil
}

// Restore implements Device: the image is written through to the medium
// sequentially.
func (d *Disk) Restore(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("blockdev: restore image size %d != device size %d (%s)", len(img), len(d.data), d.name)
	}
	if err := d.inj.OnControl(); err != nil {
		return err
	}
	defer d.obsHub.StartSpan(obs.LayerBlockdev, "restore:"+d.name).End()
	copy(d.data, img)
	for pg := range d.cached {
		d.cached[pg] = true
	}
	d.writes++
	d.ctrWrites.Inc()
	kib := (len(img) + 1023) / 1024
	d.charge(d.profile.Seek + time.Duration(kib)*d.profile.PerKiB)
	d.lastEnd = int64(len(img))
	return nil
}

// Name implements Device.
func (d *Disk) Name() string { return d.name }

// SetInjector attaches a fault-injection plane to the device (nil
// detaches). An active SetFailWrites shim rule stays on the injector it
// was installed on; install the injector before toggling the shim.
func (d *Disk) SetInjector(inj *fault.Injector) {
	d.mu.Lock()
	d.inj = inj
	d.failRule = -1
	d.mu.Unlock()
}

// Injector returns the attached fault plane (nil when none).
func (d *Disk) Injector() *fault.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inj
}

// SetFailWrites toggles all-writes-fail fault injection. It is a
// compatibility shim over the schedulable fault plane: enabling it
// installs an always-on fail-all rule (creating an injector if the
// device has none), disabling removes the rule.
func (d *Disk) SetFailWrites(fail bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fail == (d.failRule >= 0) {
		return
	}
	if fail {
		if d.inj == nil {
			d.inj = fault.New()
		}
		d.failRule = d.inj.AddRule(fault.Rule{
			Kind: fault.KindError, AtWrite: -1, Err: ErrWriteFault, AlwaysOn: true,
		})
		return
	}
	d.inj.RemoveRule(d.failRule)
	d.failRule = -1
}

// LoadImage implements ImageLoader: img becomes the device's contents
// with no I/O charge and no fault-plane consultation, and the page
// cache comes back cold — the state a power cut leaves behind.
func (d *Disk) LoadImage(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), len(d.data), d.name)
	}
	copy(d.data, img)
	for pg := range d.cached {
		d.cached[pg] = false
	}
	d.lastEnd = 0
	return nil
}

// LoadImageDelta installs img over the listed regions only: the media
// outside the regions is untouched, the pages under them come back cold.
// Like LoadImage it charges nothing and bypasses the fault plane — it is
// the power-cut installer for a crash image whose divergence from the
// current media is known (the injector's touch log). Callers own the
// correctness of regions: they must cover every byte where the device
// differs from img.
func (d *Disk) LoadImageDelta(img []byte, regions []fault.Region) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), len(d.data), d.name)
	}
	for _, r := range regions {
		if r.Len <= 0 {
			continue
		}
		end := r.Off + r.Len
		if r.Off < 0 || end > int64(len(d.data)) {
			return fmt.Errorf("%w: delta region off=%d len=%d size=%d dev=%s",
				ErrOutOfRange, r.Off, r.Len, len(d.data), d.name)
		}
		copy(d.data[r.Off:end], img[r.Off:end])
		first, last := pageRange(r.Off, int(r.Len))
		for pg := first; pg < last; pg++ {
			d.cached[pg] = false
		}
	}
	d.lastEnd = 0
	return nil
}

// Counters returns the number of medium read and write requests served
// (cache hits are not counted).
func (d *Disk) Counters() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// DropCaches empties the page cache (tests use it to force cold reads).
func (d *Disk) DropCaches() {
	d.mu.Lock()
	for i := range d.cached {
		d.cached[i] = false
	}
	d.mu.Unlock()
}
