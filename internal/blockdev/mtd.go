package blockdev

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
)

// MTD simulates an in-RAM flash character device, the stand-in for the
// mtdram kernel module the paper loads so JFFS2 has a device to mount.
//
// Flash semantics: the device is divided into erase blocks; bits can only
// be programmed from the erased state (0xFF) toward 0, so rewriting a
// region requires erasing its whole block first. JFFS2 is log-structured
// precisely to live within these rules.
type MTD struct {
	mu         sync.Mutex
	name       string
	data       []byte
	eraseSize  int
	clock      *simclock.Clock
	eraseCount []int64 // per-block erase counter (wear tracking)

	programCost time.Duration // per KiB programmed
	eraseCost   time.Duration // per block erase

	inj *fault.Injector // schedulable fault plane (nil = no faults)

	// Observability counters (nil unless SetObs was called).
	ctrReads, ctrWrites, ctrErases *obs.Counter
}

// SetObs attaches an observability hub, registering the device's read,
// write (program), and erase counters under "blockdev.<name>.reads",
// ".writes", and ".erases". Nil-safe.
func (m *MTD) SetObs(h *obs.Hub) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctrReads = h.Counter("blockdev." + m.name + ".reads")
	m.ctrWrites = h.Counter("blockdev." + m.name + ".writes")
	m.ctrErases = h.Counter("blockdev." + m.name + ".erases")
}

// NewMTD returns a flash device of the given size with the given erase
// block size. Size must be a multiple of eraseSize. The device starts
// fully erased (all 0xFF).
func NewMTD(name string, size int64, eraseSize int, clock *simclock.Clock) *MTD {
	if eraseSize <= 0 || size <= 0 || size%int64(eraseSize) != 0 {
		panic(fmt.Sprintf("blockdev: bad MTD geometry size=%d erase=%d", size, eraseSize))
	}
	m := &MTD{
		name:        name,
		data:        make([]byte, size),
		eraseSize:   eraseSize,
		clock:       clock,
		eraseCount:  make([]int64, size/int64(eraseSize)),
		programCost: 8 * time.Microsecond, // NOR-flash-like program speed per KiB
		eraseCost:   400 * time.Microsecond,
	}
	fillErased(m.data)
	return m
}

// fillErased sets every byte of p to the erased state (0xFF) by copy
// doubling: memmove speed instead of one store per byte.
func fillErased(p []byte) {
	if len(p) == 0 {
		return
	}
	p[0] = 0xFF
	for n := 1; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// firstUnprogrammable returns the index of the first byte of p that
// would need a bit flipped from 0 to 1 over cur (cur&b != b), or -1 when
// every byte only clears bits. cur must be at least as long as p. It
// screens 32 bytes at a time, then finds the failing 64-bit word; within
// that word the lowest offending byte holds the lowest set bit of
// p&^cur, since the words are loaded little-endian.
func firstUnprogrammable(cur, p []byte) int {
	le := binary.LittleEndian
	i := 0
	for ; i+32 <= len(p); i += 32 {
		q, c := p[i:i+32], cur[i:i+32]
		if le.Uint64(q)&^le.Uint64(c)|le.Uint64(q[8:])&^le.Uint64(c[8:])|
			le.Uint64(q[16:])&^le.Uint64(c[16:])|le.Uint64(q[24:])&^le.Uint64(c[24:]) != 0 {
			break
		}
	}
	for ; i+8 <= len(p); i += 8 {
		if bad := le.Uint64(p[i:]) &^ le.Uint64(cur[i:]); bad != 0 {
			return i + bits.TrailingZeros64(bad)/8
		}
	}
	for ; i < len(p); i++ {
		if cur[i]&p[i] != p[i] {
			return i
		}
	}
	return -1
}

// ErrNotErased is returned when a program operation would need to flip a
// bit from 0 to 1, which flash cannot do without an erase.
var ErrNotErased = fmt.Errorf("blockdev: programming non-erased flash")

// Size returns the device capacity in bytes.
func (m *MTD) Size() int64 { return int64(len(m.data)) }

// EraseSize returns the erase block size in bytes.
func (m *MTD) EraseSize() int { return m.eraseSize }

// Name identifies the device in logs.
func (m *MTD) Name() string { return m.name }

// ReadAt fills p from flash starting at off.
func (m *MTD) ReadAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.readLocked(off, len(p)); err != nil {
		return err
	}
	copy(p, m.data[off:])
	return nil
}

// readLocked bounds-checks, fault-checks, counts and charges one read of
// n bytes at off. m.mu must be held.
func (m *MTD) readLocked(off int64, n int) error {
	if off < 0 || off+int64(n) > int64(len(m.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, n, len(m.data), m.name)
	}
	err := m.inj.OnRead(off, n)
	m.ctrReads.Inc()
	if err != nil {
		return err
	}
	m.charge(time.Duration((n+1023)/1024) * time.Microsecond)
	return nil
}

// MTDView reads flash contents in place, under the device lock. It is
// valid only inside the View callback that received it.
type MTDView struct{ m *MTD }

// View holds the device lock while fn runs and hands fn a view that
// returns erase blocks without copying them. fn must not call other MTD
// methods (the lock is held), must not write through the slices the
// view returns, and must copy any bytes it keeps past its return.
func (m *MTD) View(fn func(v *MTDView) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := &MTDView{m: m}
	defer func() { v.m = nil }()
	return fn(v)
}

// EraseBlock returns erase block idx in place. The read is bounds-checked,
// fault-checked, counted and charged exactly as a ReadAt of the whole
// block would be.
func (v *MTDView) EraseBlock(idx int) ([]byte, error) {
	m := v.m
	off := int64(idx) * int64(m.eraseSize)
	if err := m.readLocked(off, m.eraseSize); err != nil {
		return nil, err
	}
	end := off + int64(m.eraseSize)
	return m.data[off:end:end], nil
}

// Program writes p at off. Every byte written must only clear bits (the
// region must have been erased, or already hold a superset of the bits).
func (m *MTD) Program(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), len(m.data), m.name)
	}
	if i := firstUnprogrammable(m.data[off:], p); i >= 0 {
		return fmt.Errorf("%w: off=%d dev=%s", ErrNotErased, off+int64(i), m.name)
	}
	dec := m.inj.OnWrite(off, len(p))
	if dec.Err != nil {
		return dec.Err
	}
	n := len(p)
	if dec.Persist >= 0 && dec.Persist < n {
		n = dec.Persist // torn program: only the prefix reaches the flash
	}
	copy(m.data[off:], p[:n])
	if dec.FlipBit >= 0 && dec.FlipBit < int64(len(p))*8 {
		m.data[off+dec.FlipBit/8] ^= 1 << uint(dec.FlipBit%8)
	}
	m.ctrWrites.Inc()
	m.charge(time.Duration((len(p)+1023)/1024) * m.programCost)
	if dec.Capture {
		img := make([]byte, len(m.data))
		copy(img, m.data)
		m.inj.SetCrashImage(img)
	}
	return nil
}

// Erase resets erase block idx to all 0xFF.
func (m *MTD) Erase(idx int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx < 0 || idx >= len(m.eraseCount) {
		return fmt.Errorf("%w: erase block %d of %d dev=%s", ErrOutOfRange, idx, len(m.eraseCount), m.name)
	}
	start := idx * m.eraseSize
	// An erase is one window event too (crash points can fall right after
	// it), but it is atomic: torn/corrupt decisions don't apply.
	dec := m.inj.OnWrite(int64(start), m.eraseSize)
	if dec.Err != nil {
		return dec.Err
	}
	fillErased(m.data[start : start+m.eraseSize])
	m.eraseCount[idx]++
	m.ctrErases.Inc()
	m.charge(m.eraseCost)
	if dec.Capture {
		img := make([]byte, len(m.data))
		copy(img, m.data)
		m.inj.SetCrashImage(img)
	}
	return nil
}

// EraseCounts returns a copy of the per-block erase counters.
func (m *MTD) EraseCounts() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.eraseCount))
	copy(out, m.eraseCount)
	return out
}

func (m *MTD) charge(d time.Duration) {
	if m.clock != nil {
		m.clock.Advance(d)
	}
}

// SetInjector attaches a fault-injection plane (nil detaches). Program
// and Erase each count as one fault-window event.
func (m *MTD) SetInjector(inj *fault.Injector) {
	m.mu.Lock()
	m.inj = inj
	m.mu.Unlock()
}

// Injector returns the attached fault plane (nil when none).
func (m *MTD) Injector() *fault.Injector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inj
}

// LoadImage implements ImageLoader: img becomes the flash contents with
// no I/O charge, no erase-count change, and no fault-plane consultation
// — the state a power cut leaves behind.
func (m *MTD) LoadImage(img []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(img) != len(m.data) {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), len(m.data), m.name)
	}
	copy(m.data, img)
	return nil
}

// MTDBlock bridges an MTD device to the Device interface, the stand-in
// for the mtdblock kernel module. The paper loads mtdblock so that Spin
// can mmap the flash contents through a block device; MCFS likewise takes
// snapshots of JFFS2's persistent state through this bridge.
//
// Like the real mtdblock, writes are implemented read-modify-erase-program
// on whole erase blocks, which is slow and wears the flash; JFFS2 itself
// never writes through the bridge (it programs the MTD directly), the
// bridge exists for state capture.
type MTDBlock struct {
	mtd *MTD
}

// NewMTDBlock wraps an MTD device in the block interface.
func NewMTDBlock(mtd *MTD) *MTDBlock { return &MTDBlock{mtd: mtd} }

// ReadAt implements Device.
func (b *MTDBlock) ReadAt(p []byte, off int64) error { return b.mtd.ReadAt(p, off) }

// WriteAt implements Device via read-modify-erase-program of every erase
// block the range touches.
func (b *MTDBlock) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > b.mtd.Size() {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), b.mtd.Size(), b.mtd.Name())
	}
	es := int64(b.mtd.EraseSize())
	for len(p) > 0 {
		blk := off / es
		blkStart := blk * es
		// Read the whole erase block, merge, erase, reprogram.
		buf := make([]byte, es)
		if err := b.mtd.ReadAt(buf, blkStart); err != nil {
			return err
		}
		n := copy(buf[off-blkStart:], p)
		if err := b.mtd.Erase(int(blk)); err != nil {
			return err
		}
		if err := b.mtd.Program(buf, blkStart); err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// Size implements Device.
func (b *MTDBlock) Size() int64 { return b.mtd.Size() }

// BlockSize implements Device.
func (b *MTDBlock) BlockSize() int { return b.mtd.EraseSize() }

// Sync implements Device; flash has no volatile cache, so this is a no-op.
func (b *MTDBlock) Sync() error { return nil }

// Snapshot implements Device.
func (b *MTDBlock) Snapshot(dst []byte) ([]byte, error) {
	if int64(len(dst)) != b.mtd.Size() {
		dst = make([]byte, b.mtd.Size())
	}
	if err := b.mtd.ReadAt(dst, 0); err != nil {
		return nil, err
	}
	return dst, nil
}

// Restore implements Device.
func (b *MTDBlock) Restore(img []byte) error {
	if int64(len(img)) != b.mtd.Size() {
		return fmt.Errorf("blockdev: restore image size %d != device size %d (%s)", len(img), b.mtd.Size(), b.mtd.Name())
	}
	es := b.mtd.EraseSize()
	for blk := 0; int64(blk*es) < b.mtd.Size(); blk++ {
		if err := b.mtd.Erase(blk); err != nil {
			return err
		}
		if err := b.mtd.Program(img[blk*es:(blk+1)*es], int64(blk*es)); err != nil {
			return err
		}
	}
	return nil
}

// LoadImage implements ImageLoader by delegating to the MTD device.
func (b *MTDBlock) LoadImage(img []byte) error { return b.mtd.LoadImage(img) }

// Name implements Device.
func (b *MTDBlock) Name() string { return b.mtd.Name() + "block" }
