package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
)

// Reference twins for the word-wise flash paths: each fast path is
// checked against the byte-at-a-time loop it replaced.

// refFirstUnprogrammable is the byte loop MTD.Program used to run.
func refFirstUnprogrammable(cur, p []byte) int {
	for i, b := range p {
		if cur[i]&b != b {
			return i
		}
	}
	return -1
}

// randomProgram draws flash contents cur and a program payload p over
// it: mostly a legal program (p only clears bits of cur), sometimes
// with one byte that would need a 0 -> 1 flip.
func randomProgram(r *rand.Rand) (cur, p []byte) {
	n := r.Intn(200)
	cur = make([]byte, n)
	p = make([]byte, n)
	for i := range cur {
		if r.Intn(3) > 0 {
			cur[i] = 0xFF
		} else {
			cur[i] = byte(r.Intn(256))
		}
		p[i] = cur[i] & byte(r.Intn(256))
	}
	if n > 0 && r.Intn(2) == 0 {
		for tries := 0; tries < 4; tries++ {
			i := r.Intn(n)
			if cur[i] != 0xFF {
				p[i] |= ^cur[i] & -^cur[i] // set one bit cur lacks
				break
			}
		}
	}
	return cur, p
}

func TestProgramWordwiseMatchesByteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const size, es = 1024, 256
	for iter := 0; iter < 3000; iter++ {
		cur, p := randomProgram(r)
		want := refFirstUnprogrammable(cur, p)
		if got := firstUnprogrammable(cur, p); got != want {
			t.Fatalf("iter %d: firstUnprogrammable = %d, byte loop = %d (cur %x p %x)", iter, got, want, cur, p)
		}
		// End to end: accept/reject and the reported offset.
		off := int64(r.Intn(size - len(p) + 1))
		img := bytes.Repeat([]byte{0xFF}, size)
		copy(img[off:], cur)
		m := NewMTD("mtd0", size, es, nil)
		if err := m.LoadImage(img); err != nil {
			t.Fatal(err)
		}
		err := m.Program(p, off)
		if want < 0 {
			if err != nil {
				t.Fatalf("iter %d: legal program rejected: %v", iter, err)
			}
			got := make([]byte, len(p))
			if err := m.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("iter %d: programmed %x, read back %x", iter, p, got)
			}
			continue
		}
		wantErr := fmt.Sprintf("%v: off=%d dev=mtd0", ErrNotErased, off+int64(want))
		if err == nil || !errors.Is(err, ErrNotErased) || err.Error() != wantErr {
			t.Fatalf("iter %d: Program error = %v, want %q", iter, err, wantErr)
		}
	}
}

func TestEraseLeavesBlockErased(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, es := range []int{1, 3, 64, 4096, 8192} {
		m := NewMTD("mtd0", int64(es*4), es, nil)
		img := make([]byte, es*4)
		r.Read(img)
		if err := m.LoadImage(img); err != nil {
			t.Fatal(err)
		}
		blk := r.Intn(4)
		if err := m.Erase(blk); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(img))
		if err := m.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		copy(img[blk*es:], bytes.Repeat([]byte{0xFF}, es))
		if !bytes.Equal(got, img) {
			t.Errorf("erase size %d: block %d not all 0xFF, or a neighbour changed", es, blk)
		}
		if n := m.EraseCounts()[blk]; n != 1 {
			t.Errorf("erase size %d: erase count %d, want 1", es, n)
		}
	}
}

// TestViewChargesLikeReadAt reads every erase block through a view and
// through per-block ReadAt on twin devices: virtual time, read counters
// and an injected read fault must agree.
func TestViewChargesLikeReadAt(t *testing.T) {
	const size, es = 64 * 1024, 8 * 1024
	img := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(img)
	errFault := errors.New("injected read fault")
	for faultBlk := -1; faultBlk < size/es; faultBlk++ {
		type result struct {
			now   int64
			reads int64
			err   error
			data  []byte
		}
		run := func(scan func(m *MTD) ([]byte, error)) result {
			clk := simclock.New()
			h := obs.New(obs.Options{})
			m := NewMTD("mtd0", size, es, clk)
			m.SetObs(h)
			if err := m.LoadImage(img); err != nil {
				t.Fatal(err)
			}
			if faultBlk >= 0 {
				inj := fault.New()
				inj.AddRule(fault.Rule{Kind: fault.KindReadError, Off: int64(faultBlk*es + 17), Len: 1, Err: errFault})
				m.SetInjector(inj)
			}
			data, err := scan(m)
			return result{int64(clk.Now()), h.Counter("blockdev.mtd0.reads").Value(), err, data}
		}
		viaView := run(func(m *MTD) ([]byte, error) {
			var out []byte
			err := m.View(func(v *MTDView) error {
				for blk := 0; blk < size/es; blk++ {
					b, err := v.EraseBlock(blk)
					if err != nil {
						return err
					}
					out = append(out, b...)
				}
				return nil
			})
			return out, err
		})
		viaReadAt := run(func(m *MTD) ([]byte, error) {
			var out []byte
			buf := make([]byte, es)
			for blk := 0; blk < size/es; blk++ {
				if err := m.ReadAt(buf, int64(blk*es)); err != nil {
					return out, err
				}
				out = append(out, buf...)
			}
			return out, nil
		})
		if viaView.now != viaReadAt.now || viaView.reads != viaReadAt.reads {
			t.Errorf("fault block %d: view charged %d ns over %d reads, ReadAt %d ns over %d reads",
				faultBlk, viaView.now, viaView.reads, viaReadAt.now, viaReadAt.reads)
		}
		if viaView.err != viaReadAt.err || (faultBlk >= 0) != errors.Is(viaView.err, errFault) {
			t.Errorf("fault block %d: view error %v, ReadAt error %v", faultBlk, viaView.err, viaReadAt.err)
		}
		if !bytes.Equal(viaView.data, viaReadAt.data) {
			t.Errorf("fault block %d: view and ReadAt read different bytes", faultBlk)
		}
	}
}

// TestSnapshotReusesRightSizedDst checks the Device.Snapshot contract on
// both implementations: a right-sized dst is filled and returned, a nil
// or wrong-sized one is replaced, and the charge does not depend on dst.
func TestSnapshotReusesRightSizedDst(t *testing.T) {
	const size = 64 * 1024
	devs := []struct {
		name string
		mk   func(clk *simclock.Clock) Device
	}{
		{"disk", func(clk *simclock.Clock) Device { return NewRAM("ram0", size, clk) }},
		{"mtdblock", func(clk *simclock.Clock) Device { return NewMTDBlock(NewMTD("mtd0", size, 4096, clk)) }},
	}
	for _, dev := range devs {
		name, mk := dev.name, dev.mk
		var charges []int64
		for _, dst := range [][]byte{nil, make([]byte, size-1), make([]byte, size)} {
			clk := simclock.New()
			d := mk(clk)
			if err := d.WriteAt([]byte("image"), 100); err != nil {
				t.Fatal(err)
			}
			before := clk.Now()
			img, err := d.Snapshot(dst)
			if err != nil {
				t.Fatal(err)
			}
			charges = append(charges, int64(clk.Now()-before))
			if len(img) != size || string(img[100:105]) != "image" {
				t.Fatalf("%s dst len %d: snapshot has len %d", name, len(dst), len(img))
			}
			reused := len(dst) > 0 && &img[0] == &dst[0]
			if reused != (len(dst) == size) {
				t.Errorf("%s dst len %d: buffer reused = %v", name, len(dst), reused)
			}
		}
		if charges[0] == 0 || charges[1] != charges[0] || charges[2] != charges[0] {
			t.Errorf("%s: snapshot charges %v differ by dst", name, charges)
		}
	}
}
