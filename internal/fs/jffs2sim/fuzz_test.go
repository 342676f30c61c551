package jffs2sim

import (
	"bytes"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
)

// FuzzMount geometry: small enough that the fuzzer's inputs cover the
// whole flash, big enough for several maximal nodes per erase block.
const (
	fuzzSize      = 8 * 1024
	fuzzEraseSize = 2 * 1024
)

// fuzzVolume returns a populated volume on fuzz-sized flash.
func fuzzVolume(tb testing.TB) (*FS, *blockdev.MTD) {
	tb.Helper()
	mtd := blockdev.NewMTD("mtd0", fuzzSize, fuzzEraseSize, nil)
	if err := Mkfs(mtd); err != nil {
		tb.Fatal(err)
	}
	f, err := Mount(mtd, nil)
	if err != nil {
		tb.Fatal(err)
	}
	d, e := f.Mkdir(f.Root(), "dir", 0755, 0, 0)
	if e != errno.OK {
		tb.Fatal(e)
	}
	a, e := f.Create(d, "a", 0644, 0, 0)
	if e != errno.OK {
		tb.Fatal(e)
	}
	if _, e := f.Write(a, 0, bytes.Repeat([]byte("data"), 200)); e != errno.OK {
		tb.Fatal(e)
	}
	if _, e := f.Symlink("dir/a", f.Root(), "link", 0, 0); e != errno.OK {
		tb.Fatal(e)
	}
	if e := f.Link(a, f.Root(), "hard"); e != errno.OK {
		tb.Fatal(e)
	}
	return f, mtd
}

// FuzzMount mounts arbitrary flash images. A mount must not fail or
// panic, must not write the flash, and must be deterministic: two mounts
// of one image expose the same tree.
func FuzzMount(f *testing.F) {
	_, mtd := fuzzVolume(f)
	f.Add(image(f, mtd))

	// A power cut mid-program: the dirent node of the last create keeps
	// only its header and three payload bytes.
	vol, mtd := fuzzVolume(f)
	inj := fault.New()
	mtd.SetInjector(inj)
	inj.AddRule(fault.Rule{Kind: fault.KindTorn, AtWrite: 1, PersistBytes: nodeHeader + 3})
	inj.StartWindow()
	if _, e := vol.Create(vol.Root(), "torn", 0644, 0, 0); e != errno.OK {
		f.Fatal(e)
	}
	inj.EndWindow()
	mtd.SetInjector(nil)
	f.Add(image(f, mtd))

	f.Fuzz(func(t *testing.T, img []byte) {
		flash := bytes.Repeat([]byte{0xFF}, fuzzSize)
		copy(flash, img)
		mtd := blockdev.NewMTD("mtd0", fuzzSize, fuzzEraseSize, nil)
		if err := mtd.LoadImage(flash); err != nil {
			t.Fatal(err)
		}
		a, err := Mount(mtd, nil)
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		b, err := Mount(mtd, nil)
		if err != nil {
			t.Fatalf("second mount: %v", err)
		}
		if wa, wb := walk(a), walk(b); wa != wb {
			t.Errorf("two mounts of one image differ:\n%s\n%s", wa, wb)
		}
		if !bytes.Equal(image(t, mtd), flash) {
			t.Error("mount wrote the flash")
		}
	})
}
