package jffs2sim

import (
	"bytes"
	"fmt"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/vfs"
)

// A write the log cannot hold must fail without touching anything else:
// GC checks that the live state fits before it erases, and a failed
// Write or Setattr leaves memory and flash as before the call.

// image returns the whole flash contents.
func image(tb testing.TB, mtd *blockdev.MTD) []byte {
	tb.Helper()
	img := make([]byte, mtd.Size())
	if err := mtd.ReadAt(img, 0); err != nil {
		tb.Fatal(err)
	}
	return img
}

// appendUntilFull appends chunks of the given sizes to ino, each size
// until the log refuses it with ENOSPC, and returns the file size.
func appendUntilFull(t *testing.T, f *FS, ino vfs.Ino, sizes ...int) int64 {
	t.Helper()
	st, e := f.Getattr(ino)
	if e != errno.OK {
		t.Fatal(e)
	}
	off := st.Size
	for _, n := range sizes {
		chunk := bytes.Repeat([]byte{byte(n)}, n)
		for {
			_, e := f.Write(ino, off, chunk)
			if e == errno.ENOSPC {
				break
			}
			if e != errno.OK {
				t.Fatalf("append %d bytes at %d: %v", n, off, e)
			}
			off += int64(n)
			if off > testSize {
				t.Fatalf("appended %d bytes to a %d-byte flash without ENOSPC", off, testSize)
			}
		}
	}
	return off
}

func TestENOSPCKeepsOtherFiles(t *testing.T) {
	f, mtd, clk := newVolume(t)
	big := mustCreate(t, f, f.Root(), "big")
	z := mustCreate(t, f, f.Root(), "z")
	zdata := bytes.Repeat([]byte("z"), 1000)
	if _, e := f.Write(z, 0, zdata); e != errno.OK {
		t.Fatal(e)
	}
	size := appendUntilFull(t, f, big, 8192)
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	g, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	zi, e := g.Lookup(g.Root(), "z")
	if e != errno.OK {
		t.Fatalf("z after ENOSPC and remount: %v", e)
	}
	if got, e := g.Read(zi, 0, 2000); e != errno.OK || !bytes.Equal(got, zdata) {
		t.Errorf("z content after remount: (%d bytes, %v), want 1000 bytes", len(got), e)
	}
	bi, e := g.Lookup(g.Root(), "big")
	if e != errno.OK {
		t.Fatalf("big after remount: %v", e)
	}
	if st, e := g.Getattr(bi); e != errno.OK || st.Size != size {
		t.Errorf("big after remount: size %d (%v), want %d", st.Size, e, size)
	}
}

func TestFailedWriteAndSetattrChangeNothing(t *testing.T) {
	f, mtd, clk := newVolume(t)
	big := mustCreate(t, f, f.Root(), "big")
	// Fill the log until not even a metadata-only node fits.
	size := appendUntilFull(t, f, big, 8192, 512, 64, 1, 0)
	old, e := f.Read(big, 0, int(size))
	if e != errno.OK {
		t.Fatal(e)
	}
	oldStat, _ := f.Getattr(big)
	oldStat.Atime = 0 // reads touch atime
	oldFlash := image(t, mtd)

	mode, zero := vfs.Mode(0600), int64(0)
	calls := []struct {
		name string
		call func() errno.Errno
	}{
		{"in-place overwrite", func() errno.Errno {
			_, e := f.Write(big, 0, bytes.Repeat([]byte{0xEE}, 4096))
			return e
		}},
		{"chmod plus truncate", func() errno.Errno {
			return f.Setattr(big, vfs.SetAttr{Mode: &mode, Size: &zero})
		}},
	}
	for _, c := range calls {
		if e := c.call(); e != errno.ENOSPC {
			t.Fatalf("%s on a full log: %v, want ENOSPC", c.name, e)
		}
		if got, e := f.Read(big, 0, int(size)); e != errno.OK || !bytes.Equal(got, old) {
			t.Errorf("failed %s changed the file's bytes in memory", c.name)
		}
		st, _ := f.Getattr(big)
		st.Atime = 0
		if st != oldStat {
			t.Errorf("failed %s changed the inode: %+v, want %+v", c.name, st, oldStat)
		}
		if !bytes.Equal(image(t, mtd), oldFlash) {
			t.Errorf("failed %s changed the flash", c.name)
		}
	}
	g, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	if got, e := g.Read(big, 0, int(size)); e != errno.OK || !bytes.Equal(got, old) {
		t.Error("remounted file differs from the state before the failed calls")
	}
}

// TestMountedStateOwnsItsBytes erases the whole flash under a mounted
// volume: the mount scan reads the flash in place, so any slice of it
// the in-memory state kept would change with it.
func TestMountedStateOwnsItsBytes(t *testing.T) {
	f, mtd, clk := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	a := mustCreate(t, f, d, "a")
	if _, e := f.Write(a, 0, bytes.Repeat([]byte("abc"), 700)); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(a, 5000, []byte("tail")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Symlink("dir/a", f.Root(), "link", 0, 0); e != errno.OK {
		t.Fatal(e)
	}
	g, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	before := walk(g)
	if err := Mkfs(mtd); err != nil {
		t.Fatal(err)
	}
	if after := walk(g); after != before {
		t.Errorf("mounted state changed when the flash was erased:\nbefore %s\nafter  %s", before, after)
	}
}

// walk renders every name, attribute, file content and link target
// reachable from the root, in directory order.
func walk(f *FS) string {
	var out bytes.Buffer
	seen := map[vfs.Ino]bool{}
	var visit func(ino vfs.Ino, path string)
	visit = func(ino vfs.Ino, path string) {
		if seen[ino] {
			return
		}
		seen[ino] = true
		st, e := f.Getattr(ino)
		st.Atime = 0 // reads and listings touch atime
		fmt.Fprintf(&out, "%s %v %+v", path, e, st)
		if data, e := f.Read(ino, 0, int(st.Size)); e == errno.OK {
			fmt.Fprintf(&out, " data=%q", data)
		}
		if target, e := f.Readlink(ino); e == errno.OK {
			fmt.Fprintf(&out, " target=%q", target)
		}
		out.WriteString("\n")
		ents, e := f.ReadDir(ino)
		if e != errno.OK {
			return
		}
		for _, ent := range ents {
			if ent.Name != "." && ent.Name != ".." {
				visit(ent.Ino, path+"/"+ent.Name)
			}
		}
	}
	visit(f.Root(), "")
	return out.String()
}
