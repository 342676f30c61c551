package tracker

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcfs/internal/kernel"
	"mcfs/internal/vfs"
)

// mutate changes the mounted file system a little. Errors are expected
// (a disk-only restore leaves a stale mount) and ignored: only the
// device bytes matter here.
func mutate(k *kernel.Kernel, r *rand.Rand) {
	path := fmt.Sprintf("/mnt/f%d", r.Intn(6))
	if r.Intn(4) == 0 {
		k.Unlink(path)
		return
	}
	fd, e := k.Open(path, vfs.OCreate|vfs.OWrOnly, 0644)
	if e != 0 {
		return
	}
	k.WriteFD(fd, bytes.Repeat([]byte{byte(r.Intn(256))}, 1+r.Intn(3000)))
	k.Close(fd)
}

// TestImageReuseMatchesFreshCopies drives random checkpoint, restore,
// discard and write sequences through both device-level trackers and
// checks their recycled images against fresh copies: every live image
// equals the copy taken at its checkpoint, a restore puts exactly that
// image on the device, and no two live keys (nor a live key and the
// free list) share a buffer.
func TestImageReuseMatchesFreshCopies(t *testing.T) {
	for _, kind := range []string{"ext2", "ext4", "jffs2"} {
		for _, name := range []string{"remount", "disk-only"} {
			t.Run(kind+"/"+name, func(t *testing.T) {
				k, dev := deviceKernel(t, kind)
				var store *imageStore
				var tr Tracker
				if name == "remount" {
					rt := NewRemount(k, "/mnt", false)
					tr, store = rt, &rt.images
				} else {
					dt := NewDiskOnly(k, "/mnt")
					tr, store = dt, &dt.images
				}
				r := rand.New(rand.NewSource(int64(len(kind) + len(name))))
				ref := map[uint64][]byte{}
				for step := 0; step < 300; step++ {
					key := uint64(r.Intn(4))
					switch r.Intn(4) {
					case 0:
						if err := tr.Checkpoint(key); err != nil {
							t.Fatalf("step %d: checkpoint %d: %v", step, key, err)
						}
						img, err := dev.Snapshot(nil)
						if err != nil {
							t.Fatal(err)
						}
						ref[key] = img
					case 1:
						want, ok := ref[key]
						if !ok {
							continue
						}
						delete(ref, key)
						if err := tr.Restore(key); err != nil {
							t.Fatalf("step %d: restore %d: %v", step, key, err)
						}
						got, err := dev.Snapshot(nil)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("step %d: device after restore %d differs from its checkpoint", step, key)
						}
					case 2:
						tr.Discard(key)
						delete(ref, key)
					default:
						mutate(k, r)
					}
					checkStore(t, step, store, ref)
				}
			})
		}
	}
}

// checkStore asserts the store holds exactly ref's images, each in its
// own buffer, with no free buffer still live.
func checkStore(t *testing.T, step int, s *imageStore, ref map[uint64][]byte) {
	t.Helper()
	if len(s.live) != len(ref) {
		t.Fatalf("step %d: %d live images, want %d", step, len(s.live), len(ref))
	}
	owner := map[*byte]string{}
	claim := func(buf []byte, who string) {
		if prev, ok := owner[&buf[0]]; ok {
			t.Fatalf("step %d: %s and %s share a buffer", step, prev, who)
		}
		owner[&buf[0]] = who
	}
	for key, img := range s.live {
		if !bytes.Equal(img, ref[key]) {
			t.Fatalf("step %d: live image %d differs from its fresh copy", step, key)
		}
		claim(img, fmt.Sprintf("key %d", key))
	}
	for i, buf := range s.free {
		claim(buf, fmt.Sprintf("free[%d]", i))
	}
}

// BenchmarkRemountCheckpointRestore measures one remount-tracker round
// trip (checkpoint, one write, restore) per iteration, the per-state
// cost of exploring a device-backed file system.
func BenchmarkRemountCheckpointRestore(b *testing.B) {
	for _, kind := range []string{"ext4", "jffs2"} {
		b.Run(kind, func(b *testing.B) {
			k, _ := deviceKernel(b, kind)
			tr := NewRemount(k, "/mnt", false)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 4; i++ {
				mutate(k, r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Checkpoint(1); err != nil {
					b.Fatal(err)
				}
				mutate(k, r)
				if err := tr.Restore(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
