package blockdev

import (
	"testing"

	"mcfs/internal/simclock"
)

// BenchmarkMTDRestore measures one snapshot-and-restore of a 256 KiB
// flash through the mtdblock bridge: a copy into a reused image, then a
// per-block erase and program of the whole device.
func BenchmarkMTDRestore(b *testing.B) {
	m := NewMTD("mtd0", 256*1024, 8*1024, simclock.New())
	dev := NewMTDBlock(m)
	img, err := dev.Snapshot(nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := range img {
		img[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.Restore(img); err != nil {
			b.Fatal(err)
		}
		if img, err = dev.Snapshot(img); err != nil {
			b.Fatal(err)
		}
	}
}
