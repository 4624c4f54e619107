package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
)

// benchLines is sized like a busy Tiny8 run: a few thousand simultaneously
// tracked lines, far more lines cycled through over time.
const benchLines = 4096

func populatedDirectory() *Directory {
	d := NewDirectory(20)
	for i := 0; i < benchLines; i++ {
		l := cache.Line(i * 3) // stride so line numbers aren't dense
		d.AddSharer(l, Node(i%16))
		if i%4 == 0 {
			d.AddSharer(l, Node(16+i%4))
		}
	}
	return d
}

// BenchmarkDirectoryLookup measures the reads the machine model makes on
// every L2 miss against a populated directory, whose pages are all mapped
// before the timer starts: resolve the line's slot, test the chip L3's
// bit, and read the holder words in place. It allocates nothing.
func BenchmarkDirectoryLookup(b *testing.B) {
	d := populatedDirectory()
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		s := d.SlotOf(cache.Line((i % benchLines) * 3))
		if d.HoldsAt(s, 16) {
			sink++
		}
		sink += d.HolderWordsAt(s)[0]
	}
	benchSink = sink
}

// BenchmarkDirectoryChurn measures the write path mix: add a sharer, mark
// an owner, remove — the sequence evictions and installs generate. Every
// page is mapped before the timer starts, so it allocates nothing.
func BenchmarkDirectoryChurn(b *testing.B) {
	d := NewDirectory(20)
	for l := cache.Line(0); l < benchLines; l += pageLines {
		d.AddSharer(l, 0)
		d.RemoveSharer(l, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := cache.Line(i % benchLines)
		d.AddSharer(l, Node(i%16))
		d.SetOwner(l, Node(i%16))
		d.RemoveSharer(l, Node(i%16))
	}
}

// BenchmarkDirectoryScanWide is the directory at the kv-numa256
// workload's scale: a 288-node (NUMA256) directory over 1M lines, a 64 MB
// image at 64 B lines, far past the host's caches. One op is a 1,024-line
// sequential scan from a seeded random start — one shard scan — making
// the miss path's calls on each line: SlotOf once, then HoldsAt for the
// chip's L3 gate, HolderWordsAt to find the line's holders and
// AddSharerAt for the scanning core, plus MoveSharer of the line one page
// back into the chip's L3 (an L2 victim) and RemoveSharer of the line two
// pages back from that L3 (a writeback). Every page is
// mapped before the timer starts, so ops measure the steady state, which
// allocates nothing. It reports ns/line.
func BenchmarkDirectoryScanWide(b *testing.B) {
	const (
		lines   = 1 << 20
		scanLen = 1024
		cores   = 256
	)
	d := NewDirectory(cores + cores/8)
	for l := cache.Line(0); l < lines; l += pageLines {
		d.AddSharer(l, 0)
		d.RemoveSharer(l, 0)
	}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		start := cache.Line(2*pageLines + rng.Intn(lines-scanLen-2*pageLines))
		core := Node(rng.Intn(cores))
		l3 := Node(cores) + core/8
		for l := start; l < start+scanLen; l++ {
			s := d.SlotOf(l)
			if !d.HoldsAt(s, l3) {
				sink += d.HolderWordsAt(s)[0]
			}
			d.AddSharerAt(s, core)
			d.MoveSharer(l-pageLines, core, l3)
			d.RemoveSharer(l-2*pageLines, l3)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*scanLen), "ns/line")
	benchSink = sink
}

var benchSink uint64
