package stats

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzHistogram checks Merge and Quantile against one histogram fed every
// sample directly. The histograms share bounds of first, growth, and
// bucket count drawn from the first three arguments. Each 3-byte group of
// samples is one observation: its first byte sends it to A (even) or B
// (odd), the next two are its value in quarter units, so values land on
// bucket bounds, between them, and in the overflow bucket.
//
// Merging A into B must give the single histogram's Counts, Total, Max,
// and Quantile at every q; Quantile must be monotone in q and never
// exceed Max; and a Merge of mismatched bounds must fail and leave the
// receiver unchanged.
func FuzzHistogram(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(8), []byte{0, 0, 4, 1, 0, 40, 0, 1, 0, 1, 255, 255, 0, 0, 16})
	f.Add(uint8(0), uint8(1), uint8(0), []byte{1, 0, 1})
	f.Add(uint8(63), uint8(15), uint8(23), []byte{})
	f.Fuzz(func(t *testing.T, first, growth, nbuckets uint8, samples []byte) {
		lo := float64(first%64+1) / 4
		g := 1 + float64(growth%16+1)/8
		n := int(nbuckets%24) + 2
		a, b, all := NewHistogramGrowth(lo, g, n), NewHistogramGrowth(lo, g, n), NewHistogramGrowth(lo, g, n)
		for ; len(samples) >= 3; samples = samples[3:] {
			x := float64(uint16(samples[1])<<8|uint16(samples[2])) / 4
			if samples[0]&1 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
			all.Add(x)
		}

		if err := b.Merge(a); err != nil {
			t.Fatalf("merging equal bounds: %v", err)
		}
		if !slices.Equal(b.Counts, all.Counts) || b.Total() != all.Total() || b.Max() != all.Max() {
			t.Fatalf("merged counts %v total %d max %v, direct %v total %d max %v",
				b.Counts, b.Total(), b.Max(), all.Counts, all.Total(), all.Max())
		}
		prev := 0.0
		for i := 0; i <= 200; i++ {
			q := float64(i) / 200
			got := b.Quantile(q)
			if want := all.Quantile(q); got != want {
				t.Fatalf("Quantile(%v) merged %v, direct %v", q, got, want)
			}
			if got < prev {
				t.Fatalf("Quantile(%v) = %v below Quantile at the previous q, %v", q, got, prev)
			}
			if got > b.Max() {
				t.Fatalf("Quantile(%v) = %v exceeds Max %v", q, got, b.Max())
			}
			prev = got
		}

		before := *b
		before.Bounds, before.Counts = slices.Clone(b.Bounds), slices.Clone(b.Counts)
		others := []*Histogram{
			NewHistogramGrowth(lo, g, n+1), // one more bucket
			NewHistogramGrowth(lo*2, g, n), // every bound shifted
		}
		if n > 2 {
			others = append(others, NewHistogramGrowth(lo, g+0.5, n)) // equal first bound only
		}
		for _, other := range others {
			other.Add(lo)
			other.Add(1e9)
			if err := b.Merge(other); err == nil {
				t.Fatalf("merging bounds %v into %v succeeded", other.Bounds, b.Bounds)
			}
			if !reflect.DeepEqual(*b, before) {
				t.Fatalf("a failed Merge changed the receiver: %+v, was %+v", *b, before)
			}
		}
	})
}
