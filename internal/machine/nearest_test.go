package machine

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/stats"
	"repro/internal/topology"
)

// bitWalkNearest is the holder search as it was before distance classes,
// kept as the reference: walk each non-zero holder word's bits in
// ascending node order, keep a strictly nearer chip, stop at distance 0,
// then keep the word whose best is strictly nearer.
func bitWalkNearest(m *Machine, myChip int, words []uint64) (chip int, found bool) {
	const far = int(^uint(0) >> 1)
	inWord := func(mask uint64, base int) int {
		best, bestDist := 0, far
		for mm := mask; mm != 0; {
			node := base + bits.TrailingZeros64(mm)
			mm &= mm - 1
			c := m.nodeChip(node)
			if d := m.hop[myChip][c]; d < bestDist {
				best, bestDist = c, d
				if d == 0 {
					break
				}
			}
		}
		return best
	}
	best, bestDist := 0, far
	for w, mask := range words {
		if mask == 0 {
			continue
		}
		found = true
		c := inWord(mask, w*64)
		if d := m.hop[myChip][c]; d < bestDist {
			best, bestDist = c, d
			if d == 0 {
				break
			}
		}
	}
	return best, found
}

// TestNearestHolderChipIsLowestNearest checks the distance-class holder
// search against the bit walk it replaced and against its definition —
// the chip of the lowest-numbered holder at the minimum hop distance —
// from every chip of AMD16 (one holder word), wideFuzzConfig and NUMA64
// (two) and NUMA256 (five), for an empty set, one holder at the farthest
// distance, the L3 nodes alone, every node, and seeded random sets.
func TestNearestHolderChipIsLowestNearest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  topology.Config
	}{
		{"amd16", topology.AMD16()},
		{"wide-fuzz", wideFuzzConfig()},
		{"numa64", topology.NUMA64()},
		{"numa256", topology.NUMA256()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(tc.cfg, 1<<20)
			d := m.Directory()
			nodes := d.Nodes()
			rng := stats.NewRNG(0x4EA7)
			const l = cache.Line(5)
			for chip := 0; chip < tc.cfg.Chips; chip++ {
				far := 0
				for n := 0; n < nodes; n++ {
					if m.hop[chip][m.nodeChip(n)] > m.hop[chip][m.nodeChip(far)] {
						far = n
					}
				}
				sets := [][]int{nil, {far}, nil, nil}
				for n := 0; n < nodes; n++ {
					if n >= m.ncores {
						sets[2] = append(sets[2], n)
					}
					sets[3] = append(sets[3], n)
				}
				for _, density := range []int{2, 16, 128, 128, 1024} {
					var set []int
					for n := 0; n < nodes; n++ {
						if rng.Intn(density) == 0 {
							set = append(set, n)
						}
					}
					sets = append(sets, set)
				}
				for _, set := range sets {
					d.Reset()
					for _, n := range set {
						d.AddSharer(l, coherence.Node(n))
					}
					s := d.SlotOf(l)
					words := append([]uint64(nil), d.HolderWordsAt(s)...)
					got, found := m.nearestHolderChip(chip, s)
					ref, refFound := bitWalkNearest(m, chip, words)
					want, wantFound := 0, len(set) > 0
					if wantFound {
						best := set[0]
						for _, n := range set {
							if m.hop[chip][m.nodeChip(n)] < m.hop[chip][m.nodeChip(best)] {
								best = n
							}
						}
						want = m.nodeChip(best)
					}
					if found != wantFound || refFound != wantFound || (wantFound && (got != want || ref != want)) {
						t.Fatalf("chip %d, holders %v: got chip %d found %v, bit walk %d %v, want %d %v",
							chip, set, got, found, ref, refFound, want, wantFound)
					}
				}
			}
		})
	}
}
