package perfctr

import "testing"

func TestSnapshotIsolation(t *testing.T) {
	s := NewSet(4)
	s.Core(2).L2Miss = 10
	snap := s.Snapshot(2)
	s.Core(2).L2Miss = 99
	if snap.L2Miss != 10 {
		t.Fatal("snapshot must not alias live counters")
	}
}

func TestSubDelta(t *testing.T) {
	s := NewSet(1)
	before := s.Snapshot(0)
	s.Core(0).L2Miss += 7
	s.Core(0).DRAMLoads += 3
	s.Core(0).BusyCycles += 1000
	delta := s.Snapshot(0).Sub(before)
	if delta.L2Miss != 7 || delta.DRAMLoads != 3 || delta.BusyCycles != 1000 {
		t.Fatalf("delta = %+v", delta)
	}
	if delta.Misses() != 7 {
		t.Fatalf("Misses = %d, want 7", delta.Misses())
	}
}

func TestRollupGroups(t *testing.T) {
	// Four cores on two sockets (cores 0,1 → socket 0; cores 2,3 →
	// socket 1): rollup sums per-core files into per-socket totals.
	s := NewSet(4)
	for i := 0; i < 4; i++ {
		s.Core(i).BusyCycles = uint64(100 * (i + 1))
		s.Core(i).DRAMQueueCycles = uint64(10 * (i + 1))
		s.Core(i).LinkQueueCycles = uint64(i)
	}
	groupOf := []int{0, 0, 1, 1}
	dst := make([]Counters, 2)
	dst[0].Loads = 999 // stale scratch: RollupGroups must zero it
	got := RollupGroups(dst, s.SnapshotAll(), groupOf)
	if &got[0] != &dst[0] {
		t.Fatal("RollupGroups must reuse the caller's dst")
	}
	if got[0].Loads != 0 {
		t.Fatal("RollupGroups left stale scratch in dst")
	}
	if got[0].BusyCycles != 300 || got[1].BusyCycles != 700 {
		t.Fatalf("busy rollup = %d/%d, want 300/700", got[0].BusyCycles, got[1].BusyCycles)
	}
	if got[0].DRAMQueueCycles != 30 || got[1].DRAMQueueCycles != 70 {
		t.Fatalf("dram-queue rollup = %+v", got)
	}
	if got[0].LinkQueueCycles != 1 || got[1].LinkQueueCycles != 5 {
		t.Fatalf("link-queue rollup = %+v", got)
	}
}

func TestTotal(t *testing.T) {
	s := NewSet(3)
	for i := 0; i < 3; i++ {
		s.Core(i).Loads = uint64(i + 1)
	}
	if got := s.Total().Loads; got != 6 {
		t.Fatalf("Total.Loads = %d, want 6", got)
	}
}

func TestReset(t *testing.T) {
	s := NewSet(2)
	s.Core(0).Stores = 5
	s.Core(1).IdleCycles = 9
	s.Reset()
	if s.Total() != (Counters{}) {
		t.Fatal("Reset left residue")
	}
}

func TestSnapshotAll(t *testing.T) {
	s := NewSet(2)
	s.Core(1).RemoteFetches = 4
	all := s.SnapshotAll()
	if len(all) != 2 || all[1].RemoteFetches != 4 {
		t.Fatalf("SnapshotAll = %+v", all)
	}
	all[1].RemoteFetches = 100
	if s.Snapshot(1).RemoteFetches != 4 {
		t.Fatal("SnapshotAll must copy")
	}
}
