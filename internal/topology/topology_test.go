package topology

import (
	"testing"
	"testing/quick"
)

func TestAMD16Valid(t *testing.T) {
	c := AMD16()
	if err := c.Validate(); err != nil {
		t.Fatalf("AMD16 invalid: %v", err)
	}
	if c.NumCores() != 16 {
		t.Errorf("NumCores = %d, want 16", c.NumCores())
	}
	// Paper §5: total cache space is 16 MB.
	if got := c.TotalOnChipBytes(); got != 16<<20 {
		t.Errorf("TotalOnChipBytes = %d, want %d", got, 16<<20)
	}
}

func TestSmallValid(t *testing.T) {
	if err := Small().Validate(); err != nil {
		t.Fatalf("Small invalid: %v", err)
	}
}

// TestPresetsValid checks every preset against Validate, including its
// rule that an L2 has at least as many sets as the L1 above it.
func TestPresetsValid(t *testing.T) {
	for _, c := range []Config{AMD16(), Tiny8(), Small(), NUMA64(), NUMA128(), NUMA256()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
}

func TestPaperLatencies(t *testing.T) {
	c := AMD16()
	if c.Lat.L1Hit != 3 || c.Lat.L2Hit != 14 || c.Lat.L3Hit != 75 {
		t.Errorf("local latencies %d/%d/%d, want 3/14/75",
			c.Lat.L1Hit, c.Lat.L2Hit, c.Lat.L3Hit)
	}
	// Remote fetch from a cache on the same chip: 127 cycles.
	if got := c.RemoteCacheLatency(0, 0); got != 127 {
		t.Errorf("same-chip remote cache = %d, want 127", got)
	}
	// Most distant DRAM bank (diagonal, 2 hops): 336 cycles.
	if got := c.DRAMLatency(0, 3); got != 336 {
		t.Errorf("most distant DRAM = %d, want 336", got)
	}
	if got := c.DRAMLatency(0, 0); got != 230 {
		t.Errorf("local DRAM = %d, want 230", got)
	}
}

func TestChipOfAndCoresOf(t *testing.T) {
	c := AMD16()
	for chip := 0; chip < c.Chips; chip++ {
		for _, core := range c.CoresOf(chip) {
			if c.ChipOf(core) != chip {
				t.Fatalf("core %d: ChipOf = %d, want %d", core, c.ChipOf(core), chip)
			}
		}
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	c := AMD16()
	f := func(a, b uint8) bool {
		ca, cb := int(a)%c.Chips, int(b)%c.Chips
		return c.HopDistance(ca, cb) == c.HopDistance(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopDistanceIdentityAndTriangle(t *testing.T) {
	c := AMD16()
	for a := 0; a < c.Chips; a++ {
		if c.HopDistance(a, a) != 0 {
			t.Fatalf("HopDistance(%d,%d) != 0", a, a)
		}
		for b := 0; b < c.Chips; b++ {
			for m := 0; m < c.Chips; m++ {
				if c.HopDistance(a, b) > c.HopDistance(a, m)+c.HopDistance(m, b) {
					t.Fatalf("triangle inequality violated for %d,%d via %d", a, b, m)
				}
			}
		}
	}
}

func TestRemoteLatencyMonotoneInDistance(t *testing.T) {
	c := AMD16()
	// 0 and 3 are diagonal (2 hops) on the 2x2 grid; 0 and 1 adjacent.
	if !(c.RemoteCacheLatency(0, 0) < c.RemoteCacheLatency(0, 1) &&
		c.RemoteCacheLatency(0, 1) < c.RemoteCacheLatency(0, 3)) {
		t.Error("remote cache latency should increase with hop distance")
	}
	if !(c.DRAMLatency(0, 0) < c.DRAMLatency(0, 1) && c.DRAMLatency(0, 1) < c.DRAMLatency(0, 3)) {
		t.Error("DRAM latency should increase with hop distance")
	}
}

func TestRemoteRangeMatchesPaper(t *testing.T) {
	// §5: "Remote fetch latencies vary from 127 cycles ... to 336 cycles".
	c := AMD16()
	min, max := c.RemoteCacheLatency(0, 0), c.DRAMLatency(0, 3)
	if min != 127 || max != 336 {
		t.Errorf("remote latency range [%d,%d], want [127,336]", min, max)
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{Size: 64 << 10, LineSize: 64, Assoc: 2}
	if got := g.Sets(); got != 512 {
		t.Errorf("Sets = %d, want 512", got)
	}
}

func TestCacheGeomValidate(t *testing.T) {
	bad := []CacheGeom{
		{Size: 0, LineSize: 64, Assoc: 2},
		{Size: 1024, LineSize: 0, Assoc: 2},
		{Size: 1024, LineSize: 48, Assoc: 2},  // not a power of two
		{Size: 1000, LineSize: 64, Assoc: 2},  // size not multiple of line
		{Size: 1024, LineSize: 64, Assoc: 0},  // bad assoc
		{Size: 1024, LineSize: 64, Assoc: 5},  // lines not divisible
		{Size: 3072, LineSize: 64, Assoc: 16}, // sets not power of two
	}
	for i, g := range bad {
		if err := g.Validate("test"); err == nil {
			t.Errorf("case %d: expected error for %+v", i, g)
		}
	}
	good := CacheGeom{Size: 1024, LineSize: 64, Assoc: 2}
	if err := good.Validate("test"); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestConfigValidateCatchesMistakes(t *testing.T) {
	c := AMD16()
	c.GridW = 3
	if err := c.Validate(); err == nil {
		t.Error("mismatched grid accepted")
	}

	c = AMD16()
	c.L1.LineSize = 128
	if err := c.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}

	c = AMD16()
	c.L2.Assoc = 32 // 256 sets under the L1's 512
	if err := c.Validate(); err == nil {
		t.Error("L2 with fewer sets than L1 accepted")
	}

	c = AMD16()
	c.CoreSpeed = []float64{1, 2}
	if err := c.Validate(); err == nil {
		t.Error("short CoreSpeed accepted")
	}

	c = AMD16()
	c.ClockHz = 0
	if err := c.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
}

func TestSpeedOfDefaults(t *testing.T) {
	c := AMD16()
	if c.SpeedOf(5) != 1.0 {
		t.Error("homogeneous machine should report speed 1.0")
	}
	c.CoreSpeed = make([]float64, 16)
	for i := range c.CoreSpeed {
		c.CoreSpeed[i] = 1
	}
	c.CoreSpeed[3] = 2
	if c.SpeedOf(3) != 2.0 || c.SpeedOf(4) != 1.0 {
		t.Error("CoreSpeed not honored")
	}
}

func TestPerCoreBudget(t *testing.T) {
	c := AMD16()
	want := 512<<10 + (2<<20)/4 // L2 + share of L3 = 1 MB
	if got := c.PerCoreBudgetBytes(); got != want {
		t.Errorf("PerCoreBudgetBytes = %d, want %d", got, want)
	}
	// Sum of per-core budgets equals the total packable capacity.
	if got := c.PerCoreBudgetBytes() * c.NumCores(); got != c.TotalOnChipBytes() {
		t.Errorf("budgets sum to %d, want %d", got, c.TotalOnChipBytes())
	}
}
