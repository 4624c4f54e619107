package o2

// This file is the KVService scenario: a sharded in-memory key-value
// store built on a Runtime, the first o2 scenario beyond the paper's file
// system workloads. Its siblings are kvload.go (the deterministic Zipf
// load generator and closed-loop driver) and kvsweep.go (placement
// policies, sweep axes, and the kv preset).
//
// The store models the data plane of a real service: keys hash to shards,
// each shard is one schedulable object (a contiguous slot table), and
// clients issue point gets, full-shard range scans, and point puts. The
// shape deliberately pulls placement policies in opposite directions —
// scans reward keeping a shard on one core, skewed point reads punish
// funneling a hot shard through one core — which is exactly the tension
// the paper's §6.2 read-only replication extension resolves.

import (
	"fmt"

	"repro/internal/workload"
)

// Default KVSpec dimensions.
const (
	defaultKVShards    = 16
	defaultKVSlots     = 128
	defaultKVSlotBytes = 64
)

// getProbeSlots is how many consecutive slots a point get reads: the
// open-addressing probe run that scans collision candidates before
// deserializing the value.
const getProbeSlots = 8

// Per-operation computation costs in cycles: key compares plus value
// deserialization for gets, serialization for puts, and per-byte compare
// cost for scans.
const (
	getCompute     = 160
	putCompute     = 30
	scanPerByteCPU = 0.03
)

// KVSpec sizes a KVService: Shards slot tables of SlotsPerShard slots of
// SlotBytes bytes, addressed by a Keys-entry key space. Zero fields take
// the defaults (16 shards × 128 slots × 64 B, Keys = one key per slot).
// Keys may far exceed the slot capacity — the store is a hash table, so
// extra keys alias slots — which is how the scenario reaches million-key
// scale on kilobyte-scale machines.
type KVSpec struct {
	Shards        int
	SlotsPerShard int
	SlotBytes     int
	// Keys is the size of the key space load generators draw from; keys
	// are the integers [0, Keys).
	Keys int
}

// WithDefaults returns the spec with zero fields filled in.
func (s KVSpec) WithDefaults() KVSpec {
	if s.Shards == 0 {
		s.Shards = defaultKVShards
	}
	if s.SlotsPerShard == 0 {
		s.SlotsPerShard = defaultKVSlots
	}
	if s.SlotBytes == 0 {
		s.SlotBytes = defaultKVSlotBytes
	}
	if s.Keys == 0 {
		s.Keys = s.Shards * s.SlotsPerShard
	}
	return s
}

func (s KVSpec) validate() error {
	if s.Shards <= 0 || s.SlotsPerShard <= 0 || s.SlotBytes <= 0 || s.Keys <= 0 {
		return fmt.Errorf("o2: KVSpec fields must be positive, got %+v", s)
	}
	return nil
}

// ShardBytes returns one shard's slot-table size.
func (s KVSpec) ShardBytes() int { return s.SlotsPerShard * s.SlotBytes }

// TotalBytes returns the store's data footprint across all shards.
func (s KVSpec) TotalBytes() int { return s.Shards * s.ShardBytes() }

// ImageBytes returns the memory-image size the scenario needs: the store
// plus room for locks and thread contexts.
func (s KVSpec) ImageBytes() int { return s.TotalBytes() + (1 << 20) }

// KVService is a sharded key-value store living in simulated memory: one
// schedulable object per shard. Build one with Runtime.NewKVService,
// drive it with Run (the closed-loop load generator in kvload.go) or
// compose the per-operation primitives (Get/Scan/Put) under explicit
// Begin/End handles.
type KVService struct {
	rt     *Runtime
	spec   KVSpec
	shards []*Object
	zipf   zipfTable // reused across Runs
}

// NewKVService allocates the store's shards in the runtime's memory image
// and registers each as a schedulable object. It must run before any
// thread starts.
func (rt *Runtime) NewKVService(spec KVSpec) (*KVService, error) {
	spec = spec.WithDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := rt.ensure(spec.ImageBytes()); err != nil {
		return nil, err
	}
	s := &KVService{rt: rt, spec: spec}
	for i := 0; i < spec.Shards; i++ {
		obj, err := rt.NewObject(fmt.Sprintf("kv/shard%03d", i), spec.ShardBytes())
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, obj)
	}
	return s, nil
}

// Spec returns the store's resolved dimensions.
func (s *KVService) Spec() KVSpec { return s.spec }

// Runtime returns the runtime the store was built on.
func (s *KVService) Runtime() *Runtime { return s.rt }

// NumShards returns the shard count.
func (s *KVService) NumShards() int { return len(s.shards) }

// Shard returns shard i's schedulable object, for Begin/End, Placement,
// and clustering hints.
func (s *KVService) Shard(i int) *Object { return s.shards[i] }

// ShardOf returns the shard owning key. Dense key ranges balance across
// shards to within one key.
func (s *KVService) ShardOf(key uint64) int {
	return workload.ShardOf(key, s.spec.Shards)
}

// SlotOf returns key's slot within its shard's table. The slot depends
// only on the key and the slot count — never on the shard count — and the
// key is avalanche-hashed first, so structured key streams (dense ranges,
// multiples of the shard count) spread over the whole table instead of
// collapsing onto slot 0 the way the naive (key/shards)%slots stripe
// does.
func (s *KVService) SlotOf(key uint64) int {
	return workload.SlotOf(key, s.spec.SlotsPerShard)
}

// SlotAddr returns the simulated address of key's slot.
func (s *KVService) SlotAddr(key uint64) Addr {
	shard := s.shards[s.ShardOf(key)]
	return shard.Addr(s.SlotOf(key) * s.spec.SlotBytes)
}

// Get charges a point read of key: an open-addressing probe over a short
// run of collision slots plus key-compare/deserialize computation. The
// caller brackets it (BeginRO for the replication extension to see the
// read-only promise):
//
//	op := t.BeginRO(s.Shard(s.ShardOf(key)))
//	s.Get(t, key)
//	op.End()
func (s *KVService) Get(t *Thread, key uint64) {
	probe := getProbeSlots
	if probe > s.spec.SlotsPerShard {
		probe = s.spec.SlotsPerShard
	}
	slot := s.SlotOf(key)
	// Clamp the probe run to the table's end instead of wrapping: one
	// contiguous load models the prefetch-friendly scan a real probe is.
	if slot+probe > s.spec.SlotsPerShard {
		slot = s.spec.SlotsPerShard - probe
	}
	shard := s.shards[s.ShardOf(key)]
	t.Load(shard.Addr(slot*s.spec.SlotBytes), probe*s.spec.SlotBytes)
	t.Compute(getCompute)
}

// Scan charges a range query over shard i: reading every slot with
// per-byte compare cost, the whole-object read that rewards placement.
func (s *KVService) Scan(t *Thread, shard int) {
	obj := s.shards[shard]
	t.LoadCompute(obj.Addr(0), obj.Size(), scanPerByteCPU)
}

// Put charges a point write of key's slot plus serialization cost.
func (s *KVService) Put(t *Thread, key uint64) {
	t.Store(s.SlotAddr(key), s.spec.SlotBytes)
	t.Compute(putCompute)
}
