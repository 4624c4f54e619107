package o2

import "repro/internal/stats"

// Seeding scheme of the sweep engine.
//
// Every measurement in a Sweep gets its own seed, derived purely from the
// sweep's base seed, the cell's position in the grid, and the repeat
// number:
//
//	seed(cell, repeat) = DeriveSeed(base, cellIndex, repeat)
//
// Because the derivation is a pure function of those values, the seed a
// measurement receives does not depend on how many workers execute the
// sweep or in what order cells happen to finish — the core property behind
// the -workers=1 vs -workers=8 determinism guarantee. The derived seed is
// installed both as the runtime's base seed (WithSeed, reaching every
// internal stream through the simulation engine) and as RunParams.Seed
// (driving the workload's directory-choice RNG).

// DeriveSeed deterministically derives a child seed from a base seed and a
// sequence of strata (for example: cell index, repeat number) using
// SplitMix64 steps. Equal inputs give equal outputs on every platform;
// distinct strata give decorrelated seeds.
func DeriveSeed(base uint64, strata ...uint64) uint64 {
	return stats.DeriveSeed(base, strata...)
}

// cellSeed returns the seed the sweep engine assigns to one repeat of one
// cell; a test reproduces a single cell of a sweep in isolation with it.
func cellSeed(base uint64, cellIndex, repeat int) uint64 {
	return stats.DeriveSeed(base, uint64(cellIndex), uint64(repeat))
}
