//go:build race

package workload

// raceEnabled reports a -race build, whose detector randomizes sync.Pool
// reuse (fmt's buffers among others) and so the heap allocation counts
// that build_test.go pins.
const raceEnabled = true
