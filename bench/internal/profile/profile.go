// Package profile reads the CPU profiles runtime/pprof writes and
// attributes each sample's time to one layer of the simulator.
//
// It decodes the gzip-compressed profile.proto format with the standard
// library alone: the benchmark must build in a checkout with no module
// downloads, so it cannot depend on github.com/google/pprof.
package profile

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Sample is one stack sample of a CPU profile.
type Sample struct {
	// Frames are the function names of the stack, innermost first, with
	// inlined calls expanded.
	Frames []string
	// Nanos is the CPU time the sample stands for.
	Nanos int64
}

// Parse decodes a gzip-compressed CPU profile.
func Parse(r io.Reader) ([]Sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decode(raw)
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

type rawSample struct {
	locs   []uint64
	values []int64
}

func decode(raw []byte) ([]Sample, error) {
	var (
		strs      []string
		unitIdx   []int64 // sample_type units, as string indices
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
	)
	err := fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeUnit {
					unitIdx = append(unitIdx, int64(v))
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	nanos := -1
	for i, u := range unitIdx {
		if s, err := str(u); err == nil && s == "nanoseconds" {
			nanos = i
		}
	}
	if nanos < 0 {
		return nil, errors.New("profile: no nanoseconds sample type; not a CPU profile")
	}

	out := make([]Sample, 0, len(samples))
	for _, rs := range samples {
		if nanos >= len(rs.values) {
			return nil, errors.New("profile: sample has fewer values than sample types")
		}
		s := Sample{Nanos: rs.values[nanos]}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				s.Frames = append(s.Frames, name)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// fields calls fn for each field of the encoded message b: varint fields
// with their value, length-delimited fields with their bytes. Fixed-width
// fields, which profile.proto does not use, are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case wireVarint:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length-delimited field")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a repeated integer field that may arrive either as one
// unpacked varint (b == nil) or as a packed run of varints.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// Layers lists the layers Layer attributes to, in report order: the
// simulator's modules, the façade, the benchmark harness, the Go
// runtime's goroutine hand-off and garbage collector, and everything else.
var Layers = []string{
	"sim", "exec", "machine", "cache", "coherence", "mem", "perfctr",
	"core", "sched", "fatfs", "workload", "stats", "telemetry", "o2",
	"bench", "go.sched", "go.gc", Other,
}

// Other is the layer of samples no frame of which belongs to a named layer.
const Other = "other"

// Layer attributes a stack, innermost frame first, to the innermost frame
// that names a layer. Simulator frames name their module
// (repro/internal/<module>, with the trace module counted as telemetry),
// façade frames name "o2", and benchmark frames name "bench". The Go
// runtime's allocation and collection entry points name "go.gc" and its
// goroutine hand-off entry points name "go.sched", so a channel send that
// wakes another simulated thread counts as hand-off, not as the module
// that sent it.
func Layer(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return Other
}

func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		mod := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if mod == "trace" {
			return "telemetry"
		}
		for _, l := range Layers {
			if l == mod {
				return l
			}
		}
		return Other
	case strings.HasPrefix(fn, "repro/o2."):
		return "o2"
	case strings.HasPrefix(fn, "repro/bench/"):
		return "bench"
	case gcEntry[fn]:
		return "go.gc"
	case handoffEntry[fn]:
		return "go.sched"
	}
	return ""
}

// gcEntry names the runtime functions through which allocation and
// garbage collection are entered; everything they call is GC cost.
var gcEntry = map[string]bool{
	"runtime.mallocgc":          true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.GC":                true,
}

// handoffEntry names the runtime functions through which one goroutine
// hands the processor to another: the channel operations the simulation
// engine switches procs with, parking and readying, and the scheduler loop.
var handoffEntry = map[string]bool{
	"runtime.chansend":  true,
	"runtime.chansend1": true,
	"runtime.chanrecv":  true,
	"runtime.chanrecv1": true,
	"runtime.chanrecv2": true,
	"runtime.selectgo":  true,
	"runtime.gopark":    true,
	"runtime.goready":   true,
	"runtime.mcall":     true,
	"runtime.park_m":    true,
	"runtime.schedule":  true,
	"runtime.gogo":      true,
}

// SelfTime sums the nanoseconds of samples by layer.
func SelfTime(samples []Sample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[Layer(s.Frames)] += s.Nanos
	}
	return out
}
