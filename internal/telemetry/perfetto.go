package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Process IDs in the exported timeline. Chrome's trace viewer groups
// tracks by pid, so each facet of the run gets its own process row.
const (
	pidCores   = 1 // per-core run spans, one tid per core
	pidSched   = 2 // scheduler decision instants
	pidSockets = 3 // per-socket bandwidth queueing counters
	pidService = 4 // service-level counters (queue depth, dead time)
)

// ExportConfig parameterizes WriteTrace.
type ExportConfig struct {
	ClockHz float64       // simulated clock, cycles per second
	Events  []trace.Event // scheduler trace to merge, in emission order
}

// jsonEvent is one Chrome trace-event record. Field order here is the
// serialization order, so output bytes are stable.
type jsonEvent struct {
	Name  string  `json:"name"`
	Ph    string  `json:"ph"`
	Ts    float64 `json:"ts"` // microseconds
	Dur   float64 `json:"dur,omitempty"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Scope string  `json:"s,omitempty"`
	Args  any     `json:"args,omitempty"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type runArgs struct {
	Busy   float64 `json:"busy"`
	Idle   float64 `json:"idle"`
	Queue  int32   `json:"queue"`
	Placed int32   `json:"placed"`
}

type bwArgs struct {
	Dram float64 `json:"dram"`
	Link float64 `json:"link"`
}

type countArgs struct {
	Value float64 `json:"value"`
}

type schedArgs struct {
	Subject string `json:"subject"`
	Arg1    int64  `json:"arg1"`
	Arg2    int64  `json:"arg2"`
}

// WriteTrace renders the held samples, merged with cfg.Events, as a
// chrome://tracing / Perfetto-loadable JSON timeline. Timestamps are
// simulated cycles scaled to microseconds by cfg.ClockHz, so the
// timeline — like the samples beneath it — is a pure function of
// (configuration, seed).
func (s *Sampler) WriteTrace(w io.Writer, cfg ExportConfig) error {
	hz := cfg.ClockHz
	if hz <= 0 {
		hz = 1e9 // fall back to 1 cycle = 1 ns
	}
	us := 1e6 / hz // microseconds per cycle

	evs := make([]jsonEvent, 0, 64+s.n*(s.ncores+s.nsocks+2)+len(cfg.Events))

	// Process/thread metadata so the viewer labels tracks.
	meta := func(pid, tid int, name, value string) {
		evs = append(evs, jsonEvent{Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: nameArgs{Name: value}})
	}
	meta(pidCores, 0, "process_name", "cores")
	meta(pidSched, 0, "process_name", "scheduler")
	meta(pidSockets, 0, "process_name", "sockets")
	meta(pidService, 0, "process_name", "service")
	for c := 0; c < s.ncores; c++ {
		meta(pidCores, c, "thread_name", fmt.Sprintf("core %d", c))
	}
	for k := 0; k < s.nsocks; k++ {
		meta(pidSockets, k, "thread_name", fmt.Sprintf("socket %d", k))
	}

	// Counter names are per (pid, name); bake the socket index in.
	bwName := make([]string, s.nsocks)
	for k := range bwName {
		bwName[k] = fmt.Sprintf("bw queue s%d", k)
	}

	for i := 0; i < s.n; i++ {
		sm := s.SampleAt(i)
		start := float64(sm.At-sm.Window) * us
		end := float64(sm.At) * us
		winUS := end - start
		for c := 0; c < s.ncores; c++ {
			if sm.Busy[c] <= 0 {
				continue
			}
			evs = append(evs, jsonEvent{
				Name: "run", Ph: "X", Ts: start, Dur: sm.Busy[c] * winUS,
				Pid: pidCores, Tid: c,
				Args: runArgs{Busy: sm.Busy[c], Idle: sm.Idle[c],
					Queue: sm.Queue[c], Placed: sm.Placed[c]},
			})
		}
		for k := 0; k < s.nsocks; k++ {
			evs = append(evs, jsonEvent{
				Name: bwName[k], Ph: "C", Ts: end, Pid: pidSockets, Tid: k,
				Args: bwArgs{Dram: float64(sm.DramQ[k]), Link: float64(sm.LinkQ[k])},
			})
		}
		evs = append(evs, jsonEvent{
			Name: "queue depth", Ph: "C", Ts: end, Pid: pidService, Tid: 0,
			Args: countArgs{Value: float64(sm.Depth)},
		})
		evs = append(evs, jsonEvent{
			Name: "dead frac", Ph: "C", Ts: end, Pid: pidService, Tid: 0,
			Args: countArgs{Value: sm.Dead},
		})
	}

	for _, e := range cfg.Events {
		evs = append(evs, jsonEvent{
			Name: e.Kind.String(), Ph: "i", Ts: float64(e.At) * us,
			Pid: pidSched, Tid: 0, Scope: "p",
			Args: schedArgs{Subject: e.Name, Arg1: e.Arg1, Arg2: e.Arg2},
		})
	}

	// Stable sort: ties keep build order, so equal-timestamp events from
	// different tracks serialize identically on every run.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })

	out := struct {
		DisplayTimeUnit string      `json:"displayTimeUnit"`
		TraceEvents     []jsonEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: evs}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
