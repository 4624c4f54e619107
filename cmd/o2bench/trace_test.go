package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceJSONGolden pins the `o2bench trace` timeline bytes on the
// quick configuration and validates the Chrome trace-event schema:
// top-level shape, required per-event fields, and monotone timestamps.
// Regenerate with `go test ./cmd/o2bench -run TestTraceJSONGolden
// -update` and review the diff.
func TestTraceJSONGolden(t *testing.T) {
	cfg, _, err := traceFlags([]string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emitTrace(&buf, io.Discard, cfg); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_tiny.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("o2bench trace output drifted from %s (got %d bytes, want %d). If intentional, rerun with -update and review.",
			golden, buf.Len(), len(want))
	}

	// Schema: the file must decode as a trace-event container whose every
	// event carries ph/ts/pid/tid, with ts monotone non-decreasing.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline holds no events")
	}
	last := -1.0
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %+v missing a required ph/ts/pid/tid field", ev)
		}
		if *ev.Ts < last {
			t.Fatalf("timestamps not monotone: %v after %v", *ev.Ts, last)
		}
		last = *ev.Ts
		phases[ev.Ph] = true
	}
	// The timeline must carry all three advertised families: per-core run
	// spans (X), per-socket bandwidth counters (C), scheduler decisions (i).
	for _, ph := range []string{"M", "X", "C", "i"} {
		if !phases[ph] {
			t.Fatalf("timeline has no %q events; phases present: %v", ph, phases)
		}
	}
}
