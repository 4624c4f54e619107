package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestStatsQuartiles(t *testing.T) {
	s := stats([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("stats = %+v, want median 3, quartiles 2 and 4", s)
	}
	if s := stats([]float64{1, 2}); s.Median != 1.5 {
		t.Fatalf("median of two = %v, want 1.5", s.Median)
	}
}

func TestParseRunReadsFinalLine(t *testing.T) {
	out := "# o2perf kv\n# run_s 1 s\n" +
		`{"correct":true,"attempted":2,"failed":0,"metrics":{"run_s":{"value":2.5,"unit":"s"}}}` + "\n"
	r, err := parseRun([]byte(out), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 2 || value(r, "run_s") != 2.5 || value(r, "cpu_s") != 3 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseRun([]byte("# no json\n"), 0); err == nil {
		t.Fatal("a report without a JSON line parsed")
	}
}

func TestSummariseCountsWinsByDirection(t *testing.T) {
	mk := func(run, rate float64, correct bool) runResult {
		r := runResult{Correct: correct, Metrics: map[string]struct{ Value float64 }{}}
		r.Metrics["run_s"] = struct{ Value float64 }{run}
		r.Metrics["rate"] = struct{ Value float64 }{rate}
		return r
	}
	runs := [2][]runResult{
		{mk(2, 10, true), mk(2, 10, true), mk(2, 10, true)},
		{mk(1, 11, true), mk(3, 9, true), mk(1, 12, false)},
	}
	wr := summarise("w", []metricSpec{{Name: "run_s", Better: "lower"}, {Name: "rate", Better: "higher"}}, runs)
	if wr.Correct {
		t.Error("a failed head run left the workload correct")
	}
	if got := wr.Metrics[0].Wins; got != 2 {
		t.Errorf("run_s wins = %d, want 2", got)
	}
	if got := wr.Metrics[1].Wins; got != 2 {
		t.Errorf("rate wins = %d, want 2", got)
	}
	if d := wr.Metrics[0].Delta; d != -0.5 {
		t.Errorf("run_s delta = %v, want -0.5", d)
	}
	if wr.Metrics[2].Name != "cpu_s" {
		t.Errorf("cpu_s not reported: %+v", wr.Metrics)
	}
}

func TestUsageErrors(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, &bytes.Buffer{}, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage") {
		t.Fatalf("no -base: exit %d, stderr %q", code, stderr.String())
	}
}

func TestRunArgsPassSeconds(t *testing.T) {
	onePass := runArgs{seed: 2}.command("kv-numa256")
	if got := strings.Join(onePass, " "); got != "bench/run.sh --workload kv-numa256 --seed 2" {
		t.Errorf("one-pass command = %q", got)
	}
	timed := runArgs{seed: 1, seconds: 25}.command("kv-numa256")
	if got := strings.Join(timed, " "); got != "bench/run.sh --workload kv-numa256 --seed 1 --seconds 25" {
		t.Errorf("-seconds 25 command = %q", got)
	}
	var stderr bytes.Buffer
	if code := run([]string{"-base", "HEAD", "-seconds", "-1"}, &bytes.Buffer{}, &stderr); code != 2 || !strings.Contains(stderr.String(), "-seconds S") {
		t.Fatalf("negative -seconds: exit %d, stderr %q", code, stderr.String())
	}
}
