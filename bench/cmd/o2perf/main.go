// Command o2perf is the repository's benchmark: it measures how fast the
// simulator runs the paper's workloads, checks that every simulated
// result is unchanged, and with --trace 1 attributes host time to the
// simulator's layers.
//
//	go run ./cmd/o2perf                           # all workloads, one pass each
//	go run ./cmd/o2perf --workload kv-numa256 --seed 2 --seconds 25
//	go run ./cmd/o2perf --trace 1 --trace-dir out # per-layer costs, profiles, spans.json
//	go run ./cmd/o2perf --seed 1 --update         # rewrite the committed digests
//
// Each workload runs in a child process of its own with GOMAXPROCS=1 and
// GOGC=100, so runs do not share a heap and the Go scheduler cannot bounce
// simulated threads between processors. The report's last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where the
// metrics are the end-to-end ones, or with --trace 1 the per-layer ones.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// childEnv marks a process as a child measuring one workload.
const childEnv = "O2PERF_CHILD"

func main() {
	if os.Getenv(childEnv) != "" {
		var cfg childConfig
		if err := json.NewDecoder(os.Stdin).Decode(&cfg); err != nil {
			fmt.Fprintln(os.Stderr, "o2perf child:", err)
			os.Exit(2)
		}
		if err := runChild(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "o2perf child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line; tests build them directly.
type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	traceDir  string
	update    bool
	smoke     bool // test-only reduced sizes; no digests are compared
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("o2perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Uint64("seed", 1, "workload seed; cell i runs under DeriveSeed(seed, i)")
	seconds := fs.Float64("seconds", 0, "measuring time per workload; passes repeat until it is spent (0: one pass)")
	trace := fs.Int("trace", 0, "1: also profile the drives and report per-layer metrics")
	traceDir := fs.String("trace-dir", "", "where --trace 1 writes profiles and spans.json (default: .bench_build/trace in the checkout)")
	update := fs.Bool("update", false, "rewrite the seed's committed digests (declared model changes only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: o2perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--update]")
		return 2
	}
	if *traceDir == "" {
		root, err := checkoutRoot()
		if err != nil {
			fmt.Fprintln(stderr, "o2perf:", err)
			return 1
		}
		*traceDir = filepath.Join(root, ".bench_build", "trace")
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, update: *update}
	if *name == "" {
		for _, w := range workloads {
			opt.workloads = append(opt.workloads, w.name)
		}
	} else {
		if _, ok := findWorkload(*name); !ok {
			fmt.Fprintf(stderr, "o2perf: unknown workload %q\n", *name)
			return 2
		}
		opt.workloads = []string{*name}
	}
	if err := measureAll(opt, stdout); err != nil {
		fmt.Fprintln(stderr, "o2perf:", err)
		return 1
	}
	return 0
}

// checkoutRoot returns the nearest directory at or above the working
// directory that holds BENCHMARK.json, so the default paths hold wherever
// in the checkout o2perf starts.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// measureAll runs the chosen workloads one after another and reports
// each.
func measureAll(opt options, stdout io.Writer) error {
	var (
		expectedDir string
		expect      expectations
	)
	if !opt.smoke {
		root, err := checkoutRoot()
		if err != nil {
			return err
		}
		expectedDir = filepath.Join(root, "bench", "testdata", "expected")
		if expect, err = loadExpectations(expectedDir, opt.seed); err != nil {
			return err
		}
	}
	latencyErr := checkLatencyTable()
	host := fingerprint()
	got := expectations{}
	var spans []span
	for i, name := range opt.workloads {
		cr, maxRSS, err := spawn(childConfig{Workload: name, Seed: opt.seed, Seconds: opt.seconds,
			Trace: opt.trace, TraceDir: opt.traceDir, Smoke: opt.smoke})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		host.ChildGoMaxProcs = cr.GoMaxProcs
		rep := summarize(name, cr, maxRSS, expect[name], latencyErr)
		if err := rep.write(stdout, opt, host); err != nil {
			return err
		}
		got[name] = rep.digests
		spans = append(spans, workloadSpans(i+1, name, cr)...)
	}
	if opt.update && !opt.smoke {
		if err := saveExpectations(expectedDir, opt.seed, got); err != nil {
			return err
		}
	}
	if opt.trace {
		return writeSpans(filepath.Join(opt.traceDir, "spans.json"), spans)
	}
	return nil
}

// spawn measures one workload in a child process and returns its report
// and peak resident set size in bytes.
func spawn(cfg childConfig) (childResult, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, 0, err
	}
	in, err := json.Marshal(cfg)
	if err != nil {
		return childResult{}, 0, err
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=1", "GOGC=100")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	for _, line := range strings.SplitAfter(errOut.String(), "\n") {
		if strings.TrimSpace(line) != profileRateComplaint {
			os.Stderr.WriteString(line)
		}
	}
	if err != nil {
		return childResult{}, 0, fmt.Errorf("child: %w", err)
	}
	var cr childResult
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return childResult{}, 0, fmt.Errorf("child output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childResult{}, 0, errors.New("no resource usage for the child on this platform")
	}
	maxRSS := ru.Maxrss * 1024 // kilobytes on Linux
	if runtime.GOOS == "darwin" {
		maxRSS = ru.Maxrss // bytes on macOS
	}
	return cr, maxRSS, nil
}
