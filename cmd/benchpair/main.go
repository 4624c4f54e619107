// Command benchpair compares the repository benchmark between a base
// revision and the working tree: it alternates `bash bench/run.sh` runs
// of the two, N pairs per workload, and reports every
// end-to-end metric's medians, quartiles and pair wins, whether every run
// matched the committed digests, and each run's user+sys CPU seconds.
//
//	go run ./cmd/benchpair -base HEAD -n 10 -out pairs.json
//	go run ./cmd/benchpair -base HEAD~1 -seed 2 -workloads kv-numa256
//	go run ./cmd/benchpair -base HEAD~1 -seconds 25 -n 3 -workloads kv-numa256
//
// A run is one pass of the workload by default. With -seconds S each run
// repeats passes for S seconds (`bench/run.sh --seconds S`) and reports
// the mean pass, the way BENCHMARK.json's run_seconds runs it.
//
// The base is extracted with `git archive` into a scratch directory, so
// nothing is registered in the repository. Pair i runs the base first
// when i is even and the working tree first when it is odd, so a drift in
// host speed falls on both sides. The working tree rebuilds before each
// of its runs: leave its code alone until the tool finishes. The
// workloads and metrics come from the working tree's BENCHMARK.json. The
// JSON report goes to -out (default stdout) and a summary table to
// stderr.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "base revision (required)")
	n := fs.Int("n", 10, "pairs per workload")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	seed := fs.Int("seed", 1, "workload seed passed to bench/run.sh")
	seconds := fs.Float64("seconds", 0, "measuring seconds per run passed to bench/run.sh (0: one pass)")
	scratch := fs.String("dir", filepath.Join(os.TempDir(), "benchpair"), "scratch directory for extracted revisions")
	out := fs.String("out", "", "write the JSON report here (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *n < 1 || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: benchpair -base REV [-n N] [-workloads a,b] [-seed N] [-seconds S] [-dir DIR] [-out FILE]")
		return 2
	}
	if err := pair(*base, *n, *only, runArgs{seed: *seed, seconds: *seconds}, *scratch, *out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 1
	}
	return 0
}

// runArgs are the bench/run.sh options every run shares.
type runArgs struct {
	seed    int
	seconds float64 // 0: one pass
}

// command returns the bench/run.sh command line for one run of workload w.
func (a runArgs) command(w string) []string {
	cmd := []string{"bench/run.sh", "--workload", w, "--seed", strconv.Itoa(a.seed)}
	if a.seconds > 0 {
		cmd = append(cmd, "--seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64))
	}
	return cmd
}

// side is one revision under test.
type side struct {
	rev, sha, dir string
}

// runResult is one bench/run.sh run: its final JSON line plus CPU time.
type runResult struct {
	Correct   bool                               `json:"correct"`
	Attempted int                                `json:"attempted"`
	Failed    int                                `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
	cpu       float64
}

// benchmarkSpec is the part of BENCHMARK.json this tool reads.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Report is the JSON the tool writes.
type Report struct {
	Base      string           `json:"base"`
	Head      string           `json:"head"`
	Seed      int              `json:"seed"`
	Seconds   float64          `json:"seconds,omitempty"` // per run; 0 means one pass
	Pairs     int              `json:"pairs"`
	Host      string           `json:"host"`
	Workloads []WorkloadReport `json:"workloads"`
}

// WorkloadReport summarises one workload's pairs.
type WorkloadReport struct {
	Name    string         `json:"name"`
	Correct bool           `json:"correct"` // every run on both sides matched its digests
	Failed  [2]int         `json:"failed"`  // failed cells summed over the runs, base then head
	Metrics []MetricReport `json:"metrics"`
}

// MetricReport compares one metric; cpu_s, the child's user+sys seconds,
// is reported beside the benchmark's own metrics.
type MetricReport struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Base   Stats     `json:"base"`
	Head   Stats     `json:"head"`
	Delta  float64   `json:"delta_frac"` // (head median - base median) / base median
	Wins   int       `json:"wins"`       // pairs in which the head was better
	BaseV  []float64 `json:"base_values"`
	HeadV  []float64 `json:"head_values"`
}

// Stats are the median and quartiles of one side's runs.
type Stats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func pair(baseRev string, n int, only string, args runArgs, scratch, out string, stdout, stderr io.Writer) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	base, err := extract(root, baseRev, filepath.Join(scratch, "base"))
	if err != nil {
		return err
	}
	head := side{rev: "working tree on", dir: root}
	if head.sha, err = git(root, "rev-parse", "HEAD"); err != nil {
		return err
	}
	spec, err := readSpec(head.dir)
	if err != nil {
		return err
	}
	names := strings.Split(only, ",")
	if only == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	rep := Report{Base: baseRev + " " + base.sha, Head: head.rev + " " + head.sha, Seed: args.seed, Seconds: args.seconds, Pairs: n,
		Host: fmt.Sprintf("%s/%s nproc=%d %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpuModel())}
	for _, s := range []side{base, head} {
		// Build o2perf once per side so the first timed run does not.
		// With -h o2perf exits 2 after the build, so the status says
		// nothing; a failed build fails the first timed run instead.
		cmd := exec.Command("bash", "bench/run.sh", "-h")
		cmd.Dir = s.dir
		_ = cmd.Run()
	}
	for _, w := range names {
		runs := [2][]runResult{}
		for i := 0; i < n; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				s := []side{base, head}[k]
				r, err := benchRun(s.dir, args.command(w))
				if err != nil {
					return fmt.Errorf("%s on %s: %w", w, s.rev, err)
				}
				runs[k] = append(runs[k], r)
				fmt.Fprintf(stderr, "%s pair %d %s: cpu %.2fs correct=%v\n", w, i, []string{"base", "head"}[k], r.cpu, r.Correct)
			}
		}
		rep.Workloads = append(rep.Workloads, summarise(w, spec.EndToEnd, runs))
	}
	printTable(stderr, rep)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// summarise folds one workload's runs, base ([0]) and head ([1]), into
// per-metric statistics.
func summarise(name string, metrics []metricSpec, runs [2][]runResult) WorkloadReport {
	wr := WorkloadReport{Name: name, Correct: true}
	for k, rs := range runs {
		for _, r := range rs {
			wr.Correct = wr.Correct && r.Correct
			wr.Failed[k] += r.Failed
		}
	}
	all := append(slices.Clone(metrics), metricSpec{Name: "cpu_s", Unit: "s", Better: "lower"})
	for _, ms := range all {
		mr := MetricReport{Name: ms.Name, Unit: ms.Unit, Better: ms.Better}
		for i := range runs[0] {
			b, h := value(runs[0][i], ms.Name), value(runs[1][i], ms.Name)
			mr.BaseV = append(mr.BaseV, b)
			mr.HeadV = append(mr.HeadV, h)
			if (ms.Better == "lower" && h < b) || (ms.Better == "higher" && h > b) {
				mr.Wins++
			}
		}
		mr.Base, mr.Head = stats(mr.BaseV), stats(mr.HeadV)
		if mr.Base.Median != 0 {
			mr.Delta = (mr.Head.Median - mr.Base.Median) / mr.Base.Median
		}
		wr.Metrics = append(wr.Metrics, mr)
	}
	return wr
}

func value(r runResult, metric string) float64 {
	if metric == "cpu_s" {
		return r.cpu
	}
	return r.Metrics[metric].Value
}

// stats returns the median and quartiles of xs, interpolating linearly
// between order statistics.
func stats(xs []float64) Stats {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return Stats{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
}

func printTable(w io.Writer, rep Report) {
	fmt.Fprintf(w, "base %s\nhead %s\nhost %s, %d pairs, seed %d, seconds %g\n", rep.Base, rep.Head, rep.Host, rep.Pairs, rep.Seed, rep.Seconds)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s  correct=%v failed base=%d head=%d\n", wr.Name, wr.Correct, wr.Failed[0], wr.Failed[1])
		fmt.Fprintf(w, "  %-18s %12s %10s %12s %10s %8s %6s\n", "metric", "base med", "base IQR", "head med", "head IQR", "delta", "wins")
		for _, m := range wr.Metrics {
			fmt.Fprintf(w, "  %-18s %12.4g %10.3g %12.4g %10.3g %+7.1f%% %3d/%d\n", m.Name,
				m.Base.Median, m.Base.Q3-m.Base.Q1, m.Head.Median, m.Head.Q3-m.Head.Q1, 100*m.Delta, m.Wins, len(m.BaseV))
		}
	}
}

// benchRun runs the bench/run.sh command line args in checkout dir and
// returns the report's final JSON line and the run's user+sys CPU
// seconds, its children's included.
func benchRun(dir string, args []string) (runResult, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, &errb
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%w: %s", err, errb.String())
	}
	return parseRun(out.Bytes(), (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
}

// parseRun decodes the last line of an o2perf report.
func parseRun(out []byte, cpu float64) (runResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r runResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("report has no final JSON line: %w", err)
	}
	r.cpu = cpu
	return r, nil
}

func readSpec(dir string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	return spec, err
}

// extract writes revision rev of the repository at root into dir, which
// it empties first.
func extract(root, rev, dir string) (side, error) {
	sha, err := git(root, "rev-parse", rev+"^{commit}")
	if err != nil {
		return side{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return side{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return side{}, err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git archive "$1" | tar -x -C "$2"`, "extract", sha, dir)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return side{}, fmt.Errorf("extracting %s: %w: %s", rev, err, out)
	}
	return side{rev: rev, sha: sha, dir: dir}, nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// cpuModel returns the host CPU's model name, or "" where /proc/cpuinfo
// does not say.
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
