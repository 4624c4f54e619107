package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/o2"
)

// digest fingerprints a cell's simulated outcome: every field of the
// façade's result plus the machine.* and sched.* registry readings. The
// engine.* readings are bookkeeping a speed-only change may legitimately
// alter (coalescing events, for one), so they stay out.
func digest(result any, metrics []o2.Metric) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(result); err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	for _, m := range metrics {
		if strings.HasPrefix(m.Name, "machine.") || strings.HasPrefix(m.Name, "sched.") {
			fmt.Fprintf(h, "%s=%s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func checkDirLookup(r o2.Result) error {
	var sum uint64
	for _, n := range r.PerThread {
		sum += n
	}
	switch {
	case r.Resolutions == 0:
		return errors.New("no resolutions in the measured window")
	case sum != r.Resolutions:
		return fmt.Errorf("per-thread resolutions sum to %d, want %d", sum, r.Resolutions)
	}
	return nil
}

func checkService(r o2.ServiceResult, l o2.ServiceLoad) error {
	switch {
	case r.Requests != uint64(l.Requests):
		return fmt.Errorf("%d requests arrived, want %d", r.Requests, l.Requests)
	case r.Completed+r.Dropped+r.InFlight != r.Requests:
		return fmt.Errorf("completed %d + dropped %d + in flight %d != requests %d",
			r.Completed, r.Dropped, r.InFlight, r.Requests)
	case r.InFlight != 0:
		return fmt.Errorf("%d requests still in flight after an untruncated run", r.InFlight)
	case r.Completed == 0:
		return errors.New("no request completed")
	}
	return nil
}

func checkKV(r o2.KVResult, l o2.KVLoad) error {
	if want := uint64(l.Clients) * uint64(l.OpsPerClient); r.Ops != want || r.Clients != l.Clients {
		return fmt.Errorf("%d ops from %d clients, want %d from %d", r.Ops, r.Clients, want, l.Clients)
	}
	return nil
}

// paperLatencies are the cycle counts §5 of the paper reports for the
// AMD16 machine, in LatencyTable's row order: L1, L2, L3, a remote cache
// on the same chip, and the nearest and farthest DRAM banks. The simulator
// is calibrated to them, so any difference is a model change.
var paperLatencies = []o2.Cycles{3, 14, 75, 127, 230, 336}

func checkLatencyTable() error {
	rows, err := o2.LatencyTable()
	if err != nil {
		return err
	}
	var got []o2.Cycles
	for _, r := range rows {
		if r.Paper == 0 {
			continue
		}
		if r.Measured != r.Paper {
			return fmt.Errorf("latency table: %s measured %d cycles, paper %d", r.Name, r.Measured, r.Paper)
		}
		got = append(got, r.Paper)
	}
	if fmt.Sprint(got) != fmt.Sprint(paperLatencies) {
		return fmt.Errorf("latency table: paper rows %v, want %v", got, paperLatencies)
	}
	return nil
}

// expectations are the committed digests of one seed: workload → cell →
// digest.
type expectations map[string]map[string]string

func expectationPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// loadExpectations reads the digests committed for seed. A missing file
// is not an error: a seed without expectations is compared only against
// itself (passes against each other, traced against untraced).
func loadExpectations(dir string, seed uint64) (expectations, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("expectations directory: %w", err)
	}
	b, err := os.ReadFile(expectationPath(dir, seed))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectationPath(dir, seed), err)
	}
	return e, nil
}

// saveExpectations merges got into the seed's file, replacing the entries
// of the workloads got covers and keeping the others.
func saveExpectations(dir string, seed uint64, got expectations) error {
	e, err := loadExpectations(dir, seed)
	if err != nil {
		return err
	}
	if e == nil {
		e = expectations{}
	}
	for w, cells := range got {
		e[w] = cells
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectationPath(dir, seed), append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
