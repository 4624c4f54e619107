package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fatfs"
	"repro/internal/sched"
	"repro/internal/topology"
)

func pathSpec() PathSpec { return PathSpec{TopDirs: 4, SubsPerTop: 6, FilesPerSub: 128} }

func pathParams() RunParams {
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = 800_000
	p.Measure = 1_600_000
	return p
}

func TestBuildPathEnv(t *testing.T) {
	env, err := BuildPathEnv(topology.Tiny8(), exec.DefaultOptions(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Tops) != 4 || len(env.Subs) != 4 {
		t.Fatalf("tree shape wrong: %d tops, %d sub rows", len(env.Tops), len(env.Subs))
	}
	for ti, subs := range env.Subs {
		if len(subs) != 6 {
			t.Fatalf("top %d has %d subs", ti, len(subs))
		}
		for _, s := range subs {
			if s.Obj.Size != 128*32 {
				t.Fatalf("sub object size %d, want %d", s.Obj.Size, 128*32)
			}
		}
	}
	if err := env.FS.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// A full path must resolve through the real FS, one directory at a
	// time.
	d := env.FS.Root()
	for _, name := range []string{"TOP0001", "SUB0003", "F0000042"} {
		e, err := env.FS.Lookup(fatfs.NullAccess{}, d, name)
		if err != nil {
			t.Fatalf("path resolution at %s: %v", name, err)
		}
		if e.IsDir() {
			d, _ = e.Dir(env.FS)
		}
	}
}

func TestPathSpecRejected(t *testing.T) {
	if _, err := BuildPathEnv(topology.Tiny8(), exec.DefaultOptions(), PathSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestPathLookupBaseline(t *testing.T) {
	env, err := BuildPathEnv(topology.Tiny8(), exec.DefaultOptions(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := RunPathLookup(env, sched.ThreadScheduler{}, pathParams())
	if res.Resolutions == 0 {
		t.Fatal("no resolutions")
	}
	if res.Migrations != 0 {
		t.Fatal("baseline migrated")
	}
}

func TestPathLookupDeterministic(t *testing.T) {
	run := func() uint64 {
		env, err := BuildPathEnv(topology.Tiny8(), exec.DefaultOptions(), pathSpec())
		if err != nil {
			t.Fatal(err)
		}
		return RunPathLookup(env, sched.ThreadScheduler{}, pathParams()).Resolutions
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestClusteringReducesPathMigrations(t *testing.T) {
	p := pathParams()

	run := func(clustering bool) PathResult {
		env, err := BuildPathEnv(topology.Tiny8(), exec.DefaultOptions(), pathSpec())
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.EnableClustering = clustering
		// Subdirectory scans are small (4 KB); lower the threshold so
		// they qualify for placement.
		opts.MissThreshold = 4
		rt := core.New(env.Sys, opts)
		for _, hint := range env.ClusterHints() {
			rt.PlaceTogether(hint...)
		}
		return RunPathLookup(env, rt, p)
	}

	flat := run(false)
	clustered := run(true)
	t.Logf("paths: unclustered %.0f kres/s (%d migr), clustered %.0f kres/s (%d migr)",
		flat.KResPerSec, flat.Migrations, clustered.KResPerSec, clustered.Migrations)
	if clustered.Migrations >= flat.Migrations {
		t.Errorf("clustering did not reduce migrations: %d vs %d",
			clustered.Migrations, flat.Migrations)
	}
	if clustered.KResPerSec < flat.KResPerSec {
		t.Errorf("clustering slowed resolution: %.0f vs %.0f",
			clustered.KResPerSec, flat.KResPerSec)
	}
}
