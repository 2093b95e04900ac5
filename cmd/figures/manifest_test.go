package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"addrxlat/internal/obs"
	"addrxlat/internal/xtrace"
)

// TestManifestRecordsHostAndUsage runs two experiments, the closed-form
// e2 and the simulated f1a, and checks the manifest's host fields and
// each experiment's CPU time and resident-set high-water mark: the host
// is this one, no experiment's CPU time exceeds its wall time on every
// CPU, f1a's is positive (e2's may read 0 at getrusage's resolution),
// and the high-water mark is positive and never falls from one
// experiment to the next.
func TestManifestRecordsHostAndUsage(t *testing.T) {
	bin := buildFigures(t)
	dir := t.TempDir()
	if code, errOut := runFigures(t, bin, nil, "-fig", "e2,f1a", "-no-cache", "-progress=false",
		"-out", dir, "-manifest", dir); code != 0 {
		t.Fatalf("figures exited %d:\n%s", code, errOut)
	}
	m, err := obs.LoadManifest(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCPU != runtime.NumCPU() || m.GOMAXPROCS < 1 || m.CPUModel == "" {
		t.Errorf("host: num_cpu %d (this host %d), gomaxprocs %d, cpu_model %q",
			m.NumCPU, runtime.NumCPU(), m.GOMAXPROCS, m.CPUModel)
	}
	if len(m.Experiments) != 2 {
		t.Fatalf("%d experiment records, want 2", len(m.Experiments))
	}
	var prevRSS float64
	for _, r := range m.Experiments {
		if r.CPUSeconds < 0 || (r.ID == "f1a" && r.CPUSeconds == 0) || r.CPUSeconds > r.WallSeconds*float64(m.NumCPU)+0.05 {
			t.Errorf("%s: cpu_seconds %g against wall_seconds %g on %d CPUs", r.ID, r.CPUSeconds, r.WallSeconds, m.NumCPU)
		}
		if r.MaxRSSMiB <= 0 || r.MaxRSSMiB < prevRSS {
			t.Errorf("%s: max_rss_mib %g after the previous experiment's %g", r.ID, r.MaxRSSMiB, prevRSS)
		}
		prevRSS = r.MaxRSSMiB
	}
}

// TestTraceWrittenBeforeRecorded: -trace into a directory that does not
// exist yet writes a valid trace, which the manifest names; a trace that
// cannot be written fails the run, and the manifest does not name it.
func TestTraceWrittenBeforeRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "f3tr", "t.json")
	if code, errOut := runFigures(t, bin, nil, "-fig", "e2", "-no-cache", "-progress=false",
		"-out", filepath.Join(dir, "f3"), "-manifest", filepath.Join(dir, "fm3"), "-trace", trace); code != 0 {
		t.Fatalf("figures exited %d:\n%s", code, errOut)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if _, err := xtrace.Validate(data); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	m, err := obs.LoadManifest(newestManifest(t, filepath.Join(dir, "fm3")))
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != "ok" || m.Trace != trace {
		t.Errorf("manifest: status %q, trace %q; want ok, %s", m.Status, m.Trace, trace)
	}

	// A regular file where the trace's directory should be.
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, errOut := runFigures(t, bin, nil, "-fig", "e2", "-no-cache", "-progress=false",
		"-out", filepath.Join(dir, "g3"), "-manifest", filepath.Join(dir, "gm3"), "-trace", filepath.Join(file, "t.json")); code != 1 {
		t.Fatalf("figures with an unwritable trace exited %d, want 1:\n%s", code, errOut)
	}
	if m, err = obs.LoadManifest(newestManifest(t, filepath.Join(dir, "gm3"))); err != nil {
		t.Fatal(err)
	}
	if m.Status != "failed" || m.Trace != "" {
		t.Errorf("manifest: status %q, trace %q; want failed and no trace", m.Status, m.Trace)
	}
}

// TestUnwritableManifestStopsRun: a run whose manifest cannot be written
// (a regular file where its directory should be) exits 1 before it runs
// any experiment. It reports the manifest error once and leaves no
// table, profile or trace behind.
func TestUnwritableManifestStopsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	dir := t.TempDir()
	file := filepath.Join(dir, "afile")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, errOut := runFigures(t, bin, nil, "-fig", "e2", "-no-cache", "-progress=false",
		"-manifest", filepath.Join(file, "m"), "-out", filepath.Join(dir, "o"),
		"-cpuprofile", filepath.Join(dir, "c.pprof"), "-trace", filepath.Join(dir, "t.json"))
	if code != 1 {
		t.Fatalf("figures with an unwritable manifest exited %d, want 1:\n%s", code, errOut)
	}
	if n := strings.Count(errOut, "manifest:"); n != 1 {
		t.Errorf("manifest error reported %d times, want once:\n%s", n, errOut)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "afile" {
			t.Errorf("figures left %s behind", e.Name())
		}
	}
}
