package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"addrxlat/internal/obs"
	"addrxlat/internal/xtrace"
)

// buildAtsim compiles the atsim binary into a test directory.
func buildAtsim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the atsim binary")
	}
	bin := filepath.Join(t.TempDir(), "atsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runAtsim executes the binary in dir and returns its exit code and
// stderr.
func runAtsim(t *testing.T, bin, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatalf("atsim %v: %v\n%s", args, err, stderr.String())
	}
	return 0, stderr.String()
}

// loadManifest loads the one manifest atsim wrote into dir.
func loadManifest(t *testing.T, dir string) *obs.Manifest {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "manifest-atsim-*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("manifests in %s = %v (err %v), want 1", dir, paths, err)
	}
	m, err := obs.LoadManifest(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// small appends a quick run's machine to args: 2^14 virtual pages, 2^10
// RAM pages and 64 TLB entries.
func small(args ...string) []string {
	return append(args, "-vpages", "16384", "-ram", "1024", "-tlb", "64")
}

// TestRejectedFlagsWriteNothing: an invocation atsim can judge bad from
// its flags exits 2 before it writes anything — no manifest, profile or
// side file appears in the working directory. A raw-run flag given with
// -serve, which the serve run would ignore, is rejected by name.
func TestRejectedFlagsWriteNothing(t *testing.T) {
	bin := buildAtsim(t)
	for _, tc := range []struct {
		name string
		args []string
		flag string // the flag the rejection names, if checked
	}{
		{"eps out of range", []string{"-eps", "2"}, ""},
		{"eps with profiles", []string{"-eps", "2", "-cpuprofile", "c.pprof", "-memprofile", "m.pprof", "-manifest", ""}, ""},
		{"unknown algorithm", []string{"-algo", "bogus", "-warmup", "10", "-measure", "10"}, ""},
		{"unknown alloc", []string{"-alloc", "bogus"}, ""},
		{"unknown workload", []string{"-workload", "bogus"}, ""},
		{"unknown tlb policy", []string{"-tlb-policy", "bogus", "-memprofile", "m.pprof"}, ""},
		{"unknown ram policy", []string{"-ram-policy", "bogus"}, ""},
		{"serve queue", []string{"-serve", "-serve-queue", "0"}, ""},
		{"serve load", []string{"-serve", "-serve-load", "NaN"}, ""},
		{"serve arrivals", []string{"-serve", "-serve-arrivals", "bogus"}, ""},
		{"serve graph500", []string{"-serve", "-workload", "graph500"}, ""},
		{"serve replay", []string{"-serve", "-replay", "t.bin"}, ""},
		{"serve dump-trace", []string{"-serve", "-dump-trace", "d.bin"}, "-dump-trace"},
		{"serve explain", []string{"-serve", "-explain"}, "-explain"},
		{"serve sample", []string{"-serve", "-sample", "1000"}, "-sample"},
		{"serve curves", []string{"-serve", "-curves", "c.tsv"}, "-curves"},
		{"serve warmup", []string{"-serve", "-warmup", "7"}, "-warmup"},
		{"serve measure", []string{"-serve", "-measure", "9"}, "-measure"},
		{"serve eps", []string{"-serve", "-eps", "0.5"}, "-eps"},
		{"serve gscale", []string{"-serve", "-gscale", "12"}, "-gscale"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stderr := runAtsim(t, bin, dir, tc.args...)
			if code != 2 {
				t.Fatalf("atsim %v exited %d, want 2\n%s", tc.args, code, stderr)
			}
			if tc.flag != "" && !strings.Contains(stderr, tc.flag+" ") {
				t.Errorf("atsim %v: rejection does not name %s:\n%s", tc.args, tc.flag, stderr)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("atsim %v left %s behind", tc.args, e.Name())
			}
		})
	}
}

// TestTraceWrittenBeforeRecorded: -trace into a directory that does not
// exist yet writes a valid trace, which the manifest names, and the
// timeline report beside it; a trace that cannot be written fails the
// run, and the manifest does not name it.
func TestTraceWrittenBeforeRecorded(t *testing.T) {
	bin := buildAtsim(t)
	dir := t.TempDir()
	args := small("-algo", "hugepage", "-h", "4", "-warmup", "20000", "-measure", "20000",
		"-manifest", "a3", "-trace", "a3tr/t.json")
	if code, stderr := runAtsim(t, bin, dir, args...); code != 0 {
		t.Fatalf("atsim exited %d:\n%s", code, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "a3tr", "t.json"))
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if _, err := xtrace.Validate(data); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if m := loadManifest(t, filepath.Join(dir, "a3")); m.Status != "ok" || m.Trace != "a3tr/t.json" {
		t.Errorf("manifest: status %q, trace %q; want ok, a3tr/t.json", m.Status, m.Trace)
	}
	if _, err := os.Stat(filepath.Join(dir, "a3", "atsim.timeline.tsv")); err != nil {
		t.Errorf("timeline report not written: %v", err)
	}

	// A regular file where the trace's directory should be.
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	args = small("-warmup", "20000", "-measure", "20000", "-manifest", "b3", "-trace", "file/t.json")
	if code, stderr := runAtsim(t, bin, dir, args...); code != 1 {
		t.Fatalf("atsim with an unwritable trace exited %d, want 1:\n%s", code, stderr)
	}
	if m := loadManifest(t, filepath.Join(dir, "b3")); m.Status != "failed" || m.Trace != "" {
		t.Errorf("manifest: status %q, trace %q; want failed and no trace", m.Status, m.Trace)
	}
}

// TestServeRecordLikeEveryRecord: atsim -serve's manifest record carries
// the CPU time, peak RSS and phase record every other record carries,
// and a window dump that cannot be written fails the run.
func TestServeRecordLikeEveryRecord(t *testing.T) {
	bin := buildAtsim(t)
	dir := t.TempDir()
	args := small("-serve", "-algo", "decoupled", "-alloc", "single", "-workload", "uniform",
		"-serve-load", "1.5", "-serve-requests", "2000", "-serve-metrics")
	if code, stderr := runAtsim(t, bin, dir, append(args, "-manifest", "m")...); code != 0 {
		t.Fatalf("atsim -serve exited %d:\n%s", code, stderr)
	}
	m := loadManifest(t, filepath.Join(dir, "m"))
	if len(m.Experiments) != 1 {
		t.Fatalf("%d experiment records, want 1", len(m.Experiments))
	}
	r := m.Experiments[0]
	if r.ID != "serve" || r.Table != "atsim-serve" || r.Serve == nil {
		t.Errorf("record id %q, table %q, serve record %v", r.ID, r.Table, r.Serve != nil)
	}
	if r.CPUSeconds <= 0 || r.MaxRSSMiB <= 0 {
		t.Errorf("cpu_seconds %g, max_rss_mib %g; want both positive", r.CPUSeconds, r.MaxRSSMiB)
	}
	if len(r.Phases) != 1 || r.Phases[0].Phase != "serve" || r.Phases[0].Accesses != 2000 {
		t.Errorf("phases %+v, want one serve phase of 2000 requests", r.Phases)
	}
	if _, err := os.Stat(filepath.Join(dir, "m", "atsim-serve.serve.metrics.tsv")); err != nil {
		t.Errorf("window dump not written: %v", err)
	}

	// A directory where the window dump should be.
	if err := os.MkdirAll(filepath.Join(dir, "n", "atsim-serve.serve.metrics.tsv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if code, stderr := runAtsim(t, bin, dir, append(args, "-manifest", "n")...); code != 1 {
		t.Fatalf("atsim -serve with an unwritable window dump exited %d, want 1:\n%s", code, stderr)
	}
	if m := loadManifest(t, filepath.Join(dir, "n")); m.Status != "failed" || len(m.Experiments) != 0 {
		t.Errorf("manifest: status %q with %d records; want failed with none", m.Status, len(m.Experiments))
	}
}

// TestUnwritableManifestStopsRun: a run whose manifest cannot be written
// (a regular file where its directory should be) exits 1 before it
// simulates anything. It reports the manifest error once and leaves no
// profile, trace, trace dump or cost curves behind.
func TestUnwritableManifestStopsRun(t *testing.T) {
	bin := buildAtsim(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "afile"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	args := small("-warmup", "20000", "-measure", "20000", "-manifest", "afile/m", "-dump-trace", "d.bin",
		"-sample", "1000", "-curves", "c.tsv", "-cpuprofile", "c.pprof", "-trace", "t.json")
	code, stderr := runAtsim(t, bin, dir, args...)
	if code != 1 {
		t.Fatalf("atsim with an unwritable manifest exited %d, want 1:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, "manifest:"); n != 1 {
		t.Errorf("manifest error reported %d times, want once:\n%s", n, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "afile" {
			t.Errorf("atsim left %s behind", e.Name())
		}
	}
}
