package main

// Kill-and-resume integration test: build the figures binary, kill it at
// a chunk boundary mid-sweep via the sweep-kill fault point (os.Exit with
// no flushing — a stand-in for SIGKILL/OOM), resume from the manifest it
// left behind, and require the resulting tables to be byte-identical to
// an uninterrupted run. The -fig list puts the instant e2 experiment
// before f1a so the resume also exercises skipping the experiments the
// manifest records as finished.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"addrxlat/internal/faultinject"
)

// buildFigures compiles the figures binary once per test run.
func buildFigures(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "figures")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runFigures executes the binary and returns its exit code and stderr.
func runFigures(t *testing.T, bin string, env []string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("figures %v: %v\n%s", args, err, stderr.String())
		}
		code = ee.ExitCode()
	}
	return code, stderr.String()
}

func TestKillAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	cases := []struct {
		name string
		seed uint64
		// retired adds "lookahead" — a flag this binary no longer defines
		// — to the crashed manifest's config: a manifest written before
		// the flag was retired must still resume.
		retired bool
	}{
		{"seed1", 1, false},
		{"seed7", 7, false},
		{"seed42", 42, false},
		{"seed7-retired-flag", 7, true},
	}
	for _, tc := range cases {
		seed := tc.seed
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			seedArg := fmt.Sprintf("-seed=%d", seed)
			figArg := "-fig=e2,f1a"

			// Reference: one uninterrupted run.
			fullOut := filepath.Join(root, "full-out")
			if code, errOut := runFigures(t, bin, nil, figArg, seedArg,
				"-out="+fullOut,
				"-manifest="+filepath.Join(root, "full-mani"),
				"-cache="+filepath.Join(root, "full-cache"),
				"-progress=false"); code != 0 {
				t.Fatalf("full run exited %d:\n%s", code, errOut)
			}

			// Crash: the sweep-kill fault point os.Exit(137)s at the second
			// chunk boundary of the f1a row — after e2 was emitted and
			// recorded in the manifest, before f1a could finish.
			partOut := filepath.Join(root, "part-out")
			partMani := filepath.Join(root, "part-mani")
			env := []string{faultinject.EnvVar + "=" + faultinject.SweepKill + "=f1a-bimodal@2"}
			code, errOut := runFigures(t, bin, env, figArg, seedArg,
				"-out="+partOut,
				"-manifest="+partMani,
				"-cache="+filepath.Join(root, "part-cache"),
				"-progress=false")
			if code != faultinject.KillExitCode {
				t.Fatalf("killed run exited %d, want %d:\n%s", code, faultinject.KillExitCode, errOut)
			}

			// The crash left exactly one manifest, frozen at "running".
			manifests, err := filepath.Glob(filepath.Join(partMani, "manifest-*.json"))
			if err != nil || len(manifests) != 1 {
				t.Fatalf("manifests after crash = %v (err %v), want exactly 1", manifests, err)
			}
			data, err := os.ReadFile(manifests[0])
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), `"status": "running"`) {
				t.Fatalf("crashed manifest is not marked running:\n%s", data)
			}
			if tc.retired {
				addConfig(t, manifests[0], "lookahead", "2")
			}

			// Resume from the crashed manifest: flags are restored from its
			// config, e2 is skipped via its record, f1a is recomputed.
			code, errOut = runFigures(t, bin, nil, "-resume="+manifests[0])
			if code != 0 {
				t.Fatalf("resume exited %d:\n%s", code, errOut)
			}
			if !strings.Contains(errOut, "e2: complete in manifest, skipped (resume)") {
				t.Errorf("resume did not skip e2:\n%s", errOut)
			}

			// Acceptance: byte-identical tables.
			for _, name := range []string{"e2-hmax-scaling.tsv", "f1a-bimodal.tsv"} {
				want, err := os.ReadFile(filepath.Join(fullOut, name))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(partOut, name))
				if err != nil {
					t.Fatalf("resumed run did not produce %s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs after kill+resume:\n--- uninterrupted\n%s--- resumed\n%s", name, want, got)
				}
			}
		})
	}
}

// addConfig records name=val in the config block of the manifest at
// path, as if the run that wrote it had had that flag.
func addConfig(t *testing.T, path, name, val string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	cfg, ok := m["config"].(map[string]any)
	if !ok {
		t.Fatalf("manifest %s has no config block", path)
	}
	cfg[name] = val
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedCellFooter is the CLI half of the per-cell fault story: a
// single poisoned parameter point must not kill the sweep — its row reads
// "error", the failure is footnoted, and every other row is produced.
func TestPoisonedCellFooter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	root := t.TempDir()
	outDir := filepath.Join(root, "out")
	env := []string{faultinject.EnvVar + "=" + faultinject.CellPanic + "=(h=16"}
	if code, errOut := runFigures(t, bin, env, "-fig=f1a", "-seed=1",
		"-out="+outDir,
		"-manifest="+filepath.Join(root, "mani"),
		"-no-cache", "-progress=false"); code != 0 {
		t.Fatalf("sweep with one poisoned cell exited %d:\n%s", code, errOut)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "f1a-bimodal.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	tsv := string(data)
	if !strings.Contains(tsv, "16\terror\terror\terror\n") {
		t.Errorf("poisoned h=16 row missing from table:\n%s", tsv)
	}
	if !strings.Contains(tsv, "# note: cell h=16 failed:") {
		t.Errorf("table footer lacks the per-cell error note:\n%s", tsv)
	}
	if n := strings.Count(tsv, "\terror"); n != 3 { // one row of three error cells
		t.Errorf("%d error cells, want exactly 3 (one degraded row):\n%s", n, tsv)
	}
}

// newestManifest returns the lexically last manifest in dir: names carry
// the run's start time, so it is the newest run's.
func newestManifest(t *testing.T, dir string) string {
	t.Helper()
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("manifests in %s = %v (err %v), want at least 1", dir, manifests, err)
	}
	return manifests[len(manifests)-1]
}

// recordedIDs returns the ids of the experiment records in the manifest
// at path.
func recordedIDs(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Experiments []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest %s: %v", path, err)
	}
	var ids []string
	for _, r := range m.Experiments {
		ids = append(ids, r.ID)
	}
	return ids
}

// requireSameTables fails unless every named table in got matches want.
func requireSameTables(t *testing.T, wantDir, gotDir string, names ...string) {
	t.Helper()
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatalf("resumed run did not produce %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs after kill+resume:\n--- uninterrupted\n%s--- resumed\n%s", name, want, got)
		}
	}
}

// TestResumeChainSkipsFinishedWork kills a sweep twice — in f1a, then,
// resuming, in f1b — and resumes again from the newest manifest. Each
// manifest carries the records of the runs before it, so the last resume
// skips both e2 and f1a, and the tables match an uninterrupted run. Its
// progress counts only the experiment it runs: the last line reads
// [1/1], with no ETA.
func TestResumeChainSkipsFinishedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	root := t.TempDir()
	args := func(name string) []string {
		return []string{"-fig=e2,f1a,f1b", "-seed=1",
			"-out=" + filepath.Join(root, name+"-out"),
			"-manifest=" + filepath.Join(root, name+"-mani"),
			"-cache=" + filepath.Join(root, name+"-cache"),
			"-progress=false"}
	}
	if code, errOut := runFigures(t, bin, nil, args("full")...); code != 0 {
		t.Fatalf("full run exited %d:\n%s", code, errOut)
	}
	kill := func(row string) []string {
		return []string{faultinject.EnvVar + "=" + faultinject.SweepKill + "=" + row + "@2"}
	}
	partMani := filepath.Join(root, "part-mani")

	// First crash, in f1a: the manifest records e2 and nothing after it.
	if code, errOut := runFigures(t, bin, kill("f1a-bimodal"), args("part")...); code != faultinject.KillExitCode {
		t.Fatalf("first killed run exited %d, want %d:\n%s", code, faultinject.KillExitCode, errOut)
	}
	first := newestManifest(t, partMani)
	if ids := recordedIDs(t, first); !slices.Equal(ids, []string{"e2"}) {
		t.Fatalf("manifest after the first crash records %v, want [e2]", ids)
	}

	// Second crash, in f1b, resuming the first: e2 is skipped and carried
	// forward, f1a finishes.
	code, errOut := runFigures(t, bin, kill("f1b-graphwalk"), "-resume="+first)
	if code != faultinject.KillExitCode {
		t.Fatalf("resumed run killed in f1b exited %d, want %d:\n%s", code, faultinject.KillExitCode, errOut)
	}
	if !strings.Contains(errOut, "e2: complete in manifest, skipped (resume)") {
		t.Errorf("first resume did not skip e2:\n%s", errOut)
	}
	second := newestManifest(t, partMani)
	if ids := recordedIDs(t, second); !slices.Equal(ids, []string{"e2", "f1a"}) {
		t.Fatalf("manifest after the second crash records %v, want [e2 f1a]", ids)
	}

	// Resume from the newest manifest: both finished experiments are
	// skipped, only f1b runs.
	code, errOut = runFigures(t, bin, nil, "-resume="+second, "-progress")
	if code != 0 {
		t.Fatalf("second resume exited %d:\n%s", code, errOut)
	}
	for _, id := range []string{"e2", "f1a"} {
		if !strings.Contains(errOut, id+": complete in manifest, skipped (resume)") {
			t.Errorf("second resume did not skip %s:\n%s", id, errOut)
		}
	}
	var last string
	for _, line := range strings.Split(errOut, "\n") {
		if strings.HasPrefix(line, "figures: [") {
			last = line
		}
	}
	if !strings.HasPrefix(last, "figures: [ 1/1] f1b ") || strings.Contains(last, "eta") {
		t.Errorf("last progress line %q, want [ 1/1] f1b with no ETA:\n%s", last, errOut)
	}
	if ids := recordedIDs(t, newestManifest(t, partMani)); !slices.Equal(ids, []string{"e2", "f1a", "f1b"}) {
		t.Errorf("final manifest records %v, want [e2 f1a f1b]", ids)
	}
	requireSameTables(t, filepath.Join(root, "full-out"), filepath.Join(root, "part-out"),
		"e2-hmax-scaling.tsv", "f1a-bimodal.tsv", "f1b-graphwalk.tsv")
}

// TestResumeJournalFormatManifest resumes from a manifest in the format
// written before the manifest became the progress record: a "journal"
// key naming a sidecar file and no experiment records while running. It
// must resume with nothing skipped.
func TestResumeJournalFormatManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	root := t.TempDir()
	fullOut, partOut, partMani := filepath.Join(root, "full-out"), filepath.Join(root, "part-out"), filepath.Join(root, "part-mani")
	if code, errOut := runFigures(t, bin, nil, "-fig=e2,f1a", "-seed=7", "-out="+fullOut,
		"-manifest="+filepath.Join(root, "full-mani"), "-no-cache", "-progress=false"); code != 0 {
		t.Fatalf("full run exited %d:\n%s", code, errOut)
	}
	env := []string{faultinject.EnvVar + "=" + faultinject.SweepKill + "=f1a-bimodal@2"}
	if code, errOut := runFigures(t, bin, env, "-fig=e2,f1a", "-seed=7", "-out="+partOut,
		"-manifest="+partMani, "-no-cache", "-progress=false"); code != faultinject.KillExitCode {
		t.Fatalf("killed run exited %d, want %d:\n%s", code, faultinject.KillExitCode, errOut)
	}
	path := newestManifest(t, partMani)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "experiments")
	m["journal"] = filepath.Join(partMani, "journal-figures-20260101T000000Z.jsonl")
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, errOut := runFigures(t, bin, nil, "-resume="+path)
	if code != 0 {
		t.Fatalf("resume exited %d:\n%s", code, errOut)
	}
	if strings.Contains(errOut, "skipped (resume)") {
		t.Errorf("resume from a manifest without records skipped work:\n%s", errOut)
	}
	requireSameTables(t, fullOut, partOut, "e2-hmax-scaling.tsv", "f1a-bimodal.tsv")
}
