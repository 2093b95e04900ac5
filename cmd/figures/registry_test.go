package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"addrxlat/internal/experiments"
)

// TestUnknownExperimentListsRegistry: an unknown -fig id exits 2 with a
// message naming every experiment in the registry.
func TestUnknownExperimentListsRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	code, stderr := runFigures(t, bin, nil, "-fig", "bogus", "-manifest", "", "-progress=false")
	if code != 2 {
		t.Fatalf("exit code %d, want 2\n%s", code, stderr)
	}
	_, list, ok := strings.Cut(stderr, "want one of ")
	if !ok {
		t.Fatalf("no id list in %q", stderr)
	}
	list, _, _ = strings.Cut(list, ")")
	named := map[string]bool{}
	for _, id := range strings.Fields(list) {
		named[id] = true
	}
	for _, e := range experiments.Registry() {
		if !named[e.ID] {
			t.Errorf("unknown-id message does not name %q: %q", e.ID, stderr)
		}
	}
	if !named["all"] {
		t.Errorf("unknown-id message does not name \"all\": %q", stderr)
	}
}

// TestRejectedFlagsWriteNothing: an invocation figures rejects exits
// before it writes anything — no result cache, manifest, profile or
// output file appears in the working directory.
func TestRejectedFlagsWriteNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the figures binary")
	}
	bin := buildFigures(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"unknown experiment", []string{"-fig", "bogus", "-manifest", ""}, 2},
		{"unknown experiment with profiles", []string{"-fig", "bogus", "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"}, 2},
		{"no experiment", []string{"-fig", ",", "-out", "out"}, 2},
		{"unknown format", []string{"-fig", "e2", "-format", "xml", "-out", "out"}, 2},
		{"missing resume manifest", []string{"-resume", "missing.json", "-memprofile", "mem.pprof"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(bin, append(tc.args, "-progress=false")...)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
				t.Fatalf("figures %v: %v, want exit status %d\n%s", tc.args, err, tc.code, out)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("figures %v left %s behind", tc.args, e.Name())
			}
		})
	}
}
