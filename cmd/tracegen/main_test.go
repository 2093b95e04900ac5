package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"addrxlat/internal/trace"
)

// run executes the tracegen binary, returning its exit code and its
// stdout (with stderr appended on failure).
func run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("tracegen %v: %v", args, err)
		}
		return ee.ExitCode(), stdout.String() + stderr.String()
	}
	return 0, stdout.String()
}

// build compiles tracegen into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRejectsBadFlags: every bad input exits 1 before the output file is
// created, including NaN and infinite shape parameters, each given to the
// workload that reads it.
func TestRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the tracegen binary")
	}
	bin := build(t)
	for _, args := range [][]string{
		{"-n", "0"},
		{"-workload", "bogus"},
		{"-workload", "zipf", "-zipf-s", "NaN"},
		{"-workload", "zipf", "-zipf-s", "+Inf"},
		{"-workload", "graphwalk", "-alpha", "NaN"},
		{"-workload", "graphwalk", "-alpha", "Inf"},
		{"-workload", "bimodal", "-hot-prob", "NaN"},
		{"-workload", "bimodal", "-hot-prob", "-Inf"},
	} {
		out := filepath.Join(t.TempDir(), "t.trc")
		code, msg := run(t, bin, append(args, "-o", out)...)
		if code != 1 {
			t.Errorf("tracegen %v exited %d, want 1\n%s", args, code, msg)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("tracegen %v left an output file (stat: %v)", args, err)
		}
	}
}

// TestWritesReadableTraces: a bimodal and a graph500 trace each read
// back with the access count tracegen reported.
func TestWritesReadableTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the tracegen binary")
	}
	bin := build(t)
	for _, args := range [][]string{
		{"-workload", "bimodal", "-n", "100000", "-vpages", "4096", "-hot", "64"},
		{"-workload", "graph500", "-gscale", "10"},
	} {
		out := filepath.Join(t.TempDir(), "t.trc")
		code, msg := run(t, bin, append(args, "-o", out)...)
		if code != 0 {
			t.Fatalf("tracegen %v exited %d\n%s", args, code, msg)
		}
		var n int
		if _, err := fmt.Sscanf(msg, "wrote %d accesses to", &n); err != nil {
			t.Fatalf("tracegen %v: no access count in %q: %v", args, msg, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		accesses, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("tracegen %v: trace.Read: %v", args, err)
		}
		if n == 0 || len(accesses) != n {
			t.Errorf("tracegen %v reported %d accesses, the trace holds %d", args, n, len(accesses))
		}
	}
}
