package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"addrxlat/internal/xtrace"
)

// TestExitCodes: tracelint exits 0 on a trace xtrace wrote, 1 on a
// missing or malformed file, and 2 when given no file.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the tracelint binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracelint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	tr := xtrace.New()
	th := tr.Thread("sweep")
	start := tr.Now()
	th.Span("inner", xtrace.CatChunk, tr.Now())
	th.Span("figures", xtrace.CatSweep, start)
	good := filepath.Join(dir, "good.trace.json")
	if err := tr.WriteFile(good); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "malformed.trace.json")
	if err := os.WriteFile(malformed, []byte(`{"traceEvents": [{"ph": "X"`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{good}, 0},
		{[]string{filepath.Join(dir, "missing.trace.json")}, 1},
		{[]string{malformed}, 1},
		{[]string{good, malformed}, 1},
		{nil, 2},
	} {
		var out bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &out, &out
		code := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("tracelint %v: %v", tc.args, err)
			}
			code = ee.ExitCode()
		}
		if code != tc.want {
			t.Errorf("tracelint %v exited %d, want %d\n%s", tc.args, code, tc.want, out.String())
		}
	}
}
