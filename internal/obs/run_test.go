package obs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"addrxlat/internal/event"
	"addrxlat/internal/mm"
)

// TestRunLifecycle drives a run through one finished experiment and one
// canceled one: the manifest is "running" from the start and lists the
// finished experiment with its phases and usage once its side files are
// written; cancellation leaves the in-flight experiment's curves as
// <label>.partial.curves.tsv, a "canceled" manifest and exit code 130.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	r := StartRun(RunConfig{Command: "test", Seed: 7, Manifest: dir, Files: dir})
	load := func() *Manifest {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "manifest-test-*.json"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("manifests %v (err %v), want 1", paths, err)
		}
		m, err := LoadManifest(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := load(); m.Status != "running" || len(m.Seeds) != 1 || m.Seeds[0] != 7 {
		t.Fatalf("started manifest: status %q, seeds %v", m.Status, m.Seeds)
	}

	x := r.Begin("one", 1)
	x.Rec.Observe(sample("row", mm.PhaseMeasured, "alg", pt(5, 1)))
	x.Rec.Observe(event.Event{Kind: event.KindPhase, Row: "row", Phase: mm.PhaseMeasured, Accesses: 5})
	rr, err := x.End(RunRecord{ID: "one", Table: "one-table", Rows: 1}, "one-table")
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Phases) != 1 || rr.MaxRSSMiB <= 0 {
		t.Errorf("record %+v: want one phase and a positive peak RSS", rr)
	}
	if _, err := os.Stat(filepath.Join(dir, "one-table.curves.tsv")); err != nil {
		t.Errorf("curves not written: %v", err)
	}
	if m := load(); m.Status != "running" || len(m.Experiments) != 1 || m.Experiments[0].ID != "one" {
		t.Fatalf("manifest after End: status %q, %d records", m.Status, len(m.Experiments))
	}

	x = r.Begin("two", 1)
	x.Rec.Observe(sample("row", mm.PhaseWarmup, "alg", pt(3, 1)))
	if code := r.Close(fmt.Errorf("two: %w", context.Canceled)); code != 130 {
		t.Fatalf("canceled run: exit code %d, want 130", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "two.partial.curves.tsv")); err != nil {
		t.Errorf("partial curves not written: %v", err)
	}
	m := load()
	if m.Status != "canceled" || !m.Partial || m.Error != "two: context canceled" || len(m.Experiments) != 1 {
		t.Errorf("manifest: status %q, partial %v, error %q, %d records", m.Status, m.Partial, m.Error, len(m.Experiments))
	}
}
