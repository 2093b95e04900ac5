package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestManifestGolden pins the manifest JSON shape: field names, the
// canonical filename, and the environment stamp. The Start time is fixed
// so the filename is deterministic.
func TestManifestGolden(t *testing.T) {
	m := NewManifest("figures", []string{"-fig", "f1a"})
	m.Start = time.Date(2026, 8, 5, 12, 30, 45, 0, time.UTC)
	m.Config = map[string]string{"fig": "f1a", "seed": "1"}
	m.Seeds = []uint64{1}
	m.WallSeconds = 2.5
	m.Experiments = []RunRecord{{
		ID: "f1a", Table: "fig1a-bimodal", Rows: 12, WallSeconds: 2.5,
		CacheHits: 3, CacheMisses: 9,
		Phases: []PhaseRecord{
			{Row: "bimodal", Phase: "warmup", Accesses: 1000, WallSeconds: 1.0},
			{Row: "bimodal", Phase: "measured", Accesses: 1000, WallSeconds: 1.5},
		},
	}}
	m.Cache = &CacheStats{Dir: "results/cache", Hits: 3, Misses: 9}

	if got, want := m.Filename(), "manifest-figures-20260805T123045Z.json"; got != want {
		t.Fatalf("Filename = %q, want %q", got, want)
	}

	dir := t.TempDir()
	path, err := m.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Shape check: exactly the documented keys, spelled as documented.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"command", "args", "config", "seeds", "go_version", "os", "arch",
		"start", "wall_seconds", "experiments", "cache",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("manifest JSON is missing key %q", key)
		}
	}

	// Round-trip check: the decoded manifest matches what was written.
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Command != "figures" || back.GoVersion != runtime.Version() ||
		back.OS != runtime.GOOS || back.Arch != runtime.GOARCH {
		t.Fatalf("environment stamp mismatch: %+v", back)
	}
	if !back.Start.Equal(m.Start) || back.WallSeconds != 2.5 {
		t.Fatalf("timing mismatch: start=%v wall=%v", back.Start, back.WallSeconds)
	}
	if len(back.Experiments) != 1 || back.Experiments[0].ID != "f1a" ||
		len(back.Experiments[0].Phases) != 2 ||
		back.Experiments[0].Phases[1].Phase != "measured" {
		t.Fatalf("experiments mismatch: %+v", back.Experiments)
	}
	if back.Cache == nil || back.Cache.Hits != 3 || back.Cache.Misses != 9 {
		t.Fatalf("cache mismatch: %+v", back.Cache)
	}
}

// TestFlagConfig checks the config block snapshots resolved flag values —
// parsed overrides and untouched defaults alike.
func TestFlagConfig(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.String("fig", "all", "")
	fs.Uint64("seed", 1, "")
	fs.Bool("full", false, "")
	if err := fs.Parse([]string{"-fig", "f1a", "-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	cfg := FlagConfig(fs)
	want := map[string]string{"fig": "f1a", "seed": "42", "full": "false"}
	if len(cfg) != len(want) {
		t.Fatalf("FlagConfig = %v, want %v", cfg, want)
	}
	for k, v := range want {
		if cfg[k] != v {
			t.Errorf("cfg[%q] = %q, want %q", k, cfg[k], v)
		}
	}
}

// TestNewManifestStampsEnvironment: the constructor fills the fields a
// reproduction needs without any caller help.
func TestNewManifestStampsEnvironment(t *testing.T) {
	m := NewManifest("atsim", nil)
	if m.GoVersion != runtime.Version() || m.OS != runtime.GOOS || m.Arch != runtime.GOARCH {
		t.Fatalf("environment stamp = %q/%q/%q", m.GoVersion, m.OS, m.Arch)
	}
	if m.Start.IsZero() {
		t.Fatal("Start not stamped")
	}
	// GitRevision is best-effort (empty outside a checkout); just ensure
	// resolving it did not panic and Finish produces a sane wall time.
	m.Finish()
	if m.WallSeconds < 0 {
		t.Fatalf("WallSeconds = %v", m.WallSeconds)
	}
}

// TestManifestWritesOwnFile: two runs that start in the same second and
// write alternately into one directory keep one file each, named so the
// later run sorts last, and each file loads back whole as its run's
// latest write.
func TestManifestWritesOwnFile(t *testing.T) {
	dir := t.TempDir()
	start := time.Date(2026, 8, 5, 12, 30, 45, 0, time.UTC)
	runs := []*Manifest{
		{Command: "figures", Args: []string{"-fig", "e2"}, Start: start},
		{Command: "figures", Args: []string{"-fig", "f1a"}, Start: start},
	}
	paths := make([]string, len(runs))
	for round := 0; round < 3; round++ {
		for i, m := range runs {
			m.Experiments = append(m.Experiments, RunRecord{ID: m.Args[1], Rows: round})
			path, err := m.Write(dir)
			if err != nil {
				t.Fatal(err)
			}
			if round > 0 && path != paths[i] {
				t.Fatalf("run %d rewrote into %s, first wrote %s", i, path, paths[i])
			}
			paths[i] = path
		}
	}
	if paths[0] >= paths[1] {
		t.Fatalf("the later run's %s does not sort after the earlier run's %s", paths[1], paths[0])
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("directory holds %v, want the two manifests alone", files)
	}
	for i, m := range runs {
		back, err := LoadManifest(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Args, m.Args) || !reflect.DeepEqual(back.Experiments, m.Experiments) {
			t.Errorf("%s loads back args %v, experiments %+v; run %d wrote %v, %+v",
				paths[i], back.Args, back.Experiments, i, m.Args, m.Experiments)
		}
	}
}
