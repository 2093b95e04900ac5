package main

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"addrxlat/internal/obs"
)

// figuresFlags returns a fresh copy of figures' flag set.
func figuresFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var o options
	o.define(fs)
	return fs
}

// FuzzResumeManifest feeds arbitrary bytes to -resume's input path:
// loading the manifest and restoring it onto figures' flags each either
// succeed or return an error, and never panic. A manifest that resumes
// is then written with Manifest.Write and loaded back, and must resume
// with the same set of finished experiments.
func FuzzResumeManifest(f *testing.F) {
	m := obs.NewManifest("figures", []string{"-fig", "e2,f1a"})
	m.Config = map[string]string{"fig": "e2,f1a", "seed": "7", "full": "false", "workers": "2", "lookahead": "2"}
	m.Status, m.Partial = "running", true
	m.Experiments = []obs.RunRecord{{ID: "e2", Table: "e2-hmax-scaling", Rows: 5}, {ID: "t1", Skipped: true}}
	dir := f.TempDir()
	path, err := m.Write(dir)
	if err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(written),
		string(written[:len(written)/2]),
		`{"command": "figures", "journal": "results/journal-figures-20260805T123045Z.jsonl", "status": "running"}`,
		`{"command": "atsim", "experiments": [{"id": "e2"}]}`,
		`{"command": "figures", "config": {"seed": "-1", "full": "maybe", "workers": "x"}}`,
		`{"command": "figures", "experiments": [{"id": "e2"}, {"id": "e2", "skipped": true}, {"id": ""}]}`,
		`{"command": "figures", "experiments": null, "config": null}`,
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prior, err := obs.LoadManifest(in)
		if err != nil {
			return
		}
		done, err := resumeFrom(prior, figuresFlags(), nil)
		if err != nil {
			return
		}
		for _, r := range prior.Experiments {
			if _, ok := done[r.ID]; !ok {
				t.Fatalf("experiment %q recorded but not finished", r.ID)
			}
		}
		out, err := prior.Write(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatalf("Write of a loaded manifest: %v", err)
		}
		defer os.Remove(out)
		back, err := obs.LoadManifest(out)
		if err != nil {
			t.Fatalf("loading a written manifest: %v", err)
		}
		again, err := resumeFrom(back, figuresFlags(), nil)
		if err != nil {
			t.Fatalf("a written manifest does not resume: %v", err)
		}
		got, want := slices.Sorted(maps.Keys(again)), slices.Sorted(maps.Keys(done))
		if !slices.Equal(got, want) {
			t.Fatalf("finished experiments after Write and load = %q, want %q", got, want)
		}
	})
}
