package main

import (
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
