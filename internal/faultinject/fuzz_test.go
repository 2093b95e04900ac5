package faultinject

import (
	"strings"
	"testing"
)

// FuzzFaultPlan checks the ADDRXLAT_FAULTS parser: Arm never panics, a
// rejected spec leaves the previous plan armed exactly as it was, and an
// accepted spec makes Plan() the trimmed spec, armed unless it is blank.
func FuzzFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"", "   ", "cell-panic", "sweep-kill=f1a-bimodal@2", "cache-truncate, trace-corrupt@1",
		"serve-burst@1", "sim-stall=f1a|hugepage(h=4", "explode", "cell-panic@0", "cell-panic@x",
		",", "=x", "@1", "cell-panic=a@b@3", " sweep-kill = f1a @ 3 ",
	} {
		f.Add(spec)
	}
	const prev = "cell-panic=previous@1"
	f.Fuzz(func(t *testing.T, spec string) {
		defer Disarm()
		if err := Arm(prev); err != nil {
			t.Fatal(err)
		}
		if err := Arm(spec); err != nil {
			if !Armed() || Plan() != prev {
				t.Fatalf("rejected Arm(%q) changed the plan: Armed %v, Plan %q", spec, Armed(), Plan())
			}
			return
		}
		want := strings.TrimSpace(spec)
		if Plan() != want {
			t.Fatalf("Arm(%q) accepted, Plan() = %q, want %q", spec, Plan(), want)
		}
		if Armed() != (want != "") {
			t.Fatalf("Arm(%q) accepted, Armed() = %v", spec, Armed())
		}
	})
}
