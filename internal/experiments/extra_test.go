package experiments

import (
	"strings"
	"testing"
)

func TestPoliciesTable(t *testing.T) {
	t.Parallel()
	tab, err := Policies(Scale{}, 256, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads × (1 OPT row + 9 policies).
	if len(tab.Rows) != 3*10 {
		t.Fatalf("rows = %d, want 30", len(tab.Rows))
	}
	// OPT must lower-bound every policy on each workload; LRU's ratio on
	// zipf should be modest (< 3).
	var currentOpt float64
	for _, row := range tab.Rows {
		if row[1] == "opt(offline)" {
			currentOpt = parse(t, row[2])
			continue
		}
		misses := parse(t, row[2])
		if misses < currentOpt {
			t.Errorf("%s/%s: %v misses below OPT %v", row[0], row[1], misses, currentOpt)
		}
		if row[0] == "zipf(s=1.1)" && row[1] == "lru" && parse(t, row[3]) > 3 {
			t.Errorf("LRU/zipf ratio %v implausibly high", parse(t, row[3]))
		}
	}
	if _, err := Policies(Scale{}, 0, 10, 1); err == nil {
		t.Error("capacity=0 should error")
	}
	if _, err := Policies(Scale{}, 10, 0, 1); err == nil {
		t.Error("accesses=0 should error")
	}
}

func TestAdaptiveTable(t *testing.T) {
	t.Parallel()
	tab, err := Adaptive(testScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	get := func(prefix string) []string {
		for _, row := range tab.Rows {
			if strings.HasPrefix(row[0], prefix) {
				return row
			}
		}
		t.Fatalf("missing row %q", prefix)
		return nil
	}
	h1 := get("hugepage(h=1")
	fixed := get("hugepage(h=")
	if fixed[0] == h1[0] {
		// get returned the same row for both prefixes; find the big one.
		for _, row := range tab.Rows {
			if strings.HasPrefix(row[0], "hugepage(") && row[0] != h1[0] {
				fixed = row
			}
		}
	}
	thp := get("thp(")
	sp := get("superpage(")
	z := get("decoupled(")
	hy := get("hybrid(")

	// Adaptive baselines should beat fixed-h on IOs.
	if parse(t, thp[1]) >= parse(t, fixed[1]) {
		t.Errorf("THP IOs %s not below fixed-h %s", thp[1], fixed[1])
	}
	if parse(t, sp[1]) >= parse(t, fixed[1]) {
		t.Errorf("superpage IOs %s not below fixed-h %s", sp[1], fixed[1])
	}
	// The decoupled algorithm dominates the h=1 baseline: (weakly) fewer
	// TLB misses at (near-)equal IOs. Its coverage is capped at hmax, so
	// wider physical huge pages can beat it on TLB misses — that is
	// exactly the Section 8 motivation for the hybrid, which extends
	// coverage to h at only g-fold IO amplification.
	if parse(t, z[2]) > parse(t, h1[2]) {
		t.Errorf("decoupled TLB misses %s above h=1's %s", z[2], h1[2])
	}
	if parse(t, z[1]) > parse(t, h1[1])*1.2+10 {
		t.Errorf("decoupled IOs %s far above h=1's %s", z[1], h1[1])
	}
	if parse(t, hy[2]) > parse(t, z[2]) {
		t.Errorf("hybrid TLB misses %s above plain decoupled's %s (coverage should be wider)", hy[2], z[2])
	}
	if parse(t, hy[1]) > parse(t, fixed[1]) {
		t.Errorf("hybrid IOs %s above fixed-h's %s (amplification should be g, not h)", hy[1], fixed[1])
	}
}

func TestNestedTable(t *testing.T) {
	t.Parallel()
	tab, err := Nested(testScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	flatMisses := parse(t, tab.Rows[0][1])
	for _, row := range tab.Rows[1:] {
		if parse(t, row[1]) < flatMisses {
			t.Errorf("nested config %s has fewer TLB misses (%s) than flat (%v)",
				row[0], row[1], flatMisses)
		}
		if parse(t, row[2]) == 0 {
			t.Errorf("nested config %s reports zero walk refs", row[0])
		}
	}
}
