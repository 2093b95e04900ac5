package experiments

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// testScale shrinks everything hard so experiment tests run in seconds.
func testScale() Scale { return Scale{SpaceDiv: 512, AccessDiv: 500} }

func TestScaleValidate(t *testing.T) {
	if err := (Scale{}).validate(); err == nil {
		t.Error("zero scale should error")
	}
	if err := PaperScale().validate(); err != nil {
		t.Error(err)
	}
	if err := DownScale().validate(); err != nil {
		t.Error(err)
	}
}

func TestScaleHelpers(t *testing.T) {
	s := Scale{SpaceDiv: 64, AccessDiv: 50}
	if got := s.pages(64 * paperGiB); got != (64*paperGiB)/4096/64 {
		t.Errorf("pages = %d", got)
	}
	if got := s.pages(1); got != 1 {
		t.Errorf("pages floor = %d, want 1", got)
	}
	if got := s.entries(1536, 16); got != 24 {
		t.Errorf("entries = %d, want 24", got)
	}
	if got := s.entries(64, 16); got != 16 {
		t.Errorf("entries floor = %d, want 16", got)
	}
	if got := s.accesses(100_000_000); got != 2_000_000 {
		t.Errorf("accesses = %d", got)
	}
	if got := s.accesses(100); got != 10000 {
		t.Errorf("accesses floor = %d", got)
	}
}

func TestHugePageSweep(t *testing.T) {
	hs := HugePageSweep()
	if len(hs) != 11 || hs[0] != 1 || hs[10] != 1024 {
		t.Fatalf("sweep = %v", hs)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Name:    "demo",
		Caption: "a demo",
		Columns: []string{"a", "b"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", uint64(7))
	var tsv bytes.Buffer
	if err := tab.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	out := tsv.String()
	if !strings.Contains(out, "a\tb") || !strings.Contains(out, "1\t2.5") {
		t.Fatalf("TSV output:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "x,7") {
		t.Fatalf("CSV output:\n%s", csv.String())
	}
	// Cells with commas are rejected rather than silently corrupted.
	bad := &Table{Columns: []string{"a"}}
	bad.AddRow("1,2")
	if err := bad.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("comma cell should be rejected")
	}
}

func TestForEach(t *testing.T) {
	results := make([]int, 100)
	err := Scale{}.forEach(100, func(i int) error {
		results[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("results[%d] = %d", i, r)
		}
	}
	// Errors propagate.
	err = Scale{}.forEach(10, func(i int) error {
		if i == 5 {
			return errTest
		}
		return nil
	})
	if !errors.Is(err, errTest) {
		t.Fatalf("err = %v", err)
	}
	// n=0 must not hang.
	if err := (Scale{}).forEach(0, func(int) error { return errTest }); err != nil {
		t.Fatal("n=0 should be a no-op")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

// parse pulls a numeric column from a table row, failing on "saturated".
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", cell)
	}
	return v
}

// TestFig1Shapes runs all three panels at test scale and asserts the
// paper's qualitative claims: IOs rise and TLB misses fall monotonically
// (weakly) in h, with a multi-order-of-magnitude swing between endpoints.
func TestFig1Shapes(t *testing.T) {
	for _, w := range []Fig1Workload{F1aBimodal, F1bGraphWalk, F1cGraph500} {
		w := w
		t.Run(string(w), func(t *testing.T) {
			t.Parallel()
			tab, err := Fig1(w, testScale(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) != 11 {
				t.Fatalf("rows = %d, want 11", len(tab.Rows))
			}
			var ios, tlbs []float64
			for _, row := range tab.Rows {
				if row[1] == "saturated" {
					continue
				}
				ios = append(ios, parse(t, row[1]))
				tlbs = append(tlbs, parse(t, row[2]))
			}
			// The f1c panel saturates earlier at test scale: its RAM is
			// sized just below the touched footprint, which the largest
			// huge pages exceed.
			minUsable := 8
			if w == F1cGraph500 {
				minUsable = 5
			}
			if len(ios) < minUsable {
				t.Fatalf("too many saturated rows: %d usable", len(ios))
			}
			for i := 1; i < len(ios); i++ {
				// Allow relative wiggle plus small absolute noise: at
				// test scale the graph500 panel's IO counts start in the
				// double digits where ±dozens of faults are noise.
				if ios[i] < ios[i-1]*0.9-100 {
					t.Errorf("IOs dropped at index %d: %v -> %v", i, ios[i-1], ios[i])
				}
				if tlbs[i] > tlbs[i-1]*1.1+100 {
					t.Errorf("TLB misses rose at index %d: %v -> %v", i, tlbs[i-1], tlbs[i])
				}
			}
			first, last := 0, len(ios)-1
			if ios[last] < 50*ios[first] {
				t.Errorf("IO amplification too weak: %v -> %v", ios[first], ios[last])
			}
			// Figure 1b's TLB relief is small even in the paper (its
			// whole TLB axis spans 10^8.1–10^8.7, under one decade);
			// 1a and 1c show multi-decade relief.
			minRelief := 20.0
			if w == F1bGraphWalk {
				minRelief = 2.0
			}
			if tlbs[first] < minRelief*tlbs[last] {
				t.Errorf("TLB relief too weak: %v -> %v (want ≥%vx)", tlbs[first], tlbs[last], minRelief)
			}
		})
	}
}

func TestFig1UnknownWorkload(t *testing.T) {
	if _, err := Fig1("nope", testScale(), 1); err == nil {
		t.Fatal("unknown workload should error")
	}
	if _, err := Fig1(F1aBimodal, Scale{}, 1); err == nil {
		t.Fatal("invalid scale should error")
	}
}

func TestTheorem1And3(t *testing.T) {
	t.Parallel()
	tab1, err := Theorem1(Scale{}, 1<<15, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab3, err := Theorem3(Scale{}, 1<<15, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{tab1, tab3} {
		if len(tab.Rows) != 5 {
			t.Fatalf("%s: rows = %d", tab.Name, len(tab.Rows))
		}
		// The full-size bucket row (frac=1.0) must be failure-free; the
		// half-size row must fail.
		var fullRate, halfRate float64
		for _, row := range tab.Rows {
			frac := parse(t, row[0])
			rate := parse(t, row[4])
			if frac == 1.0 {
				fullRate = rate
			}
			if frac == 0.5 {
				halfRate = rate
			}
		}
		if fullRate != 0 {
			t.Errorf("%s: failure rate %v at derived bucket size, want 0", tab.Name, fullRate)
		}
		if halfRate == 0 {
			t.Errorf("%s: no failures at half bucket size — sweep not discriminating", tab.Name)
		}
	}
}

func TestTheorem2(t *testing.T) {
	t.Parallel()
	tab, err := Theorem2(Scale{}, 16, []int{1 << 8, 1 << 10}, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		one := parse(t, row[3])
		ice := parse(t, row[7])
		if ice >= one {
			t.Errorf("iceberg peak %v not below one-choice %v", ice, one)
		}
	}
	if _, err := Theorem2(Scale{}, 0, nil, 10, 1); err == nil {
		t.Error("lambda=0 should error")
	}
}

func TestTheorem4(t *testing.T) {
	t.Parallel()
	tab, err := Theorem4(testScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads × (5 algorithms + 2 offline-OPT rows).
	if len(tab.Rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(tab.Rows))
	}
	// For each workload: C(Z) ≤ C_TLB(X) + C_IO(Y) + slack.
	byWorkload := map[string]map[string][]string{}
	for _, row := range tab.Rows {
		w := row[0]
		if byWorkload[w] == nil {
			byWorkload[w] = map[string][]string{}
		}
		byWorkload[w][algoClass(row[1])] = row
	}
	for w, rows := range byWorkload {
		z, x, y := rows["decoupled"], rows["tlb-only"], rows["ram-only"]
		if z == nil || x == nil || y == nil {
			t.Fatalf("%s: missing algorithm rows: %v", w, rows)
		}
		cz := parse(t, z[5])
		cx := parse(t, x[5])
		cy := parse(t, y[5])
		failures := parse(t, z[6])
		slack := failures*(1+paperEpsilon) + 1e-6
		if cz > cx+cy+slack {
			t.Errorf("%s: C(Z)=%v > C_TLB(X)+C_IO(Y)+slack=%v", w, cz, cx+cy+slack)
		}
	}
}

func algoClass(name string) string {
	switch {
	case strings.HasPrefix(name, "decoupled"):
		return "decoupled"
	case strings.HasPrefix(name, "tlb-only"):
		return "tlb-only"
	case strings.HasPrefix(name, "ram-only"):
		return "ram-only"
	case strings.HasPrefix(name, "hugepage(h=1,"):
		return "h1"
	default:
		return "hmax"
	}
}

func TestEquation2(t *testing.T) {
	tab, err := Equation2(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7*3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At every P, iceberg hmax ≥ single hmax ≥ full hmax.
	for i := 0; i < len(tab.Rows); i += 3 {
		full := parse(t, tab.Rows[i][4])
		single := parse(t, tab.Rows[i+1][4])
		ice := parse(t, tab.Rows[i+2][4])
		if !(full <= single && single <= ice) {
			t.Errorf("P=%s: hmax ordering %v/%v/%v", tab.Rows[i][0], full, single, ice)
		}
	}
}

func TestHybridExperiment(t *testing.T) {
	t.Parallel()
	tab, err := Hybrid(testScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Coverage must grow linearly with g; TLB misses must (weakly) fall.
	prevCov := 0.0
	prevTLB := -1.0
	for _, row := range tab.Rows {
		cov := parse(t, row[1])
		tlb := parse(t, row[3])
		if cov <= prevCov {
			t.Errorf("coverage %v not increasing", cov)
		}
		if prevTLB >= 0 && tlb > prevTLB*1.1 {
			t.Errorf("TLB misses rose with g: %v -> %v", prevTLB, tlb)
		}
		prevCov, prevTLB = cov, tlb
	}
}

func TestCoverageVsW(t *testing.T) {
	tab, err := CoverageVsW(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	// Iceberg hmax must grow (weakly) with w and dominate full hmax.
	prev := 0.0
	for _, row := range tab.Rows {
		ice := parse(t, row[3])
		full := parse(t, row[1])
		if ice < prev {
			t.Errorf("iceberg hmax fell as w grew: %v -> %v", prev, ice)
		}
		prev = ice
		if full > 0 && ice < full {
			t.Errorf("iceberg hmax %v below full %v", ice, full)
		}
	}
	// At w=256 the coverage multiple over full associativity is large.
	last := tab.Rows[len(tab.Rows)-1]
	if parse(t, last[3]) < 4*parse(t, last[1]) {
		t.Errorf("w=256: iceberg %s not ≥4× full %s", last[3], last[1])
	}
}
