package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"addrxlat/internal/serve"
)

// TestServeMetricsByteIdentical is the harness-level byte-identity pin
// the metrics layer is designed around: arming the per-cell window
// collector must not change a single point of the serve grid — the
// collector observes at event boundaries, never draws randomness, never
// perturbs virtual time. sv1 runs the grid bare and sv3 armed, so apart
// from the window stream every serve.Point must be equal, at every seed
// and worker count.
func TestServeMetricsByteIdentical(t *testing.T) {
	sweep := func(table string, s Scale, seed uint64) []serve.Point {
		t.Helper()
		sp, err := buildServeSpec(table, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		pts, cellErrs, err := serveSweep(sp, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, cerr := range cellErrs {
			if cerr != nil {
				t.Fatalf("%s seed %d: cell %d failed: %v", table, seed, i, cerr)
			}
		}
		return pts
	}
	for _, seed := range []uint64{1, 7, 42} {
		bare := sweep(ServeGoodputID, serveTestScale(1), seed)
		for _, workers := range []int{1, 4} {
			armed := sweep(ServeSLOID, serveTestScale(workers), seed)
			for i, pt := range armed {
				if pt.Metrics == nil || bare[i].Metrics != nil {
					t.Fatalf("seed %d: %s|load=%g: window stream armed %v, bare %v",
						seed, pt.Alg, pt.Load, pt.Metrics != nil, bare[i].Metrics != nil)
				}
				if pt.Metrics = nil; pt != bare[i] {
					t.Fatalf("seed %d -workers %d: arming metrics changed %s|load=%g:\n bare  %+v\n armed %+v",
						seed, workers, pt.Alg, pt.Load, bare[i], pt)
				}
			}
		}
	}
}

// TestServeWindowStreamDigest pins sv3's window stream, not just its
// table: the SHA-256 of serve.WriteMetricsTSV over the sweep record
// (every cell's windows, SLO summary and exemplars) at seeds 1, 7 and
// 42. results-check skips the *.serve.metrics.tsv dump and the other
// serve tests compare windows only with Counters or with each other, so
// this is the one check that a change to how windows are counted leaves
// every window value as it was. A deliberate change to the stream
// updates the digests.
func TestServeWindowStreamDigest(t *testing.T) {
	want := map[uint64]string{
		1:  "025935bf7ec6dedc4337610e613888623d98fb27209f8baac698c61334e69767",
		7:  "3233f4a7d312ad61818c2b3650c56ed5c57fb4acd78120c399f75cfad14a41bd",
		42: "e5a268698c3d11c4d6f077644c2fd8d434ced84e52795025f3ad57af5b9f865b",
	}
	for _, seed := range []uint64{1, 7, 42} {
		s := serveTestScale(1)
		sp, err := buildServeSpec(ServeSLOID, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		pts, cellErrs, err := serveSweep(sp, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, cerr := range cellErrs {
			if cerr != nil {
				t.Fatalf("seed %d: cell %d failed: %v", seed, i, cerr)
			}
		}
		rec := sp.record(pts, cellErrs)
		h := sha256.New()
		if err := serve.WriteMetricsTSV(h, &rec); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: sv3 window stream digest %s, want %s", seed, got, want[seed])
		}
	}
}

// TestServeSLODeterministic pins the sv3 table byte-identical across
// worker counts at seeds 1, 7, 42, like the other serve tables.
func TestServeSLODeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seq := renderServe(t, ServeSLO, serveTestScale(1), seed)
		par := renderServe(t, ServeSLO, serveTestScale(4), seed)
		if !bytes.Equal(seq, par) {
			t.Fatalf("seed %d: %s differs between -workers 1 and -workers 4:\n%s\n---\n%s",
				seed, ServeSLOID, seq, par)
		}
	}
}

// TestServeSLOTable checks the sv3 verdict columns are internally
// consistent: every cell carries a window stream, burn rate is
// violations/windows, slo_ok matches the burn ceiling, and
// max_sustainable_load is exactly the largest grid load whose row for
// that algorithm has slo_ok=true.
func TestServeSLOTable(t *testing.T) {
	tbl, err := ServeSLO(serveTestScale(4), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Notes) != 0 {
		t.Fatalf("sv3 has error footnotes: %v", tbl.Notes)
	}
	col := map[string]int{}
	for i, c := range tbl.Columns {
		col[c] = i
	}
	for _, want := range []string{"offered_load", "alg", "windows", "violations",
		"burn_rate_pct", "slo_ok", "max_sustainable_load"} {
		if _, ok := col[want]; !ok {
			t.Fatalf("sv3 lacks column %q: %v", want, tbl.Columns)
		}
	}
	if want := len(serveLoads()) * 4; len(tbl.Rows) != want {
		t.Fatalf("sv3 has %d rows, want %d", len(tbl.Rows), want)
	}
	sustainable := map[string]float64{}
	claimed := map[string]float64{}
	for _, row := range tbl.Rows {
		alg := row[col["alg"]]
		load, err := strconv.ParseFloat(row[col["offered_load"]], 64)
		if err != nil {
			t.Fatalf("bad offered_load %q: %v", row[col["offered_load"]], err)
		}
		wins, err := strconv.Atoi(row[col["windows"]])
		if err != nil || wins <= 0 {
			t.Fatalf("%s|load=%g: windows = %q", alg, load, row[col["windows"]])
		}
		viols, err := strconv.Atoi(row[col["violations"]])
		if err != nil || viols < 0 || viols > wins {
			t.Fatalf("%s|load=%g: violations = %q of %d windows", alg, load, row[col["violations"]], wins)
		}
		ok, err := strconv.ParseBool(row[col["slo_ok"]])
		if err != nil {
			t.Fatalf("%s|load=%g: slo_ok = %q", alg, load, row[col["slo_ok"]])
		}
		if want := viols*serveSLOBurnDen <= wins*serveSLOBurnNum; ok != want {
			t.Errorf("%s|load=%g: slo_ok=%v but %d/%d windows violate", alg, load, ok, viols, wins)
		}
		if ok && load > sustainable[alg] {
			sustainable[alg] = load
		}
		ms, err := strconv.ParseFloat(row[col["max_sustainable_load"]], 64)
		if err != nil {
			t.Fatalf("%s|load=%g: max_sustainable_load = %q", alg, load, row[col["max_sustainable_load"]])
		}
		claimed[alg] = ms
	}
	for alg, want := range sustainable {
		if claimed[alg] != want {
			t.Errorf("%s: max_sustainable_load = %g, rows say %g", alg, claimed[alg], want)
		}
	}
	// The grid's 3× overload point must separate sustainable from
	// unsustainable somewhere: at least one algorithm's verdict flips
	// across the load grid (all-pass or all-fail would make sv3 vacuous).
	flips := false
	for _, ms := range sustainable {
		if ms > 0 && ms < 3.0 {
			flips = true
		}
	}
	if !flips {
		t.Logf("note: no algorithm's SLO verdict flips inside the grid: %v", sustainable)
	}
}

// TestServeSLOBlobCache pins sv3's cache behavior: a warm rerun is
// byte-identical and stores nothing new, and armed cells form their own
// key family — bare-cell entries must never satisfy an armed sweep (their
// points carry no window stream).
func TestServeSLOBlobCache(t *testing.T) {
	cache := newMemCache()
	s := serveTestScale(2)
	s.Cache = cache

	// Seed the cache with bare sv1 cells first: same geometry, same
	// seeds, no metrics.
	renderServe(t, ServeGoodput, s, 7)
	barePuts := cache.puts

	cold := renderServe(t, ServeSLO, s, 7)
	if cache.puts == barePuts {
		t.Fatal("armed sv3 sweep was served from bare-cell entries")
	}
	putsAfterCold := cache.puts
	warm := renderServe(t, ServeSLO, s, 7)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached sv3 rerun differs:\n%s\n---\n%s", cold, warm)
	}
	if cache.puts != putsAfterCold {
		t.Fatalf("warm sv3 run stored %d new entries, want 0", cache.puts-putsAfterCold)
	}
}
