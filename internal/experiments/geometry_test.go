package experiments

import (
	"fmt"
	"testing"

	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

func TestTLBGeometryStudy(t *testing.T) {
	t.Parallel()
	tab, err := TLBGeometryStudy(testScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	fits := map[string]float64{}
	thrash := map[string]float64{}
	for _, row := range tab.Rows {
		fits[row[0]] = parse(t, row[1])
		thrash[row[0]] = parse(t, row[2])
	}
	// Conflict-dominated regime: strict associativity ordering, with the
	// fully associative TLB suffering (almost) no steady-state misses.
	if fits["fully-assoc"] > 0.001 {
		t.Errorf("fully-assoc miss rate %v in the fits regime; want ~0", fits["fully-assoc"])
	}
	if !(fits["fully-assoc"] <= fits["8-way"] &&
		fits["8-way"] <= fits["4-way"] &&
		fits["4-way"] < fits["direct-mapped"]) {
		t.Errorf("associativity ordering violated in fits regime: %v", fits)
	}
	if fits["direct-mapped"] < 10*fits["fully-assoc"]+0.01 {
		t.Errorf("direct-mapped conflicts too mild: %v", fits["direct-mapped"])
	}
	// Capacity-dominated regime: all organizations within a factor ~1.3,
	// justifying the paper's simplification for its workloads.
	for name, rate := range thrash {
		if rate < thrash["fully-assoc"]*0.8 || rate > thrash["fully-assoc"]*1.3 {
			t.Errorf("thrash regime: %s rate %v diverges from fully-assoc %v",
				name, rate, thrash["fully-assoc"])
		}
	}
	if _, err := TLBGeometryStudy(Scale{}, 1); err == nil {
		t.Error("invalid scale should error")
	}
}

// geometryMaterializedTSV reproduces the pre-streaming TLBGeometryStudy:
// each regime's windows taken as slices from its uniform generator, and
// every organization run alone through runWarmAlone under the regime's
// row label.
func geometryMaterializedTSV(t *testing.T, s Scale, seed uint64) string {
	t.Helper()
	entries := s.entries(paperTLBEntries, 16)
	for entries&(entries-1) != 0 {
		entries--
	}
	accesses := s.accesses(20_000_000)
	ramPages := uint64(entries) * 64
	regimes := []struct {
		row          string
		pages, wseed uint64
	}{
		{"e9-fits", uint64(entries) * 3 / 4, seed},
		{"e9-thrash", uint64(entries) * 4, seed + 1},
	}
	variants := []struct {
		name string
		cfg  mm.GeometryConfig
	}{
		{"direct-mapped", mm.GeometryConfig{Geometry: mm.GeometrySetAssoc, Entries: entries, Ways: 1, RAMPages: ramPages, Seed: seed}},
		{"4-way", mm.GeometryConfig{Geometry: mm.GeometrySetAssoc, Entries: entries, Ways: 4, RAMPages: ramPages, Seed: seed}},
		{"8-way", mm.GeometryConfig{Geometry: mm.GeometrySetAssoc, Entries: entries, Ways: 8, RAMPages: ramPages, Seed: seed}},
		{"fully-assoc", mm.GeometryConfig{Geometry: mm.GeometryFull, Entries: entries, RAMPages: ramPages, Seed: seed}},
		{"two-level", mm.GeometryConfig{Geometry: mm.GeometryTwoLevel, Entries: entries, RAMPages: ramPages, Seed: seed}},
	}
	rates := make([][]string, len(variants))
	for _, r := range regimes {
		gen, err := workload.NewUniform(r.pages, r.wseed)
		if err != nil {
			t.Fatal(err)
		}
		warm, meas := workload.Take(gen, accesses), workload.Take(gen, accesses)
		for i, v := range variants {
			a, err := mm.NewGeometry(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := runWarmAlone(t, s, r.row, a, warm, meas)
			rates[i] = append(rates[i], fmt.Sprintf("%.5f", float64(c.TLBMisses)/float64(c.Accesses)))
		}
	}
	tab := &Table{
		Name: "e9-tlb-geometry",
		Caption: fmt.Sprintf(
			"TLB organization vs miss rate at %d total entries: conflict-dominated (working set %d) vs capacity-dominated (working set %d) regimes",
			entries, entries*3/4, entries*4),
		Columns: []string{"organization", "fits_miss_rate", "thrash_miss_rate"},
	}
	for i, v := range variants {
		tab.AddRow(v.name, rates[i][0], rates[i][1])
	}
	return renderTSV(t, tab)
}
