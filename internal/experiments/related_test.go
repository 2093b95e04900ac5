package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

func TestRelatedTable(t *testing.T) {
	t.Parallel()
	tab, err := Related(testScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
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
	plain := get("hugepage(")
	co := get("coalesced(")
	ds := get("directseg(")
	z := get("decoupled(")

	// Coalescing must cut TLB misses vs plain paging at identical IOs.
	if parse(t, co[1]) != parse(t, plain[1]) {
		t.Errorf("coalesced IOs %s != plain %s", co[1], plain[1])
	}
	if parse(t, co[2]) >= parse(t, plain[2]) {
		t.Errorf("coalesced TLB misses %s not below plain %s", co[2], plain[2])
	}
	// Direct segments eliminate TLB misses for the primary region.
	if parse(t, ds[2]) >= parse(t, plain[2]) {
		t.Errorf("directseg TLB misses %s not below plain %s", ds[2], plain[2])
	}
	// Decoupling cuts TLB misses vs plain without needing contiguity.
	if parse(t, z[2]) >= parse(t, plain[2]) {
		t.Errorf("decoupled TLB misses %s not below plain %s", z[2], plain[2])
	}
	if _, err := Related(Scale{}, 1); err == nil {
		t.Error("invalid scale should error")
	}
}

// relatedWindows is e7's original window construction, kept as the
// reference its streamed generator must reproduce: the prefault pass over
// the primary region and n mixed accesses as the warmup slice, n more
// mixed accesses as the measured slice.
func relatedWindows(t *testing.T, s Scale, seed uint64) (warm, meas []uint64) {
	t.Helper()
	vPages := s.pages(8 * paperGiB)
	n := s.accesses(20_000_000)
	seg, err := workload.NewSequential(vPages / 4)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := workload.NewUniform(vPages-vPages/4, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := &mixRNG{state: seed ^ 0x5eed}
	warm = make([]uint64, 0, n+int(vPages/4))
	for v := uint64(0); v < vPages/4; v++ {
		warm = append(warm, v) // init prefault
	}
	mixed := func() uint64 {
		if r.next()%10 < 6 {
			return seg.Next()
		}
		return vPages/4 + rest.Next()
	}
	for i := 0; i < n; i++ {
		warm = append(warm, mixed())
	}
	meas = make([]uint64, n)
	for i := range meas {
		meas[i] = mixed()
	}
	return warm, meas
}

// TestRelatedStreamMatchesWindows pins e7's generator to the window
// slices it replaced: drawn warmup-first, it must yield exactly the old
// warmup and measured windows, at several scales and seeds.
func TestRelatedStreamMatchesWindows(t *testing.T) {
	for _, s := range []Scale{testScale(), {SpaceDiv: 4096, AccessDiv: 500}, DownScale()} {
		for _, seed := range []uint64{1, 7, 42} {
			warm, meas, err := relatedMachine(s, seed).materialize()
			if err != nil {
				t.Fatal(err)
			}
			wantWarm, wantMeas := relatedWindows(t, s, seed)
			if !slices.Equal(warm, wantWarm) || !slices.Equal(meas, wantMeas) {
				t.Errorf("scale %+v seed %d: streamed windows (%d+%d) differ from the reference (%d+%d)",
					s, seed, len(warm), len(meas), len(wantWarm), len(wantMeas))
			}
		}
	}
}

// relatedMaterializedTSV reproduces the pre-streaming Related: the
// windows built as slices (relatedWindows) and every design run alone
// through runWarmAlone under the row label "e7-mixed".
func relatedMaterializedTSV(t *testing.T, s Scale, seed uint64) string {
	t.Helper()
	vPages := s.pages(8 * paperGiB)
	ramPages := s.pages(4 * paperGiB)
	entries := s.entries(paperTLBEntries, 16)
	warm, meas := relatedWindows(t, s, seed)
	segPages := min(vPages/4, ramPages/2)
	build := []func() (mm.Algorithm, error){
		func() (mm.Algorithm, error) {
			return mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: entries, RAMPages: ramPages, Seed: seed})
		},
		func() (mm.Algorithm, error) {
			return mm.NewCoalesced(mm.CoalescedConfig{CoalesceLimit: 8, TLBEntries: entries, RAMPages: ramPages, VirtualPages: vPages, Seed: seed})
		},
		func() (mm.Algorithm, error) {
			return mm.NewDirectSegment(mm.DirectSegmentConfig{SegmentStart: 0, SegmentPages: segPages, TLBEntries: entries, RAMPages: ramPages, Seed: seed})
		},
		func() (mm.Algorithm, error) {
			return mm.NewDecoupled(mm.DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ramPages, VirtualPages: vPages, TLBEntries: entries, ValueBits: 64, Seed: seed})
		},
	}
	tab := &Table{
		Name: "e7-related",
		Caption: fmt.Sprintf(
			"Section 7 contiguity-dependent TLB designs vs decoupling (60%% sequential primary region + 40%% scattered; V=%d, RAM=%d, TLB=%d, ε=0.01)",
			vPages, ramPages, entries),
		Columns: []string{"algo", "ios", "tlb_misses", "total_cost", "notes"},
	}
	for _, b := range build {
		a, err := b()
		if err != nil {
			t.Fatal(err)
		}
		c := runWarmAlone(t, s, "e7-mixed", a, warm, meas)
		notes := "-"
		switch v := a.(type) {
		case *mm.Coalesced:
			notes = fmt.Sprintf("coalesced_fills=%d single_fills=%d", v.CoalescedFills(), v.SingleFills())
		case *mm.DirectSegment:
			notes = fmt.Sprintf("segment_accesses=%d", v.SegmentAccesses())
		case *mm.Decoupled:
			notes = fmt.Sprintf("hmax=%d failures=%d", v.Params().HMax, v.Scheme().TotalFailures())
		}
		tab.AddRow(a.Name(), c.IOs, c.TLBMisses, c.Total(paperEpsilon), notes)
	}
	return renderTSV(t, tab)
}
