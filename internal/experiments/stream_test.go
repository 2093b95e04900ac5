package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/event"
	"addrxlat/internal/mm"
)

// fig1MaterializedTSV reproduces the pre-streaming Fig1 implementation —
// materialize both windows, run every h-cell alone through the reference
// two-phase loop (runWarmAlone: mm.RunWarm plus the scale's observer,
// under the row's label) — and renders the same table. Cells present in
// s.Cache are read from it instead, as Fig1 does. The streaming row
// driver must match it byte for byte, and with an observer attached so
// must its sample curves and attribution.
func fig1MaterializedTSV(t *testing.T, w Fig1Workload, s Scale, seed uint64) string {
	t.Helper()
	machine, err := buildFig1Machine(w, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	warmup, measured, err := machine.materialize()
	if err != nil {
		t.Fatal(err)
	}
	hs := HugePageSweep()
	costs := make([]mm.Costs, len(hs))
	for i, h := range hs {
		if machine.ramPages < h {
			continue
		}
		if s.Cache != nil {
			if b, ok := s.Cache.Get(machine.cellKey(s, fmt.Sprintf("hugepage(h=%d,lru/lru)", h))); ok {
				if err := json.Unmarshal(b, &costs[i]); err != nil {
					t.Fatal(err)
				}
				continue
			}
		}
		alg, err := mm.NewHugePage(mm.HugePageConfig{
			HugePageSize: h, TLBEntries: machine.tlbEntries,
			RAMPages: machine.ramPages, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = runWarmAlone(t, s, string(w), alg, warmup, measured)
	}
	tab := &Table{
		Name: string(w),
		Caption: fmt.Sprintf(
			"IOs and TLB misses vs huge-page size (V=%d pages, RAM=%d pages, TLB=%d entries, %d measured accesses)",
			machine.virtualPages, machine.ramPages, machine.tlbEntries, machine.measuredN),
		Columns: []string{"huge_page_size", "ios", "tlb_misses", "total_cost_eps0.01"},
	}
	for i, h := range hs {
		c := costs[i]
		if machine.ramPages < h {
			tab.AddRow(h, "saturated", "saturated", "saturated")
			continue
		}
		tab.AddRow(h, c.IOs, c.TLBMisses, c.Total(paperEpsilon))
	}
	return renderTSV(t, tab)
}

// runWarmAlone is the reference two-phase loop the row executor is
// checked against: one cell by itself over materialized windows —
// mm.RunWarm cut into streamChunk pieces, with the scale's observer
// receiving a sample (and, with Explain, attribution) after every chunk
// under the given row label, as the executor delivers them.
func runWarmAlone(t *testing.T, s Scale, row string, a mm.Algorithm, warmup, measured []uint64) mm.Costs {
	t.Helper()
	if s.Explain {
		mm.EnableExplain(a)
	}
	name := a.Name()
	for i, reqs := range [][]uint64{warmup, measured} {
		phase := mm.PhaseWarmup
		if i == 1 {
			a.ResetCosts()
			phase = mm.PhaseMeasured
		}
		for len(reqs) > 0 {
			n := min(streamChunk, len(reqs))
			a.AccessBatch(reqs[:n])
			reqs = reqs[n:]
			if s.Observer != nil {
				s.Observer.Observe(event.Sample(row, phase, name, a, s.Explain))
			}
		}
	}
	return a.Costs()
}

// crossoverMaterializedTSV reproduces the pre-streaming Crossover: every
// cell runs alone through runWarmAlone over the materialized windows.
func crossoverMaterializedTSV(t *testing.T, s Scale, seed uint64) string {
	t.Helper()
	tab := &Table{
		Name: "x1-crossover",
		Caption: fmt.Sprintf(
			"Best fixed huge-page size vs decoupling, total cost at ε=%.2g", paperEpsilon),
		Columns: []string{"workload", "algo", "ios", "tlb_misses", "total_cost"},
	}
	for _, w := range []Fig1Workload{F1aBimodal, F1bGraphWalk, F1cGraph500} {
		machine, err := buildFig1Machine(w, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		warmup, measured, err := machine.materialize()
		if err != nil {
			t.Fatal(err)
		}
		hs := HugePageSweep()
		costs := make([]mm.Costs, len(hs))
		valid := make([]bool, len(hs))
		for i := range hs {
			if machine.ramPages < hs[i] {
				continue
			}
			alg, err := mm.NewHugePage(mm.HugePageConfig{
				HugePageSize: hs[i], TLBEntries: machine.tlbEntries,
				RAMPages: machine.ramPages, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			costs[i] = runWarmAlone(t, s, string(w), alg, warmup, measured)
			valid[i] = true
		}
		bestIdx := -1
		for i := range hs {
			if !valid[i] {
				continue
			}
			if bestIdx < 0 || costs[i].Total(paperEpsilon) < costs[bestIdx].Total(paperEpsilon) {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			t.Fatalf("no valid fixed h for %s", w)
		}
		zCfg := mm.DecoupledConfig{
			Alloc: core.IcebergAlloc, RAMPages: machine.ramPages,
			VirtualPages: machine.virtualPages, TLBEntries: machine.tlbEntries,
			ValueBits: 64, Seed: seed,
		}
		z, err := mm.NewDecoupled(zCfg)
		if err != nil {
			t.Fatal(err)
		}
		zc := runWarmAlone(t, s, string(w), z, warmup, measured)
		g := hs[bestIdx] / uint64(z.Params().HMax)
		if g < 1 {
			g = 1
		}
		var hyc mm.Costs
		hyName := "hybrid(-)"
		if machine.ramPages/g >= 1 && machine.virtualPages/g >= 1 {
			hy, err := mm.NewHybrid(mm.HybridConfig{Decoupled: zCfg, GroupSize: g})
			if err != nil {
				t.Fatal(err)
			}
			hyc = runWarmAlone(t, s, string(w), hy, warmup, measured)
			hyName = hy.Name()
		}
		bc := costs[bestIdx]
		tab.AddRow(string(w), fmt.Sprintf("best-fixed(h=%d)", hs[bestIdx]),
			bc.IOs, bc.TLBMisses, bc.Total(paperEpsilon))
		tab.AddRow(string(w), z.Name(), zc.IOs, zc.TLBMisses, zc.Total(paperEpsilon))
		tab.AddRow(string(w), hyName, hyc.IOs, hyc.TLBMisses, hyc.Total(paperEpsilon))
	}
	return renderTSV(t, tab)
}

// TestStreamingMatchesMaterialized is the differential guard for the
// chunked row driver: at three seeds, the streaming Fig1 and Crossover
// tables must be byte-identical to the materialized (per-cell RunWarm)
// implementations they replaced.
func TestStreamingMatchesMaterialized(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}
	for _, seed := range []uint64{1, 7, 42} {
		for _, w := range []Fig1Workload{F1aBimodal, F1bGraphWalk} {
			tab, err := Fig1(w, s, seed)
			if err != nil {
				t.Fatal(err)
			}
			got := renderTSV(t, tab)
			want := fig1MaterializedTSV(t, w, s, seed)
			if got != want {
				t.Errorf("seed %d %s: streaming Fig1 differs:\n--- materialized\n%s--- streaming\n%s",
					seed, w, want, got)
			}
		}
		tab, err := Crossover(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		got := renderTSV(t, tab)
		want := crossoverMaterializedTSV(t, s, seed)
		if got != want {
			t.Errorf("seed %d: streaming Crossover differs:\n--- materialized\n%s--- streaming\n%s",
				seed, want, got)
		}
	}
}

// memCache is a test Cache recording its traffic.
type memCache struct {
	mu                 sync.Mutex
	m                  map[string][]byte
	hits, misses, puts int
}

func newMemCache() *memCache { return &memCache{m: map[string][]byte{}} }

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *memCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), val...)
	c.puts++
}

// clone returns an independent cache with the same entries and fresh
// traffic counters.
func (c *memCache) clone() *memCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := newMemCache()
	for k, v := range c.m {
		out.m[k] = v
	}
	return out
}

// TestFig1CostCache verifies the per-cell result cache of the cached
// rows: a warm second run answers every cell from the cache, simulates
// nothing and still produces an identical table, and a different seed
// shares nothing with it. x1 puts Figure 1's h-cells in its first row, so run after a cold
// f1a on the same cache its cold run answers exactly f1a's cells from
// it.
func TestFig1CostCache(t *testing.T) {
	fig1a := func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }
	for _, tc := range []struct {
		name  string
		run   func(Scale, uint64) (*Table, error)
		after func(Scale, uint64) (*Table, error) // run cold on the cache first, if set
	}{
		{"f1a", fig1a, nil},
		{"x1", Crossover, fig1a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := newMemCache()
			s := Scale{SpaceDiv: 4096, AccessDiv: 10000, Cache: cache}
			shared := 0
			if tc.after != nil {
				if _, err := tc.after(s, 7); err != nil {
					t.Fatal(err)
				}
				shared = len(cache.m)
				cache.hits, cache.misses = 0, 0
			}

			cold, err := tc.run(s, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := renderTSV(t, cold)
			if cache.hits != shared || len(cache.m) == shared {
				t.Fatalf("cold run: hits=%d, want %d; entries=%d", cache.hits, shared, len(cache.m))
			}

			probed, entries := cache.hits+cache.misses, len(cache.m)
			cache.hits, cache.misses = 0, 0
			ws, simulated := s, &sampleCounter{}
			ws.Observer = simulated
			warm, err := tc.run(ws, 7)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderTSV(t, warm); got != ref {
				t.Errorf("cached rerun differs:\n--- cold\n%s--- warm\n%s", ref, got)
			}
			if cache.hits != probed || cache.misses != 0 {
				t.Errorf("warm run hit %d of %d cells, missed %d", cache.hits, probed, cache.misses)
			}
			if n := simulated.samples.Load(); n != 0 {
				t.Errorf("warm run simulated: %d samples", n)
			}

			if _, err := tc.run(s, 8); err != nil {
				t.Fatal(err)
			}
			if len(cache.m) == entries {
				t.Error("different seed produced no new cache entries; key is missing the seed")
			}
		})
	}
}

// TestCachedRowNamesCells pins runCachedRow's two guards: a cell found
// in the cache is answered without being built, and a cell whose build
// returns a simulator of another name fails the row before anything is
// simulated or cached, so a hand-written name can never serve another
// configuration's counters.
func TestCachedRowNamesCells(t *testing.T) {
	cache := newMemCache()
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000, Cache: cache}
	m, err := buildFig1Machine(F1aBimodal, s, 7)
	if err != nil {
		t.Fatal(err)
	}
	cells := m.hugePageCells()[:2]
	want, cellErrs, err := m.runCachedRow(s, cells)
	if err := joinRow(cellErrs, err); err != nil {
		t.Fatal(err)
	}

	built := false
	cached := []cell{{cells[1].name, func() (mm.Algorithm, error) {
		built = true
		return m.hugePage(2)
	}}}
	got, cellErrs, err := m.runCachedRow(s, cached)
	if err := joinRow(cellErrs, err); err != nil {
		t.Fatal(err)
	}
	if built || got[0] != want[1] {
		t.Errorf("cached cell: built %v, costs %+v; want not built, %+v", built, got[0], want[1])
	}

	puts := cache.puts
	misnamed := []cell{cells[0], {"hugepage(h=4,lru/lru)", func() (mm.Algorithm, error) { return m.hugePage(8) }}}
	delete(cache.m, m.cellKey(s, cells[0].name))
	if _, _, err := m.runCachedRow(s, misnamed); err == nil || !strings.Contains(err.Error(), "hugepage(h=8,lru/lru)") {
		t.Fatalf("misnamed cell: err = %v, want a failure naming the built simulator", err)
	}
	if cache.puts != puts {
		t.Errorf("a failed row cached %d cells", cache.puts-puts)
	}
}
