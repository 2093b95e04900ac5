package experiments

import (
	"fmt"

	"addrxlat/internal/graph500"
	"addrxlat/internal/mm"
	"addrxlat/internal/trace"
	"addrxlat/internal/workload"
)

// Fig1Workload identifies one of the three Section 6 workloads.
type Fig1Workload string

// The Section 6 workloads.
const (
	F1aBimodal   Fig1Workload = "f1a-bimodal"
	F1bGraphWalk Fig1Workload = "f1b-graphwalk"
	F1cGraph500  Fig1Workload = "f1c-graph500"
)

// fig1Machine is one streamed row: a factory for its request stream, the
// window lengths, the row label (for cache keys, observer events and
// traces) and, where the row's cells share one machine — Figure 1's, e7's
// — its dimensions after scaling. The stream is drawn warmup-first, then
// measured; newGen returns a fresh generator positioned at the start, so
// every row (and every differential check) replays the same sequence.
type fig1Machine struct {
	row          string
	ramPages     uint64
	virtualPages uint64
	tlbEntries   int
	warmupN      int
	measuredN    int
	newGen       func() (workload.Generator, error)
}

// buildFig1Machine constructs the workload's stream factory and machine
// dimensions at the given scale and seed.
func buildFig1Machine(w Fig1Workload, s Scale, seed uint64) (*fig1Machine, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	switch w {
	case F1aBimodal:
		// 99.99% in a 1 GiB hot set, rest uniform over 64 GiB VA; 16 GiB
		// RAM; 100 M warmup + 100 M measured.
		m := &fig1Machine{
			row:          string(w),
			ramPages:     s.pages(16 * paperGiB),
			virtualPages: s.pages(64 * paperGiB),
			tlbEntries:   s.entries(paperTLBEntries, 16),
		}
		n := s.accesses(100_000_000)
		m.warmupN, m.measuredN = n, n
		hot := s.pages(1 * paperGiB)
		m.newGen = func() (workload.Generator, error) {
			return workload.NewBimodal(hot, m.virtualPages, 0.9999, seed)
		}
		return m, nil

	case F1bGraphWalk:
		// Pareto(α=0.01) random walk over a 64 GiB VA; 32 GiB RAM.
		m := &fig1Machine{
			row:          string(w),
			ramPages:     s.pages(32 * paperGiB),
			virtualPages: s.pages(64 * paperGiB),
			tlbEntries:   s.entries(paperTLBEntries, 16),
		}
		n := s.accesses(100_000_000)
		m.warmupN, m.measuredN = n, n
		m.newGen = func() (workload.Generator, error) {
			return workload.NewGraphWalk(m.virtualPages, 0.01, seed)
		}
		return m, nil

	case F1cGraph500:
		// BFS trace over an R-MAT graph; RAM set just below the touched
		// footprint (the paper's 520/525 MiB ratio) to create contention.
		// The graph scale follows the space divisor: paper scale uses a
		// ~525 MiB footprint (graph500 scale 22); each 4× space division
		// drops the scale by 2.
		gscale := 22
		for d := s.SpaceDiv; d >= 4; d /= 4 {
			gscale -= 2
		}
		if s.SpaceDiv > 1 && s.SpaceDiv < 4 {
			gscale--
		}
		if gscale < 10 {
			gscale = 10
		}
		g, err := graph500.Generate(graph500.Config{Scale: gscale, EdgeFactor: 16, Seed: seed})
		if err != nil {
			return nil, err
		}
		root := g.HighestDegreeVertex()
		maxLen := 2 * s.accesses(5_000_000)
		res, err := g.BFSTrace(root, graph500.DefaultLayout(), maxLen)
		if err != nil {
			return nil, err
		}
		tr := res.Trace
		half := len(tr) / 2
		// The paper sets RAM just below what the traced excerpt actually
		// touches (520 vs 525 MiB) to create contention; size from the
		// touched page count, not the full CSR footprint.
		touched := trace.Summarize(tr).DistinctPages
		m := &fig1Machine{
			row:          string(w),
			virtualPages: res.Footprint.TotalPages,
			ramPages:     touched * 520 / 525,
			tlbEntries:   s.entries(paperTLBEntries, 16),
			warmupN:      half,
			measuredN:    len(tr) - half,
		}
		if m.ramPages == 0 {
			m.ramPages = 1
		}
		// The BFS trace is recorded once per machine; each row replays it
		// from the start (warmupN + measuredN draws cover it exactly once).
		m.newGen = func() (workload.Generator, error) {
			return workload.NewReplay(tr)
		}
		return m, nil

	default:
		return nil, fmt.Errorf("experiments: unknown Figure 1 workload %q", w)
	}
}

// Fig1 regenerates one Figure 1 panel: IOs and TLB misses as a function of
// the huge-page size h, on the given workload. It matches the paper's
// simulator settings: fully associative LRU TLB and LRU RAM, base page
// 4 KiB, each fault moving h pages at cost h.
//
// The whole panel is one streaming row: every chunk of the request stream
// is generated once and fanned out to all h-cells still missing from the
// result cache.
func Fig1(w Fig1Workload, s Scale, seed uint64) (*Table, error) {
	machine, err := buildFig1Machine(w, s, seed)
	if err != nil {
		return nil, err
	}
	hs := HugePageSweep()
	costs := make([]mm.Costs, len(hs))
	var (
		sims    []mm.Algorithm
		simIdx  []int
		simKeys []string
	)
	for i, h := range hs {
		if machine.ramPages < h {
			// Degenerate at extreme scaling: RAM smaller than one huge
			// page. Mark by max cost so the row is visibly saturated.
			costs[i] = mm.Costs{IOs: ^uint64(0)}
			continue
		}
		key := machine.cellKey(s, seed, fmt.Sprintf("hugepage(h=%d,lru/lru)", h))
		if c, ok := s.cacheGet(key); ok {
			costs[i] = c
			continue
		}
		alg, err := mm.NewHugePage(mm.HugePageConfig{
			HugePageSize: h,
			TLBEntries:   machine.tlbEntries,
			RAMPages:     machine.ramPages,
			Seed:         seed,
		})
		if err != nil {
			return nil, fmt.Errorf("h=%d: %w", h, err)
		}
		sims = append(sims, alg)
		simIdx = append(simIdx, i)
		simKeys = append(simKeys, key)
	}
	cellErrs, err := machine.runRow(s, sims)
	if err != nil {
		return nil, err
	}
	// A poisoned cell (panic in one simulator, injected or real) degrades
	// to a footnoted "error" row; its counters never reach the cache, so
	// a later run recomputes it.
	failed := make([]error, len(hs))
	for j, a := range sims {
		if cellErrs[j] != nil {
			failed[simIdx[j]] = cellErrs[j]
			continue
		}
		c := a.Costs()
		costs[simIdx[j]] = c
		s.cachePut(simKeys[j], c)
	}

	t := &Table{
		Name: string(w),
		Caption: fmt.Sprintf(
			"IOs and TLB misses vs huge-page size (V=%d pages, RAM=%d pages, TLB=%d entries, %d measured accesses)",
			machine.virtualPages, machine.ramPages, machine.tlbEntries, machine.measuredN),
		Columns: []string{"huge_page_size", "ios", "tlb_misses", "total_cost_eps0.01"},
	}
	for i, h := range hs {
		if failed[i] != nil {
			t.AddRow(h, "error", "error", "error")
			t.AddNote("cell h=%d failed: %v", h, failed[i])
			continue
		}
		c := costs[i]
		if c.IOs == ^uint64(0) {
			t.AddRow(h, "saturated", "saturated", "saturated")
			continue
		}
		t.AddRow(h, c.IOs, c.TLBMisses, c.Total(paperEpsilon))
	}
	return t, nil
}
