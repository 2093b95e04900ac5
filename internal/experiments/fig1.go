package experiments

import (
	"fmt"

	"addrxlat/internal/core"
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
// — its dimensions after scaling and the seed its simulators take. The
// stream is drawn warmup-first, then measured; newGen returns a fresh
// generator positioned at the start, so every row (and every
// differential check) replays the same sequence.
type fig1Machine struct {
	row          string
	ramPages     uint64
	virtualPages uint64
	tlbEntries   int
	warmupN      int
	measuredN    int
	seed         uint64
	newGen       func() (workload.Generator, error)
}

// hugePage builds the physical huge-page baseline at h on the machine:
// LRU TLB, LRU RAM, each fault moving h pages.
func (m *fig1Machine) hugePage(h uint64) (*mm.HugePage, error) {
	return mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: h, TLBEntries: m.tlbEntries, RAMPages: m.ramPages, Seed: m.seed,
	})
}

// zConfig is algorithm Z's configuration on the machine: Iceberg
// allocation, w = 64, LRU TLB and LRU RAM. The Section 8 hybrids group
// pages under the same configuration.
func (m *fig1Machine) zConfig() mm.DecoupledConfig {
	return mm.DecoupledConfig{
		Alloc: core.IcebergAlloc, RAMPages: m.ramPages, VirtualPages: m.virtualPages,
		TLBEntries: m.tlbEntries, ValueBits: 64, Seed: m.seed,
	}
}

// hugePageCells is Figure 1's h-sweep on the machine: a huge-page
// baseline cell for each h of HugePageSweep that fits in RAM. The sweep
// doubles h, so the sizes past the list are exactly the saturated ones,
// where RAM holds less than one huge page.
func (m *fig1Machine) hugePageCells() []cell {
	var cells []cell
	for _, h := range HugePageSweep() {
		if h > m.ramPages {
			break
		}
		cells = append(cells, cell{fmt.Sprintf("hugepage(h=%d,lru/lru)", h),
			func() (mm.Algorithm, error) { return m.hugePage(h) }})
	}
	return cells
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
			seed:         seed,
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
			seed:         seed,
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
		g, err := graph500.Generate(graph500.Config{Scale: gscale, EdgeFactor: 16, Seed: seed, Workers: s.rowWorkers()})
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
			seed:         seed,
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
// The whole panel is one cached row: every chunk of the request stream
// is generated once and fanned out to all h-cells missing from the
// result cache. A poisoned cell (panic in one simulator, injected or
// real) renders as a footnoted "error" row and is recomputed by a later
// run; an h whose huge page exceeds RAM renders as "saturated".
func Fig1(w Fig1Workload, s Scale, seed uint64) (*Table, error) {
	machine, err := buildFig1Machine(w, s, seed)
	if err != nil {
		return nil, err
	}
	costs, cellErrs, err := machine.runCachedRow(s, machine.hugePageCells())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: string(w),
		Caption: fmt.Sprintf(
			"IOs and TLB misses vs huge-page size (V=%d pages, RAM=%d pages, TLB=%d entries, %d measured accesses)",
			machine.virtualPages, machine.ramPages, machine.tlbEntries, machine.measuredN),
		Columns: []string{"huge_page_size", "ios", "tlb_misses", "total_cost_eps0.01"},
	}
	for i, h := range HugePageSweep() {
		switch {
		case i >= len(costs):
			t.AddRow(h, "saturated", "saturated", "saturated")
		case cellErrs[i] != nil:
			t.AddRow(h, "error", "error", "error")
			t.AddNote("cell h=%d failed: %v", h, cellErrs[i])
		default:
			c := costs[i]
			t.AddRow(h, c.IOs, c.TLBMisses, c.Total(paperEpsilon))
		}
	}
	return t, nil
}
