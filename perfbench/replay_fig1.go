package main

import (
	"fmt"

	"addrxlat/internal/experiments"
	"addrxlat/internal/graph500"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// Scale arithmetic of the experiments package, restated so the replays
// derive each machine from the same Scale the table call received.
func scalePages(s experiments.Scale, bytes uint64) uint64 {
	if p := bytes / 4096 / s.SpaceDiv; p > 0 {
		return p
	}
	return 1
}

func scaleEntries(s experiments.Scale, n, floor uint64) int {
	if v := n / s.SpaceDiv; v > floor {
		return int(v)
	}
	return int(floor)
}

func scaleAccesses(s experiments.Scale, n uint64) int {
	if v := n / s.AccessDiv; v > 10000 {
		return int(v)
	}
	return 10000
}

const gib = uint64(1) << 30

// fig1Machine is one Figure 1 panel's machine, as Fig1 builds it.
type fig1Machine struct {
	ram, virt  uint64
	tlb        int
	warm, meas int
	gen        workload.Generator
}

// buildFig1Machine restates the Figure 1 machines (Section 6 of the
// paper) at scale s. The f1c graph build is timed as graph500 work.
func buildFig1Machine(h *harness, led *fig1Ledger, s experiments.Scale, seed uint64, w experiments.Fig1Workload) (*fig1Machine, error) {
	tlbEntries := scaleEntries(s, 1536, 16)
	switch w {
	case experiments.F1aBimodal, experiments.F1bGraphWalk:
		m := &fig1Machine{ram: scalePages(s, 16*gib), virt: scalePages(s, 64*gib), tlb: tlbEntries}
		m.warm = scaleAccesses(s, 100_000_000)
		m.meas = m.warm
		var err error
		if w == experiments.F1aBimodal {
			m.gen, err = workload.NewBimodal(scalePages(s, gib), m.virt, 0.9999, seed)
		} else {
			m.ram = scalePages(s, 32*gib)
			m.gen, err = workload.NewGraphWalk(m.virt, 0.01, seed)
		}
		return m, err
	case experiments.F1cGraph500:
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
		start := h.rec.now()
		h.rec.begin()
		g, err := graph500.Generate(graph500.Config{Scale: gscale, EdgeFactor: 16, Seed: seed})
		h.rec.end("graph500.Generate", xtrace.ArgInt("scale", int64(gscale)))
		if err != nil {
			return nil, err
		}
		h.rec.begin()
		res, err := g.BFSTrace(g.HighestDegreeVertex(), graph500.DefaultLayout(), 2*scaleAccesses(s, 5_000_000))
		h.rec.end("graph500.BFSTrace")
		if err != nil {
			return nil, err
		}
		led.build += float64(h.rec.now() - start)
		tr := res.Trace
		touched := map[uint64]struct{}{}
		for _, p := range tr {
			touched[p] = struct{}{}
		}
		m := &fig1Machine{
			virt: res.Footprint.TotalPages,
			ram:  uint64(len(touched)) * 520 / 525,
			tlb:  tlbEntries,
			warm: len(tr) / 2,
		}
		m.meas = len(tr) - m.warm
		if m.ram == 0 {
			m.ram = 1
		}
		m.gen, err = workload.NewReplay(tr)
		return m, err
	}
	return nil, fmt.Errorf("unknown Figure 1 workload %q", w)
}

// fig1Ledger collects the fig1 replay's layer timings and counters.
type fig1Ledger struct {
	fill, hugepage *series
	build          float64 // ns in graph500.Generate + BFSTrace
	costs          mm.Costs
}

// replayFig1 replays every Figure 1 table's row through the layers Fig1
// nests: the workload generator fills each chunk once, then every h-cell's
// HugePage simulator serves it, in the pipelined executor's order (chunks
// of workload.DefaultChunk that never straddle the warmup/measured edge,
// counters reset at that edge). Each cell must reproduce the table's ios
// and tlb_misses. It returns the replay's single-threaded wall time in s.
func replayFig1(h *harness, s experiments.Scale, tables []*experiments.Table) (float64, error) {
	h.led = &ledger{}
	led := &fig1Ledger{
		fill:     h.led.series("workload.Fill", "access"),
		hugepage: h.led.series("mm.HugePage.AccessBatch", "access"),
	}
	work := 0.0
	for _, t := range tables {
		h.rec.begin()
		err := replayFig1Table(h, led, s, t)
		work += float64(h.rec.end("replay.experiments.Fig1", xtrace.ArgStr("table", t.Name))) / 1e9
		if err != nil {
			return 0, err
		}
	}
	h.layer["graph500.build_s"] = led.build / 1e9
	h.layer["workload.fill_ns_per_access"] = led.fill.rate()
	h.layer["workload.fill_share"] = led.fill.ns / (led.fill.ns + led.hugepage.ns)
	h.layer["mm.hugepage.ns_per_access"] = led.hugepage.rate()
	setCostRates(h, led.costs)
	return work, nil
}

// replayFig1Table replays one panel; the table's name is its workload.
func replayFig1Table(h *harness, led *fig1Ledger, s experiments.Scale, t *experiments.Table) error {
	seed := h.o.seed
	w := experiments.Fig1Workload(t.Name)
	m, err := buildFig1Machine(h, led, s, seed, w)
	if err != nil {
		return err
	}
	caption := fmt.Sprintf("IOs and TLB misses vs huge-page size (V=%d pages, RAM=%d pages, TLB=%d entries, %d measured accesses)",
		m.virt, m.ram, m.tlb, m.meas)
	if !h.check(t.Caption == caption, "replay of %s: machine differs: table says %q, replay built %q", w, t.Caption, caption) {
		return nil
	}
	hs := experiments.HugePageSweep()
	cells := make([]*mm.HugePage, len(hs))
	for i, hp := range hs {
		if m.ram < hp {
			continue // the table marks this cell saturated
		}
		if cells[i], err = mm.NewHugePage(mm.HugePageConfig{HugePageSize: hp, TLBEntries: m.tlb, RAMPages: m.ram, Seed: seed}); err != nil {
			return err
		}
	}
	buf := make([]uint64, workload.DefaultChunk)
	for seg, total := range []int{m.warm, m.meas} {
		if seg == 1 {
			for _, c := range cells {
				if c != nil {
					c.ResetCosts()
				}
			}
		}
		for total > 0 {
			n := min(total, len(buf))
			chunk := buf[:n]
			t0 := h.rec.now()
			workload.Fill(m.gen, chunk)
			t1 := h.rec.now()
			h.rec.span("workload.Fill", t0, t1, xtrace.ArgInt("n", int64(n)))
			led.fill.add(float64(t1-t0)-h.clockNS, int64(n))
			for i, c := range cells {
				if c == nil {
					continue
				}
				a := h.rec.now()
				c.AccessBatch(chunk)
				b := h.rec.now()
				h.rec.span("mm.HugePage.AccessBatch", a, b, xtrace.ArgInt("h", int64(hs[i])), xtrace.ArgInt("n", int64(n)))
				led.hugepage.add(float64(b-a)-h.clockNS, int64(n))
			}
			total -= n
		}
	}
	if !h.check(len(t.Rows) == len(hs), "replay of %s: table has %d rows, want %d", w, len(t.Rows), len(hs)) {
		return nil
	}
	for i, hp := range hs {
		row := t.Rows[i]
		want := []string{fmt.Sprint(hp), "saturated", "saturated"}
		if c := cells[i]; c != nil {
			cc := c.Costs()
			led.costs.Add(cc)
			want = []string{fmt.Sprint(hp), fmt.Sprint(cc.IOs), fmt.Sprint(cc.TLBMisses)}
		}
		h.check(row[0] == want[0] && row[1] == want[1] && row[2] == want[2],
			"replay of %s h=%d: ios/tlb_misses %s/%s, table says %s/%s", w, hp, want[1], want[2], row[1], row[2])
	}
	return nil
}

// setCostRates reports the modelled costs per access.
func setCostRates(h *harness, c mm.Costs) {
	if c.Accesses == 0 {
		return
	}
	n := float64(c.Accesses)
	h.layer["mm.io_per_access"] = float64(c.IOs) / n
	h.layer["mm.tlb_miss_per_access"] = float64(c.TLBMisses) / n
	h.layer["mm.decode_miss_per_access"] = float64(c.DecodingMisses) / n
}
