package mm

import (
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// meter is the cost model of Section 5 as one value every algorithm
// embeds: it owns the algorithm's counters and its explain pointer,
// implements Costs, EnableExplain and Explain, and charges the three
// costs — an IO 1, a TLB miss ε, a decoding miss ε — together with their
// attribution. Attribution is off until EnableExplain: the explain
// pointer is nil and every explain call is a no-op.
type meter struct {
	costs Costs
	ex    *explain.Counters
}

// Costs implements Algorithm.
func (m *meter) Costs() Costs { return m.costs }

// EnableExplain implements Algorithm.
func (m *meter) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Algorithm.
func (m *meter) Explain() *explain.Counters { return m.ex }

// resetMeter zeroes the counters and the attribution, keeping the
// TLB-miss classifier's history; it serves every ResetCosts.
func (m *meter) resetMeter() {
	m.costs = Costs{}
	m.ex.Reset()
}

// fault charges a page fault that moves n pages: n IOs, attributed as one
// demand IO and n−1 amplification fills.
func (m *meter) fault(n uint64) {
	m.costs.IOs += n
	m.ex.DemandIO()
	m.ex.AmplifiedIO(n - 1)
}

// pageIn requests key from a RAM policy whose entries hold n pages each:
// a miss charges a fault of n pages, and every eviction the policy makes
// is attributed, as Decoupled attributes Y's — 2Q also evicts on a hit,
// when a promotion fills its main queue. It returns the policy's answer.
func (m *meter) pageIn(ram policy.Policy, key, n uint64) (hit bool, victim uint64) {
	hit, victim = ram.Access(key)
	if !hit {
		m.fault(n)
	}
	if victim != policy.NoEviction {
		m.ex.Evict()
	}
	return hit, victim
}

// tlbMiss charges one TLB miss, classified under key.
func (m *meter) tlbMiss(key uint64) {
	m.costs.TLBMisses++
	m.ex.TLBMiss(key)
}

// translate looks key up in t; a miss charges ε, is classified under
// key, and caches key.
func (m *meter) translate(t *tlb.TLB, key uint64) {
	if !t.Lookup(key) {
		m.tlbMiss(key)
		t.Insert(key)
	}
}

// EnableExplain enables attribution on a and returns its counters.
func EnableExplain(a Algorithm) *explain.Counters {
	a.EnableExplain()
	return a.Explain()
}

// occupancyGauges fills the shared RAM-occupancy part of Gauges.
func occupancyGauges(resident, ramPages uint64) explain.Gauges {
	g := explain.Gauges{ResidentPages: resident, RAMPages: ramPages}
	if ramPages > 0 {
		g.Utilization = float64(resident) / float64(ramPages)
		g.DeltaObserved = 1 - g.Utilization
	}
	return g
}
