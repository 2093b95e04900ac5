package mm

import "addrxlat/internal/explain"

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
