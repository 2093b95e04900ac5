package tlb

// This file holds the TLB's columnar batch kernels: fused variants of the
// Lookup/Insert pairs the scalar simulators issue per access, specialized
// to the flat (fully associative LRU) slot array. Each kernel performs
// the state transitions of its scalar decomposition and reports the same
// hits and misses — pinned by the differential tests in batch_test.go —
// while touching the dense slot table once per access instead of twice.

// Flat reports whether the TLB runs on the flat LRU slot array. The batch
// kernels below require it; callers with a generic-policy TLB keep the
// scalar path.
func (t *TLB) Flat() bool { return t.flat != nil }

// LookupOrReserve is Lookup fused with the miss-side Insert: on a hit it
// refreshes recency; on a miss it caches u, evicting per LRU. It is
// exactly
//
//	if !t.Lookup(u) { t.Insert(u) }
//
// in one slot-table access instead of two (Lookup probes, Insert
// re-probes). Flat TLBs only.
func (t *TLB) LookupOrReserve(u uint64) bool {
	_, hit, _ := t.flat.AccessSlot(u)
	return hit
}

// ProbeFill scans one request column over the flat slot array: each
// request v probes key v>>shift and, on a miss, immediately caches it;
// the missed keys are appended to miss (the caller's packed miss list,
// e.g. mm.Decoupled's reused buffer) in access order. Consecutive requests
// with equal keys collapse to one probe — the repeats are guaranteed MRU
// hits. State transitions and the miss list are identical to calling
//
//	if !t.Lookup(v >> shift) { t.Insert(v >> shift) }
//
// per request. It returns the appended-to miss list and ok=false (with no
// state touched) when the TLB is not flat.
func (t *TLB) ProbeFill(vs []uint64, shift uint, miss []uint64) (_ []uint64, ok bool) {
	if t.flat == nil {
		return miss, false
	}
	fl := t.flat
	var prevU uint64
	havePrev := false
	for _, v := range vs {
		u := v >> shift
		if havePrev && u == prevU {
			continue // repeat of the MRU entry: hit, recency unchanged
		}
		havePrev, prevU = true, u
		if _, hit, _ := fl.AccessSlot(u); !hit {
			miss = append(miss, u)
		}
	}
	return miss, true
}
