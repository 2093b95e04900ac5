package tlb

import "addrxlat/internal/policy"

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
// e.g. mm.Decoupled's reused buffer) in access order. It runs the LRU's
// column kernel (policy.DenseLRU.AccessColumn) over the column a block at
// a time, so a request whose key is the most recent one collapses to a
// register compare. State transitions and the miss list are identical to
// calling
//
//	if !t.Lookup(v >> shift) { t.Insert(v >> shift) }
//
// per request. It returns the appended-to miss list and ok=false (with no
// state touched) when the TLB is not flat.
func (t *TLB) ProbeFill(vs []uint64, shift uint, miss []uint64) (_ []uint64, ok bool) {
	if t.flat == nil {
		return miss, false
	}
	if t.col == nil {
		t.col = make([]policy.ColumnMiss, 0, probeBlock)
	}
	for lo := 0; lo < len(vs); lo += probeBlock {
		blk := vs[lo:min(lo+probeBlock, len(vs))]
		t.col = t.flat.AccessColumn(blk, shift, t.col[:0])
		for _, m := range t.col {
			miss = append(miss, blk[m.At]>>shift)
		}
	}
	return miss, true
}

// probeBlock is how many requests ProbeFill hands the column kernel at a
// time. A column of misses costs 16 bytes a request, and nearly every
// request can miss a TLB, so blocking keeps that record cache-resident
// instead of as long as the column.
const probeBlock = 1024
