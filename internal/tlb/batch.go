package tlb

// This file holds the TLB's columnar batch kernels: fused variants of the
// Lookup/Insert pairs the scalar simulators issue per access, specialized
// to the flat (fully associative LRU) entry array. Each kernel performs
// byte-identical state transitions and counter updates to its scalar
// decomposition — pinned by the differential tests in batch_test.go — while
// touching the dense slot table once per access instead of twice.

// Flat reports whether the TLB runs on the flat LRU slot array. The batch
// kernels below require it; callers with a generic-policy TLB keep the
// scalar path.
func (t *TLB) Flat() bool { return t.flat != nil }

// LookupOrReserve is LookupHit fused with the miss-side Insert of an empty
// entry: on a hit it refreshes recency and counts the hit; on a miss it
// counts the miss, claims a slot (evicting per LRU, the victim's value
// overwritten), and caches u with the zero Entry. It is exactly
//
//	if !t.LookupHit(u) { t.Insert(u, Entry{}) }
//
// in one slot-table access instead of two (LookupHit probes, Insert
// re-probes). Flat TLBs only.
func (t *TLB) LookupOrReserve(u uint64) bool {
	s, hit, _ := t.flat.AccessSlot(u)
	if hit {
		t.hits++
		return true
	}
	t.misses++
	t.fvals[s] = Entry{}
	return false
}

// NoteRepeatHit records a lookup of the key the previous lookup on this
// TLB touched (hit or inserted — either way it is the most recently used
// entry). Such a lookup is a guaranteed hit whose move-to-front is a
// no-op, so only the hit counter advances. Batch kernels use it to
// collapse run-length repeats without probing the slot table.
func (t *TLB) NoteRepeatHit() { t.hits++ }

// ProbeFill scans one request column over the flat entry array: each
// request v probes key v>>shift and, on a miss, immediately reserves the
// slot with an empty entry; the missed keys are appended to miss (the
// caller's packed miss list, e.g. mm.Decoupled's reused buffer) in access
// order. Consecutive requests with equal keys collapse to one probe — the
// repeats are guaranteed MRU hits. State transitions and hit/miss counters
// are byte-identical to calling
//
//	if !t.LookupHit(v >> shift) { t.Insert(v>>shift, Entry{}) }
//
// per request. It returns the appended-to miss list and ok=false (with no
// state touched) when the TLB is not flat.
func (t *TLB) ProbeFill(vs []uint64, shift uint, miss []uint64) (_ []uint64, ok bool) {
	if t.flat == nil {
		return miss, false
	}
	fl := t.flat
	var hits, misses uint64
	var prevU uint64
	havePrev := false
	for _, v := range vs {
		u := v >> shift
		if havePrev && u == prevU {
			hits++ // repeat of the MRU entry: hit, recency unchanged
			continue
		}
		havePrev, prevU = true, u
		s, hit, _ := fl.AccessSlot(u)
		if hit {
			hits++
			continue
		}
		misses++
		t.fvals[s] = Entry{}
		miss = append(miss, u)
	}
	t.hits += hits
	t.misses += misses
	return miss, true
}
