package policy

import (
	"math"

	"addrxlat/internal/dense"
)

// rsNode is one slot's recency-list state. The three fields a relink
// touches together — both link pointers and the zone flags — share one
// 16-byte node, so each slot visited costs one cache line instead of
// three (the padding keeps nodes from straddling lines). Keys live in a
// separate array: the hit path never reads them, only eviction and the
// batch kernel's MRU tracking do.
type rsNode struct {
	prev, next int32
	flags      uint32 // bit 0: member of zone1, bit 1: member of zone2
	_          uint32
}

// RecencyStack maintains one exact-LRU recency order over a key stream and
// answers, in O(1) per access, whether the key currently ranks within the
// zone1 / zone2 most recently used keys. By the LRU inclusion property a
// "zone" of capacity c holds exactly the contents a standalone LRU cache of
// capacity c would hold after the same stream, so two stacked LRU caches
// fed identical requests — the huge-page simulator's TLB (ℓ entries) and
// RAM (P/h frames) — collapse into a single slot table and a single linked
// list with two boundary markers, instead of two of each. The boundary of a
// zone is its least recently used member; entering keys push it out (and
// the marker one step toward the front), exactly as the standalone cache
// would evict.
//
// Hit/miss answers are bit-identical to running two independent LRU caches;
// TestRecencyStackMatchesTwoLRUs pins this. Keys must be densely numbered,
// as in DenseLRU.
//
// An evicted key keeps a tombstone (rsEvicted) in the slot table instead of
// being deleted, so the table's entry count is the number of distinct keys
// ever inserted (Distinct). A key's first request misses both zones, so
// the count is what the huge-page simulator's attribution needs to split
// zone1 misses into compulsory and capacity ones, and it costs nothing on
// the hit path: the insert path's Set already counts a key it has not
// seen. Flat-region keys cost no extra memory (the table grows to the
// highest key either way); keys at or above dense.SparseBound keep a map
// entry each.
type RecencyStack struct {
	cap1, cap2 int // zone capacities
	capMax     int // list capacity = max(cap1, cap2)

	keys  []uint64
	nodes []rsNode            // intrusive recency list over slots; index capMax is the sentinel
	slot  *dense.Table[int32] // key → slot, rsEvicted once evicted, -1 never inserted

	size     int
	freeHead int32
	b1, b2   int32 // boundary slots: each zone's least recent member (-1 while empty)
}

// rsEvicted is the slot-table tombstone of a key that was inserted and
// later evicted.
const rsEvicted int32 = -2

// NewRecencyStack builds a stack tracking two zone capacities (both > 0).
// keyHint, if positive, pre-sizes the key index for keys [0, keyHint).
func NewRecencyStack(cap1, cap2 int, keyHint uint64) *RecencyStack {
	if cap1 <= 0 || cap2 <= 0 {
		panic("policy: RecencyStack capacities must be positive")
	}
	capMax := cap1
	if cap2 > capMax {
		capMax = cap2
	}
	if capMax >= math.MaxInt32 {
		panic("policy: RecencyStack capacity exceeds int32 slot space")
	}
	r := &RecencyStack{
		cap1:   cap1,
		cap2:   cap2,
		capMax: capMax,
		keys:   make([]uint64, capMax),
		nodes:  make([]rsNode, capMax+1),
		slot:   dense.NewTable[int32](-1, int(keyHint)),
		b1:     -1,
		b2:     -1,
	}
	head := int32(capMax)
	r.nodes[head].prev = head
	r.nodes[head].next = head
	// Free list threaded through the next links.
	for s := 0; s < capMax-1; s++ {
		r.nodes[s].next = int32(s + 1)
	}
	r.nodes[capMax-1].next = -1
	r.freeHead = 0
	return r
}

// Access records a request for key and reports whether it was a hit in
// zone1 and in zone2 — exactly the hits two standalone LRU caches of the
// zone capacities would report. Steady state performs no allocation.
func (r *RecencyStack) Access(key uint64) (hit1, hit2 bool) {
	h := int32(r.capMax)
	nodes := r.nodes
	if s := r.slot.At(key); s >= 0 {
		f := nodes[s].flags
		hit1 = f&1 != 0
		hit2 = f&2 != 0
		if nodes[h].next == s {
			return hit1, hit2 // already most recent; no rank changes
		}
		// Zone membership updates. A key outside a zone can only exist
		// once the zone is full, so the boundary markers are valid here.
		if !hit1 {
			nodes[r.b1].flags &^= 1
			nodes[s].flags |= 1
			if r.cap1 == 1 {
				r.b1 = s
			} else {
				r.b1 = nodes[r.b1].prev
			}
		} else if s == r.b1 {
			r.b1 = nodes[s].prev
		}
		if !hit2 {
			nodes[r.b2].flags &^= 2
			nodes[s].flags |= 2
			if r.cap2 == 1 {
				r.b2 = s
			} else {
				r.b2 = nodes[r.b2].prev
			}
		} else if s == r.b2 {
			r.b2 = nodes[s].prev
		}
		// Move to front.
		p, n := nodes[s].prev, nodes[s].next
		nodes[p].next = n
		nodes[n].prev = p
		f2 := nodes[h].next
		nodes[s].prev = h
		nodes[s].next = f2
		nodes[f2].prev = s
		nodes[h].next = s
		return hit1, hit2
	}

	// Miss: evict the overall tail if the list is at capacity, then insert
	// the new key at the front and let it join both zones.
	var s int32
	if r.size == r.capMax {
		t := nodes[h].prev
		ft := nodes[t].flags
		if ft&1 != 0 { // tail was zone1's boundary (only when cap1 == capMax)
			r.b1 = nodes[t].prev
		}
		if ft&2 != 0 {
			r.b2 = nodes[t].prev
		}
		p, n := nodes[t].prev, nodes[t].next
		nodes[p].next = n
		nodes[n].prev = p
		r.slot.Set(r.keys[t], rsEvicted)
		r.size--
		s = t
	} else {
		s = r.freeHead
		r.freeHead = nodes[s].next
	}
	sizeBefore := r.size
	r.keys[s] = key
	r.slot.Set(key, s)
	f2 := nodes[h].next
	nodes[s] = rsNode{prev: h, next: f2}
	nodes[f2].prev = s
	nodes[h].next = s
	r.size++

	if sizeBefore < r.cap1 { // zone1 not yet full: join without displacing
		nodes[s].flags |= 1
		if sizeBefore == 0 {
			r.b1 = s
		}
	} else { // full: the boundary member falls out, marker steps forward
		nodes[r.b1].flags &^= 1
		nodes[s].flags |= 1
		if r.cap1 == 1 {
			r.b1 = s
		} else {
			r.b1 = nodes[r.b1].prev
		}
	}
	if sizeBefore < r.cap2 {
		nodes[s].flags |= 2
		if sizeBefore == 0 {
			r.b2 = s
		}
	} else {
		nodes[r.b2].flags &^= 2
		nodes[s].flags |= 2
		if r.cap2 == 1 {
			r.b2 = s
		} else {
			r.b2 = nodes[r.b2].prev
		}
	}
	return false, false
}

// AccessShifted services one whole request column: for each request v the
// key v>>shift is accessed, and the total zone misses across the column are
// returned (miss1 for zone1, miss2 for zone2) — exactly what summing
// !hit1/!hit2 over per-request Access calls would yield.
//
// This is the columnar kernel of the huge-page simulator's batch path. Two
// things make it faster than the scalar loop without changing a single
// state transition (TestRecencyStackColumnMatchesScalar pins equality):
//
//   - Run-length collapse: a request whose key equals the current
//     most-recent key is a guaranteed hit in both zones (the MRU ranks
//     first everywhere) and its move-to-front is a no-op, so the kernel
//     skips it with one register compare — no slot-table load. Collapsing
//     is exact under LRU; the skipped accesses contribute no misses.
//   - Column locals: the node array and boundary markers live in locals
//     across the whole column instead of being re-loaded through the
//     receiver on every call.
//
// The key derivation (v>>shift) is fused into the loop rather than staged
// through a separate unit-key buffer: deriving inline costs one shift per
// element, while a materialized column would cost a full extra memory pass
// over the chunk.
func (r *RecencyStack) AccessShifted(vs []uint64, shift uint) (miss1, miss2 uint64) {
	h := int32(r.capMax)
	nodes := r.nodes
	keys := r.keys
	b1, b2 := r.b1, r.b2
	mru := nodes[h].next // current MRU slot; == h while the list is empty
	var mruKey uint64
	if mru != h {
		mruKey = keys[mru]
	}
	for _, v := range vs {
		key := v >> shift
		if key == mruKey && mru != h {
			continue // repeat of the most recent key: hits both zones
		}
		if s := r.slot.At(key); s >= 0 {
			f := nodes[s].flags
			// The MRU short-circuit above already covered nodes[h].next == s.
			if f&1 == 0 {
				miss1++
				nodes[b1].flags &^= 1
				nodes[s].flags |= 1
				if r.cap1 == 1 {
					b1 = s
				} else {
					b1 = nodes[b1].prev
				}
			} else if s == b1 {
				b1 = nodes[s].prev
			}
			if f&2 == 0 {
				miss2++
				nodes[b2].flags &^= 2
				nodes[s].flags |= 2
				if r.cap2 == 1 {
					b2 = s
				} else {
					b2 = nodes[b2].prev
				}
			} else if s == b2 {
				b2 = nodes[s].prev
			}
			p, n := nodes[s].prev, nodes[s].next
			nodes[p].next = n
			nodes[n].prev = p
			f2 := nodes[h].next
			nodes[s].prev = h
			nodes[s].next = f2
			nodes[f2].prev = s
			nodes[h].next = s
			mru, mruKey = s, key
			continue
		}

		miss1++
		miss2++
		var s int32
		if r.size == r.capMax {
			t := nodes[h].prev
			ft := nodes[t].flags
			if ft&1 != 0 {
				b1 = nodes[t].prev
			}
			if ft&2 != 0 {
				b2 = nodes[t].prev
			}
			p, n := nodes[t].prev, nodes[t].next
			nodes[p].next = n
			nodes[n].prev = p
			r.slot.Set(keys[t], rsEvicted)
			r.size--
			s = t
		} else {
			s = r.freeHead
			r.freeHead = nodes[s].next
		}
		sizeBefore := r.size
		keys[s] = key
		r.slot.Set(key, s)
		f2 := nodes[h].next
		nodes[s] = rsNode{prev: h, next: f2}
		nodes[f2].prev = s
		nodes[h].next = s
		r.size++

		if sizeBefore < r.cap1 {
			nodes[s].flags |= 1
			if sizeBefore == 0 {
				b1 = s
			}
		} else {
			nodes[b1].flags &^= 1
			nodes[s].flags |= 1
			if r.cap1 == 1 {
				b1 = s
			} else {
				b1 = nodes[b1].prev
			}
		}
		if sizeBefore < r.cap2 {
			nodes[s].flags |= 2
			if sizeBefore == 0 {
				b2 = s
			}
		} else {
			nodes[b2].flags &^= 2
			nodes[s].flags |= 2
			if r.cap2 == 1 {
				b2 = s
			} else {
				b2 = nodes[b2].prev
			}
		}
		mru, mruKey = s, key
	}
	r.b1, r.b2 = b1, b2
	return miss1, miss2
}

// Distinct reports how many distinct keys have ever been inserted, i.e.
// the number of requests so far that were a key's first.
func (r *RecencyStack) Distinct() int { return r.slot.Len() }

// Zone1Len reports how many keys a standalone LRU of cap1 would hold.
func (r *RecencyStack) Zone1Len() int { return min(r.size, r.cap1) }

// Zone2Len reports how many keys a standalone LRU of cap2 would hold.
func (r *RecencyStack) Zone2Len() int { return min(r.size, r.cap2) }
