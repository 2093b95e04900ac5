package policy

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

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
//
// A stack that has never been read can also be warmed by Stamp, which
// records each key's last use instead of simulating; the first read
// settles the stamps into the exact state the accesses would have left.
type RecencyStack struct {
	cap1, cap2 int // zone capacities
	capMax     int // list capacity = max(cap1, cap2)

	keys  []uint64
	nodes []rsNode            // intrusive recency list over slots; index capMax is the sentinel
	slot  *dense.Table[int32] // key → slot, rsEvicted once evicted, -1 never inserted; a stamp while stamping

	size     int
	freeHead int32
	b1, b2   int32 // boundary slots: each zone's least recent member (-1 while empty)

	// Stamp's state: while stamping, slot maps every key seen to its
	// last use, a stamp that counts the runs of one key recorded so far.
	// maxStamps bounds the stamps (tests lower it to reach the overflow
	// path).
	stamping  bool
	stamps    int32
	maxStamps int32
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

		maxStamps: math.MaxInt32,
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
	if r.stamping {
		r.settle()
	}
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
	if r.stamping {
		r.settle()
	}
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
func (r *RecencyStack) Distinct() int {
	if r.stamping {
		r.settle()
	}
	return r.slot.Len()
}

// Zone1Len reports how many keys a standalone LRU of cap1 would hold.
func (r *RecencyStack) Zone1Len() int {
	if r.stamping {
		r.settle()
	}
	return min(r.size, r.cap1)
}

// Zone2Len reports how many keys a standalone LRU of cap2 would hold.
func (r *RecencyStack) Zone2Len() int {
	if r.stamping {
		r.settle()
	}
	return min(r.size, r.cap2)
}

// Stamp warms a stack that has never been read: it leaves the stack in
// the state AccessShifted(vs, shift) would, without computing a hit or
// a miss. By the LRU inclusion property that state is a function of the
// last uses alone — the list holds the min(seen, capMax) most recently
// used keys in last-use order, each zone its first cap1 or cap2 of
// them, and every older key is a tombstone — so Stamp stores each
// request's last use in the key's own slot-table entry, one store per
// run of one key and no memory per key beyond the entry an access would
// create. Consecutive calls continue one window. The first read (Access,
// AccessShifted, Distinct, Zone1Len or Zone2Len) settles the stamps
// into the list (see settle).
//
// Stamp reports whether it stamped. It does nothing and reports false
// once the stack has been read, and when vs would overflow the stamps'
// int32 range, after settling the stamps recorded so far: either way
// the caller services vs by accessing it.
func (r *RecencyStack) Stamp(vs []uint64, shift uint) bool {
	if !r.stamping {
		if r.slot.Len() > 0 {
			return false // read already: the slot table holds slots
		}
		r.stamping = true
	}
	if len(vs) > int(r.maxStamps-r.stamps) {
		r.settle()
		return false
	}
	flat := r.slot.Flat()
	stamp := r.stamps
	var last uint64
	for i, v := range vs {
		key := v >> shift
		if key == last && i > 0 {
			continue // a run of one key: its first stamp orders it the same
		}
		if key < uint64(len(flat)) && flat[key] >= 0 {
			flat[key] = stamp // seen before: overwrite a present value
		} else {
			r.slot.Set(key, stamp) // a first use, or a key in the map
			flat = r.slot.Flat()
		}
		stamp++
		last = key
	}
	r.stamps = stamp
	return true
}

// Stamp histograms: stamps are ranked rsDigit bits at a time.
const (
	rsDigit   = 11
	rsBuckets = 1 << rsDigit
)

// settle turns the stamps into the recency list. The k = min(seen,
// capMax) most recent stamps survive: a radix select over the stamps'
// bits (stampFloor) finds the oldest of them without sorting the rest.
// One pass over the slot table then moves each survivor into a node,
// its key packed into the node's links and its stamp into the flags,
// and turns every older entry into a tombstone. Sorting the k nodes by
// stamp puts them oldest first, so node i becomes slot i: the list runs
// from slot k−1 (most recent) to slot 0, zone z is its last min(k, cap)
// slots, and the free list keeps the constructor's chain from slot k
// on. Settle allocates nothing: the histogram is a fixed array, the
// survivors live in the stack's own nodes, and the sort is in place.
func (r *RecencyStack) settle() {
	r.stamping = false
	n := r.slot.Len()
	k := min(n, r.capMax)
	floor := int32(0)
	if n > k {
		floor = r.stampFloor(k)
	}
	nodes := r.nodes
	i := 0
	keep := func(key uint64, stamp int32) int32 {
		if stamp < floor {
			return rsEvicted
		}
		nodes[i] = rsNode{prev: int32(uint32(key)), next: int32(uint32(key >> 32)), flags: uint32(stamp)}
		i++
		return stamp
	}
	flat := r.slot.Flat()
	for key, stamp := range flat {
		if stamp >= 0 {
			flat[key] = keep(uint64(key), stamp)
		}
	}
	for key, stamp := range r.slot.Sparse() {
		r.slot.Set(key, keep(key, stamp)) // overwrites a present key: Len holds
	}
	slices.SortFunc(nodes[:k], func(a, b rsNode) int { return cmp.Compare(a.flags, b.flags) })

	h := int32(r.capMax)
	for s := range k {
		key := uint64(uint32(nodes[s].prev)) | uint64(uint32(nodes[s].next))<<32
		r.keys[s] = key
		if key < uint64(len(flat)) {
			flat[key] = int32(s)
		} else {
			r.slot.Set(key, int32(s))
		}
		nd := rsNode{prev: int32(s + 1), next: int32(s - 1)}
		if s == k-1 {
			nd.prev = h
		}
		if s == 0 {
			nd.next = h
		}
		if s >= k-r.cap1 {
			nd.flags |= 1
		}
		if s >= k-r.cap2 {
			nd.flags |= 2
		}
		nodes[s] = nd
	}
	r.size = k
	r.b1, r.b2 = -1, -1
	if k > 0 {
		nodes[h].next, nodes[h].prev = int32(k-1), 0
		r.b1, r.b2 = int32(max(k-r.cap1, 0)), int32(max(k-r.cap2, 0))
	}
	r.freeHead = -1
	if k < r.capMax {
		r.freeHead = int32(k)
	}
}

// stampFloor returns the k-th largest stamp (0 < k < seen keys): a
// radix select that histograms one rsDigit-bit digit of the stamps per
// pass over the slot table, most significant first, each pass among
// the stamps whose higher digits match the ones chosen so far. Stamps
// are distinct, so the last pass leaves exactly the k-th.
func (r *RecencyStack) stampFloor(k int) int32 {
	flat, sparse := r.slot.Flat(), r.slot.Sparse()
	var hist [rsBuckets]int32
	prefix, need := uint32(0), int32(k)
	top := (bits.Len32(uint32(r.stamps-1)) + rsDigit - 1) / rsDigit * rsDigit
	for shift := top - rsDigit; shift >= 0; shift -= rsDigit {
		clear(hist[:])
		above := uint(shift + rsDigit)
		for _, st := range flat {
			if st >= 0 && uint32(st)>>above == prefix>>above {
				hist[uint32(st)>>shift%rsBuckets]++
			}
		}
		for _, st := range sparse {
			if uint32(st)>>above == prefix>>above {
				hist[uint32(st)>>shift%rsBuckets]++
			}
		}
		d := rsBuckets - 1
		for ; hist[d] < need; d-- {
			need -= hist[d]
		}
		prefix |= uint32(d) << shift
	}
	return int32(prefix)
}
