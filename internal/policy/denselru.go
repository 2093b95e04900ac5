package policy

import (
	"math"

	"addrxlat/internal/dense"
)

// lruNode is one slot's place in the recency list. Both links a relink
// touches share one 8-byte node, so each slot visited costs one cache
// line instead of two, as in RecencyStack.
type lruNode struct{ prev, next int32 }

// DenseLRU is an LRU cache specialized for the simulator's hot paths:
// eviction order identical to LRU, but built on flat arrays instead of a
// hash map and per-key heap nodes. Slots are preallocated up front and
// linked into an intrusive doubly-linked recency list over slot *indices*;
// the key→slot index is a dense flat array (page numbers are small and
// dense). Steady-state Access performs zero allocations.
//
// DenseLRU assumes its keys are densely numbered (page or region numbers
// bounded by the machine size). For arbitrary sparse keys use LRU, whose
// hash map does not grow with the key bound.
type DenseLRU struct {
	capacity int
	keys     []uint64            // per-slot cached key
	nodes    []lruNode           // recency list over slots; index capacity is the sentinel head
	slot     *dense.Table[int32] // key -> slot, -1 when absent
	size     int
	freeHead int32 // singly-linked free list threaded through the next links
}

var _ Policy = (*DenseLRU)(nil)

// NewDenseLRU returns a dense LRU cache with the given capacity (> 0).
// keyHint, if positive, pre-sizes the key index for keys [0, keyHint).
func NewDenseLRU(capacity int, keyHint uint64) *DenseLRU {
	if capacity <= 0 {
		panic("policy: DenseLRU capacity must be positive")
	}
	if capacity >= math.MaxInt32 {
		panic("policy: DenseLRU capacity exceeds int32 slot space")
	}
	l := &DenseLRU{
		capacity: capacity,
		keys:     make([]uint64, capacity),
		nodes:    make([]lruNode, capacity+1),
		slot:     dense.NewTable[int32](-1, int(keyHint)),
	}
	head := int32(capacity)
	l.nodes[head] = lruNode{prev: head, next: head}
	// Thread every slot onto the free list.
	for s := 0; s < capacity-1; s++ {
		l.nodes[s].next = int32(s + 1)
	}
	l.nodes[capacity-1].next = -1
	l.freeHead = 0
	return l
}

func (l *DenseLRU) head() int32 { return int32(l.capacity) }

func (l *DenseLRU) unlink(s int32) {
	n := l.nodes
	p, x := n[s].prev, n[s].next
	n[p].next = x
	n[x].prev = p
}

func (l *DenseLRU) pushFront(s int32) {
	n, h := l.nodes, l.head()
	f := n[h].next
	n[s] = lruNode{prev: h, next: f}
	n[f].prev = s
	n[h].next = s
}

// AccessSlot requests key and additionally returns the slot now holding it,
// so callers storing per-entry values can index a parallel array
// without a second key lookup. On an eviction the victim's slot is reused
// for key, so the caller's value array needs no compaction.
func (l *DenseLRU) AccessSlot(key uint64) (slot int32, hit bool, victim uint64) {
	if s := l.slot.At(key); s >= 0 {
		if l.nodes[l.head()].next != s { // already at front: skip the relink
			l.unlink(s)
			l.pushFront(s)
		}
		return s, true, NoEviction
	}
	victim = NoEviction
	var s int32
	if l.size >= l.capacity {
		s = l.nodes[l.head()].prev // least recent
		l.unlink(s)
		victim = l.keys[s]
		l.slot.Delete(victim)
	} else {
		s = l.freeHead
		l.freeHead = l.nodes[s].next
		l.size++
	}
	l.keys[s] = key
	l.slot.Set(key, s)
	l.pushFront(s)
	return s, false, victim
}

// ColumnMiss is one miss of AccessColumn: the index of the missed request
// in its column and the key the cache evicted for it, NoEviction while the
// cache still had room.
type ColumnMiss struct {
	At     int
	Victim uint64
}

// AccessColumn services one whole request column: for each request v the
// key v>>shift is accessed, and each miss is appended to misses in column
// order. Hits, victims and the final recency order are exactly those of
// calling AccessSlot(v>>shift) per request (TestDenseLRUColumnMatchesScalar
// and FuzzDenseLRUColumn pin this), and steady state allocates nothing
// once misses has room for the column's misses.
//
// It is the column kernel of both of algorithm Z's LRU sides: the TLB
// over huge-page keys (shift log₂hmax) and the Y cache over base pages
// (shift 0). Like RecencyStack.AccessShifted it differs from the scalar
// loop only in how it gets there:
//
//   - Run-length collapse: a request whose key is the most recent one is
//     a hit whose move-to-front is a no-op, so one register compare skips
//     it, even across calls.
//   - Column locals: the nodes, the keys and the key→slot table's flat
//     region live in locals across the column. A miss that evicts writes
//     the flat region directly, clearing the victim and filling the key
//     in one step; growing the region, filling a free slot and keys at or
//     above dense.SparseBound go through the table's Set and Delete.
func (l *DenseLRU) AccessColumn(vs []uint64, shift uint, misses []ColumnMiss) []ColumnMiss {
	h := int32(l.capacity)
	nodes, keys := l.nodes, l.keys
	flat := l.slot.Flat()
	mru := nodes[h].next // == h while the cache is empty
	var mruKey uint64
	if mru != h {
		mruKey = keys[mru]
	}
	for i, v := range vs {
		key := v >> shift
		if key == mruKey && mru != h {
			continue // repeat of the most recent key: a hit, recency unchanged
		}
		var s int32
		if key < uint64(len(flat)) {
			s = flat[key]
		} else {
			s = l.slot.At(key)
		}
		if s >= 0 { // hit, and not the front: the compare above covered that
			p, n := nodes[s].prev, nodes[s].next
			nodes[p].next = n
			nodes[n].prev = p
		} else {
			victim := NoEviction
			if l.size == l.capacity {
				s = nodes[h].prev // least recent
				p := nodes[s].prev
				nodes[p].next = h
				nodes[h].prev = p
				victim = keys[s]
				if victim < uint64(len(flat)) && key < uint64(len(flat)) {
					flat[victim] = -1
					flat[key] = s
				} else {
					l.slot.Delete(victim)
					l.slot.Set(key, s)
					flat = l.slot.Flat()
				}
			} else {
				s = l.freeHead
				l.freeHead = nodes[s].next
				l.size++
				l.slot.Set(key, s)
				flat = l.slot.Flat()
			}
			keys[s] = key
			misses = append(misses, ColumnMiss{At: i, Victim: victim})
		}
		f := nodes[h].next
		nodes[s] = lruNode{prev: h, next: f}
		nodes[f].prev = s
		nodes[h].next = s
		mru, mruKey = s, key
	}
	return misses
}

// Touch refreshes the recency of an occupied slot, exactly as Access of
// its key would on a hit — but without re-probing the key index. Batch
// kernels that already hold the slot from SlotOf use it to halve the
// table lookups of a probe-then-refresh pair. s must be a live slot.
func (l *DenseLRU) Touch(s int32) {
	if l.nodes[l.head()].next != s {
		l.unlink(s)
		l.pushFront(s)
	}
}

// Access implements Policy.
func (l *DenseLRU) Access(key uint64) (hit bool, victim uint64) {
	_, hit, victim = l.AccessSlot(key)
	return hit, victim
}

// SlotOf returns the slot currently holding key, or -1. Recency and
// counters are untouched.
func (l *DenseLRU) SlotOf(key uint64) int32 { return l.slot.At(key) }

// Contains implements Policy.
func (l *DenseLRU) Contains(key uint64) bool { return l.slot.At(key) >= 0 }

// RemoveSlot evicts key immediately, returning the slot it occupied, or
// -1 if it was not cached.
func (l *DenseLRU) RemoveSlot(key uint64) int32 {
	s := l.slot.At(key)
	if s < 0 {
		return -1
	}
	l.unlink(s)
	l.slot.Delete(key)
	l.nodes[s].next = l.freeHead
	l.freeHead = s
	l.size--
	return s
}

// Remove implements Policy.
func (l *DenseLRU) Remove(key uint64) bool { return l.RemoveSlot(key) >= 0 }

// Len implements Policy.
func (l *DenseLRU) Len() int { return l.size }

// Cap implements Policy.
func (l *DenseLRU) Cap() int { return l.capacity }

// Name implements Policy. DenseLRU is behaviorally identical to LRU, so it
// reports the same name and experiment tables stay byte-stable.
func (l *DenseLRU) Name() string { return string(LRUKind) }

// EvictLRU removes and returns the least-recently-used key, or ok=false if
// the cache is empty. Mirrors LRU.EvictLRU for variable-size-unit callers.
func (l *DenseLRU) EvictLRU() (key uint64, ok bool) {
	if l.size == 0 {
		return 0, false
	}
	s := l.nodes[l.head()].prev
	key = l.keys[s]
	l.RemoveSlot(key)
	return key, true
}

// ScanLRU calls fn for each cached key from least to most recently used,
// stopping early when fn returns false. fn must not mutate the cache.
// Allocation-free, unlike Keys.
func (l *DenseLRU) ScanLRU(fn func(key uint64) bool) {
	h := l.head()
	for s := l.nodes[h].prev; s != h; s = l.nodes[s].prev {
		if !fn(l.keys[s]) {
			return
		}
	}
}

// Keys returns the cached keys from most to least recently used. Intended
// for tests and debugging; O(n).
func (l *DenseLRU) Keys() []uint64 {
	keys := make([]uint64, 0, l.size)
	h := l.head()
	for s := l.nodes[h].next; s != h; s = l.nodes[s].next {
		keys = append(keys, l.keys[s])
	}
	return keys
}
