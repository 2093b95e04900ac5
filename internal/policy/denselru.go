package policy

import (
	"math"

	"addrxlat/internal/dense"
)

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
	prev     []int32             // intrusive recency list over slots;
	next     []int32             // index `capacity` is the sentinel head
	slot     *dense.Table[int32] // key -> slot, -1 when absent
	size     int
	freeHead int32 // singly-linked free list threaded through next
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
		prev:     make([]int32, capacity+1),
		next:     make([]int32, capacity+1),
		slot:     dense.NewTable[int32](-1, int(keyHint)),
	}
	head := int32(capacity)
	l.prev[head] = head
	l.next[head] = head
	// Thread every slot onto the free list.
	for s := 0; s < capacity-1; s++ {
		l.next[s] = int32(s + 1)
	}
	l.next[capacity-1] = -1
	l.freeHead = 0
	return l
}

func (l *DenseLRU) head() int32 { return int32(l.capacity) }

func (l *DenseLRU) unlink(s int32) {
	l.next[l.prev[s]] = l.next[s]
	l.prev[l.next[s]] = l.prev[s]
}

func (l *DenseLRU) pushFront(s int32) {
	h := l.head()
	l.prev[s] = h
	l.next[s] = l.next[h]
	l.prev[l.next[h]] = s
	l.next[h] = s
}

// AccessSlot requests key and additionally returns the slot now holding it,
// so callers storing per-entry values can index a parallel array
// without a second key lookup. On an eviction the victim's slot is reused
// for key, so the caller's value array needs no compaction.
func (l *DenseLRU) AccessSlot(key uint64) (slot int32, hit bool, victim uint64) {
	if s := l.slot.At(key); s >= 0 {
		if l.next[l.head()] != s { // already at front: skip the relink
			l.unlink(s)
			l.pushFront(s)
		}
		return s, true, NoEviction
	}
	victim = NoEviction
	var s int32
	if l.size >= l.capacity {
		s = l.prev[l.head()] // least recent
		l.unlink(s)
		victim = l.keys[s]
		l.slot.Delete(victim)
	} else {
		s = l.freeHead
		l.freeHead = l.next[s]
		l.size++
	}
	l.keys[s] = key
	l.slot.Set(key, s)
	l.pushFront(s)
	return s, false, victim
}

// Touch refreshes the recency of an occupied slot, exactly as Access of
// its key would on a hit — but without re-probing the key index. Batch
// kernels that already hold the slot from SlotOf use it to halve the
// table lookups of a probe-then-refresh pair. s must be a live slot.
func (l *DenseLRU) Touch(s int32) {
	if l.next[l.head()] != s {
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
	l.next[s] = l.freeHead
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
	s := l.prev[l.head()]
	key = l.keys[s]
	l.RemoveSlot(key)
	return key, true
}

// ScanLRU calls fn for each cached key from least to most recently used,
// stopping early when fn returns false. fn must not mutate the cache.
// Allocation-free, unlike Keys.
func (l *DenseLRU) ScanLRU(fn func(key uint64) bool) {
	h := l.head()
	for s := l.prev[h]; s != h; s = l.prev[s] {
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
	for s := l.next[h]; s != h; s = l.next[s] {
		keys = append(keys, l.keys[s])
	}
	return keys
}
