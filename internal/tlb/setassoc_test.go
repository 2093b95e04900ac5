package tlb

import (
	"testing"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

func TestSetAssociativeErrors(t *testing.T) {
	if _, err := NewSetAssociative(0, 4, policy.LRUKind, 1); err == nil {
		t.Error("entries=0 should error")
	}
	if _, err := NewSetAssociative(16, 0, policy.LRUKind, 1); err == nil {
		t.Error("ways=0 should error")
	}
	if _, err := NewSetAssociative(10, 4, policy.LRUKind, 1); err == nil {
		t.Error("non-divisible should error")
	}
	if _, err := NewSetAssociative(16, 4, "bogus", 1); err == nil {
		t.Error("bad policy should error")
	}
}

func TestSetAssociativeBasic(t *testing.T) {
	s, err := NewSetAssociative(16, 4, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sets() != 4 || s.Ways() != 4 {
		t.Fatalf("geometry %d×%d", s.Sets(), s.Ways())
	}
	if s.Lookup(42) {
		t.Fatal("empty TLB hit")
	}
	s.Insert(42)
	if !s.Lookup(42) {
		t.Fatal("lookup missed after insert")
	}
	if !s.Contains(42) || s.Contains(43) || s.Len() != 1 {
		t.Fatalf("after Insert(42): Contains(42)=%v Contains(43)=%v Len=%d", s.Contains(42), s.Contains(43), s.Len())
	}
	if !s.Invalidate(42) || s.Invalidate(42) {
		t.Fatal("invalidate semantics wrong")
	}
	if s.Lookup(42) || s.Len() != 0 {
		t.Fatalf("after Invalidate(42): Lookup hit or Len = %d", s.Len())
	}
}

func TestSetAssociativeConflictMisses(t *testing.T) {
	// With 1-way (direct-mapped) sets, keys hashing to the same set
	// conflict even when the TLB is mostly empty; full associativity at
	// the same total size would hold them all. Compare miss counts on a
	// small working set.
	const entries = 64
	const workingSet = 32
	type cache interface {
		Lookup(uint64) bool
		Insert(uint64) (uint64, bool)
	}
	run := func(mk func() cache) uint64 {
		c := mk()
		r := hashutil.NewRNG(5)
		var misses uint64
		for i := 0; i < 100000; i++ {
			key := r.Uint64n(workingSet)
			if !c.Lookup(key) {
				misses++
				c.Insert(key)
			}
		}
		return misses
	}
	directMisses := run(func() cache {
		s, err := NewSetAssociative(entries, 1, policy.LRUKind, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	fullMisses := run(func() cache {
		f, err := New(entries, policy.LRUKind, 2)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
	// Fully associative caches the 32-key working set entirely: only
	// cold misses. Direct-mapped conflicts keep missing.
	if fullMisses != workingSet {
		t.Fatalf("fully associative misses = %d, want %d cold misses", fullMisses, workingSet)
	}
	if directMisses <= fullMisses*2 {
		t.Fatalf("direct-mapped misses %d should far exceed full-assoc %d", directMisses, fullMisses)
	}
}

func TestSetAssociativeMoreWaysFewerMisses(t *testing.T) {
	const entries = 64
	r := hashutil.NewRNG(7)
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = r.Uint64n(48)
	}
	missesAt := func(ways int) uint64 {
		s, err := NewSetAssociative(entries, ways, policy.LRUKind, 3)
		if err != nil {
			t.Fatal(err)
		}
		var misses uint64
		for _, k := range keys {
			if !s.Lookup(k) {
				misses++
				s.Insert(k)
			}
		}
		return misses
	}
	m1, m4, m64 := missesAt(1), missesAt(4), missesAt(64)
	if !(m64 <= m4 && m4 <= m1) {
		t.Fatalf("misses not monotone in associativity: 1-way %d, 4-way %d, 64-way %d", m1, m4, m64)
	}
}

func TestSetAssociativeCapacity(t *testing.T) {
	s, _ := NewSetAssociative(16, 2, policy.LRUKind, 1)
	for k := uint64(0); k < 1000; k++ {
		s.Insert(k)
	}
	if s.Len() > 16 {
		t.Fatalf("Len = %d exceeds 16 entries", s.Len())
	}
}

func TestTwoLevelErrors(t *testing.T) {
	if _, err := NewTwoLevel(0, 8, policy.LRUKind, 1); err == nil {
		t.Error("L1=0 should error")
	}
	if _, err := NewTwoLevel(8, 0, policy.LRUKind, 1); err == nil {
		t.Error("L2=0 should error")
	}
	if _, err := NewTwoLevel(8, 8, policy.LRUKind, 1); err == nil {
		t.Error("L1>=L2 should error")
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	h, err := NewTwoLevel(2, 8, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	// level reports which level served a lookup (1 or 2), or 0 on a full
	// miss, read off the levels' membership before it.
	level := func(key uint64) int {
		lv := 0
		switch {
		case h.L1().Contains(key):
			lv = 1
		case h.L2().Contains(key):
			lv = 2
		}
		if hit := h.Lookup(key); hit != (lv > 0) {
			t.Fatalf("Lookup(%d) = %v, but level %d held it", key, hit, lv)
		}
		return lv
	}
	if lv := level(1); lv != 0 {
		t.Fatalf("level = %d, want 0", lv)
	}
	h.Insert(1)
	if lv := level(1); lv != 1 {
		t.Fatalf("level = %d, want 1", lv)
	}
	// Flood L1 (2 entries) so key 1 falls back to L2 only.
	h.Insert(2)
	h.Insert(3)
	if lv := level(1); lv != 2 {
		t.Fatalf("after L1 flood: level = %d, want 2", lv)
	}
	// The L2 hit refilled L1.
	if lv := level(1); lv != 1 {
		t.Fatalf("refill failed: level = %d", lv)
	}
	if !h.Invalidate(1) {
		t.Fatal("invalidate failed")
	}
	if lv := level(1); lv != 0 {
		t.Fatal("key survived invalidation")
	}
	if h.L1().Cap() != 2 || h.L2().Cap() != 8 {
		t.Fatal("level accessors broken")
	}
}

// TestTwoLevelLen checks Len against the union of the two levels' key
// sets over a stream whose L2 evictions leave keys cached in L1 only, and
// whose invalidations often hit such a key.
func TestTwoLevelLen(t *testing.T) {
	const keys = 64
	h, err := NewTwoLevel(4, 8, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(9)
	l1Only := 0
	for i := 0; i < 20000; i++ {
		var key uint64
		switch {
		case i%64 == 63:
			h.Invalidate(uint64(i/64) % 2)
		case i%2 == 0:
			// Keys 0 and 1 alternate with cold keys: L1 serves every
			// reference to them, so their L2 entries age out.
			key = uint64(i/2) % 2
		default:
			key = 2 + r.Uint64n(keys-2)
		}
		if i%64 != 63 && !h.Lookup(key) {
			h.Insert(key)
		}
		union := 0
		for k := uint64(0); k < keys; k++ {
			in1, in2 := h.L1().Contains(k), h.L2().Contains(k)
			if in1 || in2 {
				union++
			}
			if in1 && !in2 {
				l1Only++
			}
		}
		if h.Len() != union {
			t.Fatalf("step %d: Len = %d, union of levels = %d", i, h.Len(), union)
		}
	}
	if l1Only == 0 {
		t.Fatal("stream never left a key in L1 only")
	}
}

func TestTwoLevelFiltering(t *testing.T) {
	// A hot few keys should be absorbed almost entirely by L1, leaving
	// L2 traffic dominated by the colder tail.
	h, _ := NewTwoLevel(8, 256, policy.LRUKind, 1)
	r := hashutil.NewRNG(2)
	var l1Hits, l2Hits int
	for i := 0; i < 200000; i++ {
		var key uint64
		if r.Float64() < 0.9 {
			key = r.Uint64n(4) // hot
		} else {
			key = 100 + r.Uint64n(400) // cold tail
		}
		switch {
		case h.L1().Contains(key):
			l1Hits++
		case h.L2().Contains(key):
			l2Hits++
		}
		if !h.Lookup(key) {
			h.Insert(key)
		}
	}
	if l1Hits < l2Hits {
		t.Fatalf("L1 hits %d below L2 hits %d for a hot working set", l1Hits, l2Hits)
	}
}
