package tlb

import (
	"fmt"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

// SetAssociative models a hardware TLB with limited associativity: the
// entry space is split into sets of `ways` entries; a key may only reside
// in the set its hash selects, managed by a per-set replacement policy.
//
// The paper's Section 6 simulator treats the TLB as fully associative
// (footnote 1 licenses this simplification); this model quantifies what
// the simplification hides. It is also a nice mirror of the paper's own
// theme — the RAM-allocation schemes of Section 4 are precisely
// low-associativity caches, so the same structure appears on both sides
// of the translation problem.
type SetAssociative struct {
	sets    int
	ways    int
	indexer *hashutil.Family
	subs    []*TLB
}

// NewSetAssociative builds a TLB of sets×ways entries. entries must be
// divisible by ways. kind selects the per-set replacement policy.
func NewSetAssociative(entries, ways int, kind policy.Kind, seed uint64) (*SetAssociative, error) {
	if entries <= 0 || ways <= 0 {
		return nil, fmt.Errorf("tlb: entries and ways must be positive")
	}
	if entries%ways != 0 {
		return nil, fmt.Errorf("tlb: entries %d not divisible by ways %d", entries, ways)
	}
	sets := entries / ways
	s := &SetAssociative{
		sets:    sets,
		ways:    ways,
		indexer: hashutil.NewFamily(seed, 1, uint64(sets)),
	}
	for i := 0; i < sets; i++ {
		sub, err := New(ways, kind, seed+uint64(i)+1)
		if err != nil {
			return nil, err
		}
		s.subs = append(s.subs, sub)
	}
	return s, nil
}

// setOf returns the set index for a key. Real hardware uses low index
// bits; hashing the key avoids pathological striding in synthetic
// workloads while preserving the limited-associativity behavior.
func (s *SetAssociative) setOf(key uint64) int {
	return int(s.indexer.At(0, key))
}

// Lookup reports whether key is cached, refreshing its recency on a hit.
func (s *SetAssociative) Lookup(key uint64) bool {
	return s.subs[s.setOf(key)].Lookup(key)
}

// Insert caches key in its set, evicting within the set per the policy.
func (s *SetAssociative) Insert(key uint64) (victim uint64, evicted bool) {
	return s.subs[s.setOf(key)].Insert(key)
}

// Invalidate drops key if present.
func (s *SetAssociative) Invalidate(key uint64) bool {
	return s.subs[s.setOf(key)].Invalidate(key)
}

// Contains reports presence without side effects.
func (s *SetAssociative) Contains(key uint64) bool {
	return s.subs[s.setOf(key)].Contains(key)
}

// Sets and Ways expose the geometry.
func (s *SetAssociative) Sets() int { return s.sets }

// Ways returns the associativity.
func (s *SetAssociative) Ways() int { return s.ways }

// Len returns the number of cached entries.
func (s *SetAssociative) Len() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.Len()
	}
	return n
}
