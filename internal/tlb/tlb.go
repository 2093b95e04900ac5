// Package tlb models a translation lookaside buffer as a key set: a small
// cache of virtual huge-page numbers with a replacement policy.
//
// Matching the paper's Section 6 simulator, the TLB is fully associative
// with a pluggable replacement policy (LRU by default, 1536 entries — the
// size of Cascade Lake's L2 data TLB). The cost model charges ε for a
// miss and nothing for a hit, so the simulator never needs the value an
// entry would hold. For the decoupled schemes that value is ψ(u), which
// lives in core.Encoder and is read live: the model makes ψ updates free
// while u is TLB-resident, so a cached copy would always equal it.
package tlb

import (
	"fmt"

	"addrxlat/internal/policy"
)

// TLB is a fixed-capacity translation cache.
//
// For the default LRU replacement policy the TLB runs on a flat slot
// array: recency is an intrusive doubly-linked list over slot indices
// (policy.DenseLRU), so a steady-state access touches no hash table and
// performs no allocation. Other policy kinds use the generic Policy path.
type TLB struct {
	entries int

	flat   *policy.DenseLRU // LRU kind only
	policy policy.Policy    // every other policy kind

	hits   uint64
	misses uint64
}

// New creates a TLB with the given entry count and replacement policy
// kind. seed feeds randomized policies.
func New(entries int, kind policy.Kind, seed uint64) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("tlb: entries must be positive, got %d", entries)
	}
	if kind == policy.LRUKind {
		return &TLB{entries: entries, flat: policy.NewDenseLRU(entries, 0)}, nil
	}
	pol, err := policy.New(kind, entries, seed)
	if err != nil {
		return nil, err
	}
	return &TLB{entries: entries, policy: pol}, nil
}

// Lookup reports whether huge page u is cached, updating recency state
// and hit/miss counters.
func (t *TLB) Lookup(u uint64) bool {
	if t.flat != nil {
		s := t.flat.SlotOf(u)
		if s < 0 {
			t.misses++
			return false
		}
		t.flat.Touch(s) // refresh recency
		t.hits++
		return true
	}
	if !t.policy.Contains(u) {
		t.misses++
		return false
	}
	t.policy.Access(u) // refresh recency
	t.hits++
	return true
}

// Insert caches huge page u, evicting per the policy. It returns the
// evicted huge page and true if an eviction occurred. Callers insert
// after a miss; inserting an already-present key just refreshes it.
func (t *TLB) Insert(u uint64) (victim uint64, evicted bool) {
	var v uint64
	if t.flat != nil {
		_, v = t.flat.Access(u)
	} else {
		_, v = t.policy.Access(u)
	}
	if v != policy.NoEviction {
		return v, true
	}
	return 0, false
}

// Contains reports whether u is cached, without side effects.
func (t *TLB) Contains(u uint64) bool {
	if t.flat != nil {
		return t.flat.Contains(u)
	}
	return t.policy.Contains(u)
}

// Invalidate drops huge page u from the TLB (a TLB shootdown), reporting
// whether it was present.
func (t *TLB) Invalidate(u uint64) bool {
	if t.flat != nil {
		return t.flat.Remove(u)
	}
	return t.policy.Remove(u)
}

// Hits and Misses return the lookup counters.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }

// Len returns the number of cached entries.
func (t *TLB) Len() int {
	if t.flat != nil {
		return t.flat.Len()
	}
	return t.policy.Len()
}

// Cap returns the entry capacity ℓ.
func (t *TLB) Cap() int { return t.entries }

// Reach returns the address-space coverage of the live entries in base
// pages, given the pages each entry translates (h, or hmax for decoupled
// schemes) — the quantity TLB-coverage gauges report.
func (t *TLB) Reach(pagesPerEntry uint64) uint64 {
	return uint64(t.Len()) * pagesPerEntry
}

// ResetCounters zeroes the hit/miss counters (used after cache warmup, as
// in the paper's measurement methodology).
func (t *TLB) ResetCounters() {
	t.hits, t.misses = 0, 0
}
