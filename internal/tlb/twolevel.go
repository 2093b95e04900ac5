package tlb

import (
	"fmt"

	"addrxlat/internal/policy"
)

// TwoLevel models an L1/L2 TLB hierarchy, as in every modern CPU (e.g.
// Cascade Lake: 64-entry L1 dTLB in front of the 1536-entry L2). Lookups
// probe L1, then L2; an L2 hit refills L1 (evicting per L1's policy); a
// full miss fills both. Each level evicts on its own, so L1 can keep a key
// that L2 has dropped; invalidations drop both levels.
type TwoLevel struct {
	l1, l2 *TLB
	l1Only int // keys cached in L1 but no longer in L2
}

// NewTwoLevel builds a hierarchy with the given entry counts.
func NewTwoLevel(l1Entries, l2Entries int, kind policy.Kind, seed uint64) (*TwoLevel, error) {
	if l1Entries <= 0 || l2Entries <= 0 {
		return nil, fmt.Errorf("tlb: level sizes must be positive")
	}
	if l1Entries >= l2Entries {
		return nil, fmt.Errorf("tlb: L1 (%d) must be smaller than L2 (%d)", l1Entries, l2Entries)
	}
	l1, err := New(l1Entries, kind, seed)
	if err != nil {
		return nil, err
	}
	l2, err := New(l2Entries, kind, seed+1)
	if err != nil {
		return nil, err
	}
	return &TwoLevel{l1: l1, l2: l2}, nil
}

// Lookup probes the hierarchy, reporting whether either level held key.
// An L2 hit refills L1.
func (t *TwoLevel) Lookup(key uint64) bool {
	if t.l1.Lookup(key) {
		return true
	}
	if t.l2.Lookup(key) {
		t.fillL1(key)
		return true
	}
	return false
}

// Insert fills both levels after a full miss. It returns L2's victim, as
// TLB.Insert does; L1 may still cache that key.
func (t *TwoLevel) Insert(key uint64) (victim uint64, evicted bool) {
	victim, evicted = t.l2.Insert(key)
	if evicted && t.l1.Contains(victim) {
		t.l1Only++
	}
	t.fillL1(key)
	return victim, evicted
}

// fillL1 caches key in L1, retiring an L1 victim that L2 no longer holds.
func (t *TwoLevel) fillL1(key uint64) {
	if v, ok := t.l1.Insert(key); ok && !t.l2.Contains(v) {
		t.l1Only--
	}
}

// Invalidate drops key from both levels, reporting whether it was present
// in either.
func (t *TwoLevel) Invalidate(key uint64) bool {
	in1 := t.l1.Invalidate(key)
	in2 := t.l2.Invalidate(key)
	if in1 && !in2 {
		t.l1Only--
	}
	return in1 || in2
}

// Len returns the number of distinct keys cached in either level.
func (t *TwoLevel) Len() int { return t.l2.Len() + t.l1Only }

// L1 and L2 expose the levels for inspection.
func (t *TwoLevel) L1() *TLB { return t.l1 }

// L2 returns the second-level TLB.
func (t *TwoLevel) L2() *TLB { return t.l2 }
