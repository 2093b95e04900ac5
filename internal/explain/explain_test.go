package explain

import (
	"reflect"
	"testing"

	"addrxlat/internal/dense"
	"addrxlat/internal/hashutil"
)

// refClassifier is the map-keyed TLB-miss classifier the flat table
// replaced, kept as the reference: the same three classes, the same
// history across Reset.
type refClassifier struct {
	compulsory, capacity, coverageLoss, invalidations uint64
	state                                             map[uint64]uint8
}

func (r *refClassifier) miss(key uint64) {
	if r.state == nil {
		r.state = make(map[uint64]uint8)
	}
	switch st := r.state[key]; {
	case st == 0:
		r.compulsory++
	case st&tlbInvalidated != 0:
		r.coverageLoss++
	default:
		r.capacity++
	}
	r.state[key] = tlbSeen
}

func (r *refClassifier) invalidated(key uint64) {
	r.invalidations++
	if r.state == nil {
		r.state = make(map[uint64]uint8)
	}
	r.state[key] = tlbSeen | tlbInvalidated
}

func (r *refClassifier) reset() {
	r.compulsory, r.capacity, r.coverageLoss, r.invalidations = 0, 0, 0, 0
}

// classifierKey draws a key from the ranges the classifier must serve: a
// small dense range (the flat table), the last flat key and the first
// sparse one around dense.SparseBound, and nested-style host keys
// hu<<1|1 with hu ≥ 1<<62 (the page-table region's tag).
func classifierKey(rng *hashutil.RNG) uint64 {
	switch rng.Uint64n(4) {
	case 0, 1:
		return rng.Uint64n(200)
	case 2:
		return dense.SparseBound - 1 + rng.Uint64n(2)
	default:
		hu := uint64(1)<<62 + rng.Uint64n(16)
		return hu<<1 | 1
	}
}

// TestClassifierMatchesMapReference drives the flat classifier and the
// map reference with one random script of misses, invalidations and
// resets, and requires equal counters after every step.
func TestClassifierMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := hashutil.NewRNG(seed)
		var got Counters
		var want refClassifier
		for step := 0; step < 20000; step++ {
			switch p := rng.Uint64n(100); {
			case p < 70:
				k := classifierKey(rng)
				got.TLBMiss(k)
				want.miss(k)
			case p < 98:
				k := classifierKey(rng)
				got.TLBInvalidated(k)
				want.invalidated(k)
			default:
				got.Reset()
				want.reset()
			}
			if got.TLBCompulsory != want.compulsory || got.TLBCapacity != want.capacity ||
				got.TLBCoverageLoss != want.coverageLoss || got.TLBInvalidations != want.invalidations {
				t.Fatalf("seed %d step %d: flat (compulsory %d, capacity %d, coverage %d, invalidations %d) != map (%d, %d, %d, %d)",
					seed, step, got.TLBCompulsory, got.TLBCapacity, got.TLBCoverageLoss, got.TLBInvalidations,
					want.compulsory, want.capacity, want.coverageLoss, want.invalidations)
			}
		}
	}
}

// TestSnapshotCarriesNoClassifierState pins Snapshot's contract: the copy
// holds the counts but none of the classifier history, so later misses on
// the original leave it unchanged and it classifies every key afresh.
func TestSnapshotCarriesNoClassifierState(t *testing.T) {
	var c Counters
	keys := []uint64{0, 3, 150, dense.SparseBound - 1, dense.SparseBound, (uint64(1)<<62+5)<<1 | 1}
	for _, k := range keys {
		c.TLBMiss(k)
	}
	c.TLBInvalidated(3)
	snap := c.Snapshot()
	frozen := snap
	for _, k := range append(keys, 4096) { // 4096 grows the flat table
		c.TLBMiss(k)
	}
	if !reflect.DeepEqual(snap, frozen) {
		t.Fatalf("a miss on the original changed the snapshot: %+v, was %+v", snap, frozen)
	}
	for _, k := range keys {
		snap.TLBMiss(k)
	}
	if n := uint64(len(keys)); snap.TLBCompulsory != frozen.TLBCompulsory+n || snap.TLBCapacity != frozen.TLBCapacity {
		t.Fatalf("snapshot kept classifier history: compulsory %d capacity %d, want %d and %d",
			snap.TLBCompulsory, snap.TLBCapacity, frozen.TLBCompulsory+n, frozen.TLBCapacity)
	}
	capBefore := c.TLBCapacity
	c.TLBMiss(keys[0])
	if c.TLBCapacity != capBefore+1 {
		t.Fatalf("classifying on the snapshot disturbed the original's history")
	}
}
