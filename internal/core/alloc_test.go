package core

import (
	"testing"

	"addrxlat/internal/hashutil"
)

func mkParams(t testing.TB, kind AllocKind, P uint64) Params {
	t.Helper()
	p, err := DeriveParams(kind, P, P*16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkAllocators(t testing.TB, P uint64) []Allocator {
	t.Helper()
	var as []Allocator
	for _, kind := range []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc} {
		a, err := NewAllocator(mkParams(t, kind, P), 42)
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	return as
}

// TestAllocatorRoundTrip: Assign/Decode/PhysOf must agree, and Release must
// make room again — for every allocator kind.
func TestAllocatorRoundTrip(t *testing.T) {
	for _, a := range mkAllocators(t, 1<<16) {
		t.Run(a.Name(), func(t *testing.T) {
			assigned := map[uint64]uint64{} // v -> code
			var failures int
			for v := uint64(0); v < 1000; v++ {
				code, ok := a.Assign(v)
				if !ok {
					failures++
					continue
				}
				if code >= a.CodeBound() {
					t.Fatalf("code %d >= CodeBound %d", code, a.CodeBound())
				}
				assigned[v] = code
			}
			if failures > 0 {
				t.Fatalf("%d failures at %d/%d load — far below capacity", failures, 1000, 1<<16)
			}
			// Decode must reproduce PhysOf for every assigned page.
			for v, code := range assigned {
				phys, ok := a.PhysOf(v)
				if !ok {
					t.Fatalf("PhysOf(%d) lost the page", v)
				}
				if dec := a.Decode(v, code); dec != phys {
					t.Fatalf("Decode(%d,%d) = %d, PhysOf = %d", v, code, dec, phys)
				}
			}
			if a.Resident() != uint64(len(assigned)) {
				t.Fatalf("Resident = %d, want %d", a.Resident(), len(assigned))
			}
			// Release everything; allocator must drain to empty.
			for v := range assigned {
				a.Release(v)
			}
			if a.Resident() != 0 {
				t.Fatalf("Resident = %d after full release", a.Resident())
			}
		})
	}
}

// TestPhiInjective: φ must always be an injection (two resident pages never
// share a frame) — a hard requirement from Section 3.
func TestPhiInjective(t *testing.T) {
	for _, a := range mkAllocators(t, 1<<14) {
		t.Run(a.Name(), func(t *testing.T) {
			rng := hashutil.NewRNG(7)
			live := map[uint64]bool{}
			var next uint64
			for step := 0; step < 30000; step++ {
				if len(live) == 0 || rng.Float64() < 0.55 {
					v := next
					next++
					if _, ok := a.Assign(v); ok {
						live[v] = true
					}
				} else {
					for v := range live {
						a.Release(v)
						delete(live, v)
						break
					}
				}
			}
			frames := map[uint64]uint64{}
			for v := range live {
				phys, ok := a.PhysOf(v)
				if !ok {
					t.Fatalf("live page %d lost its frame", v)
				}
				if other, clash := frames[phys]; clash {
					t.Fatalf("pages %d and %d share frame %d — φ not injective", v, other, phys)
				}
				frames[phys] = v
			}
		})
	}
}

// TestPhiStable: a page's physical address must not change while resident.
func TestPhiStable(t *testing.T) {
	for _, a := range mkAllocators(t, 1<<14) {
		t.Run(a.Name(), func(t *testing.T) {
			phys := map[uint64]uint64{}
			for v := uint64(0); v < 500; v++ {
				if _, ok := a.Assign(v); ok {
					phys[v], _ = a.PhysOf(v)
				}
			}
			// Churn other pages.
			rng := hashutil.NewRNG(3)
			churn := map[uint64]bool{}
			for step := 0; step < 20000; step++ {
				v := 1000 + rng.Uint64n(2000)
				if churn[v] {
					a.Release(v)
					delete(churn, v)
				} else if _, ok := a.Assign(v); ok {
					churn[v] = true
				}
			}
			for v, want := range phys {
				got, ok := a.PhysOf(v)
				if !ok {
					t.Fatalf("page %d evaporated", v)
				}
				if got != want {
					t.Fatalf("page %d moved from frame %d to %d — φ not stable", v, want, got)
				}
			}
		})
	}
}

func TestDoubleAssignPanics(t *testing.T) {
	for _, a := range mkAllocators(t, 1<<12) {
		t.Run(a.Name(), func(t *testing.T) {
			if _, ok := a.Assign(1); !ok {
				t.Fatal("first assign failed")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("double Assign should panic")
				}
			}()
			a.Assign(1)
		})
	}
}

func TestReleaseUnassignedPanics(t *testing.T) {
	for _, a := range mkAllocators(t, 1<<12) {
		t.Run(a.Name(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Release of unassigned page should panic")
				}
			}()
			a.Release(99)
		})
	}
}

func TestFullAllocatorExhaustion(t *testing.T) {
	a := NewFullAllocator(4)
	for v := uint64(0); v < 4; v++ {
		if _, ok := a.Assign(v); !ok {
			t.Fatalf("assign %d failed with free frames", v)
		}
	}
	if _, ok := a.Assign(4); ok {
		t.Fatal("assign beyond P should fail")
	}
	a.Release(2)
	if _, ok := a.Assign(4); !ok {
		t.Fatal("assign after release should succeed")
	}
}

// TestSingleChoiceFailsWhenBucketFull: with k=1, filling a bucket must
// produce paging failures for further pages hashing there.
func TestSingleChoiceFailsWhenBucketFull(t *testing.T) {
	p := mkParams(t, SingleChoice, 1<<14)
	a, err := NewBucketAllocator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Find B+1 pages that hash to the same bucket.
	target := a.bucketOf(0)
	var sameBucket []uint64
	for v := uint64(0); len(sameBucket) <= p.B; v++ {
		if a.bucketOf(v) == target {
			sameBucket = append(sameBucket, v)
		}
	}
	for i, v := range sameBucket[:p.B] {
		if _, ok := a.Assign(v); !ok {
			t.Fatalf("assign %d (i=%d) failed before bucket full", v, i)
		}
	}
	if _, ok := a.Assign(sameBucket[p.B]); ok {
		t.Fatal("assign into a full bucket should fail")
	}
	if a.BucketLoad(target) != p.B {
		t.Fatalf("bucket load %d, want %d", a.BucketLoad(target), p.B)
	}
}

// TestIcebergSurvivesSingleBucketPressure: the same adversarial pattern
// that breaks k=1 is absorbed by Iceberg's backup choices.
func TestIcebergSurvivesSingleBucketPressure(t *testing.T) {
	p := mkParams(t, IcebergAlloc, 1<<14)
	a, err := NewIcebergAllocator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Pages whose front bucket is the same: they overflow into the backup
	// buckets rather than failing.
	target := a.fam.At(0, 0)
	var sameFront []uint64
	for v := uint64(0); len(sameFront) < 2*p.B; v++ {
		if a.fam.At(0, v) == target {
			sameFront = append(sameFront, v)
		}
	}
	for _, v := range sameFront {
		if _, ok := a.Assign(v); !ok {
			t.Fatalf("Iceberg failed on front-bucket pressure at page %d", v)
		}
	}
	if a.BackAssigns() == 0 {
		t.Fatal("expected some back-path assignments under front pressure")
	}
	if a.FrontAssigns()+a.BackAssigns() != uint64(len(sameFront)) {
		t.Fatal("assignment path counts don't sum")
	}
}

// TestIcebergDecodeBackPath: split agrees with dividing by B on every
// code, and pages placed on the back path (codes ≥ B, which light loads
// never produce) decode to an occupied slot of the bucket their choice
// names.
func TestIcebergDecodeBackPath(t *testing.T) {
	p := mkParams(t, IcebergAlloc, 1<<14)
	a, err := NewIcebergAllocator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	B := uint64(p.B)
	for code := uint64(0); code < a.CodeBound(); code++ {
		if choice, slot := a.split(code); uint64(choice) != code/B || slot != code%B {
			t.Fatalf("split(%d) = (%d, %d), want (%d, %d)", code, choice, slot, code/B, code%B)
		}
	}
	target := a.fam.At(0, 0)
	backCodes := 0
	for v := uint64(0); backCodes < 2*p.B; v++ {
		if a.fam.At(0, v) != target {
			continue
		}
		code, ok := a.Assign(v)
		if !ok {
			t.Fatalf("Iceberg failed on front-bucket pressure at page %d", v)
		}
		if code >= B {
			backCodes++
		}
		phys := a.Decode(v, code)
		bucket, slot := phys/B, phys%B
		if want := a.fam.At(int(code/B), v); bucket != want || slot != code%B {
			t.Fatalf("page %d code %d: decoded bucket %d slot %d, want bucket %d slot %d",
				v, code, bucket, slot, want, code%B)
		}
		if a.space.bitmap[bucket*uint64(a.space.wordsPer)+slot/64]&(1<<(slot%64)) == 0 {
			t.Fatalf("page %d decodes to free slot %d of bucket %d", v, slot, bucket)
		}
	}
}

// TestIcebergFrontThresholdRespected: front occupancy never exceeds the
// threshold.
func TestIcebergFrontThresholdRespected(t *testing.T) {
	p := mkParams(t, IcebergAlloc, 1<<14)
	a, err := NewIcebergAllocator(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < p.MaxResident; v++ {
		a.Assign(v)
	}
	for b := uint64(0); b < p.NumBuckets; b++ {
		if int(a.front[b]) > p.Threshold {
			t.Fatalf("bucket %d front load %d exceeds threshold %d", b, a.front[b], p.Threshold)
		}
		if a.BucketLoad(b) > p.B {
			t.Fatalf("bucket %d total load %d exceeds B=%d", b, a.BucketLoad(b), p.B)
		}
	}
}

// TestNoFailuresAtMaxResident is the headline Theorem 1/3 check: filling
// RAM to m = (1−δ)P pages must produce no paging failures, w.h.p. We run
// several seeds; all must be failure-free.
func TestNoFailuresAtMaxResident(t *testing.T) {
	for _, kind := range []AllocKind{SingleChoice, IcebergAlloc} {
		t.Run(string(kind), func(t *testing.T) {
			p := mkParams(t, kind, 1<<16)
			for seed := uint64(0); seed < 5; seed++ {
				a, err := NewAllocator(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				failures := 0
				for v := uint64(0); v < p.MaxResident; v++ {
					if _, ok := a.Assign(v); !ok {
						failures++
					}
				}
				if failures > 0 {
					t.Errorf("seed %d: %d paging failures filling to m=%d (δ=%.4f)",
						seed, failures, p.MaxResident, p.Delta)
				}
			}
		})
	}
}

// TestNoFailuresUnderChurn extends the fill test with deletion churn, the
// dynamic setting the schemes must survive.
func TestNoFailuresUnderChurn(t *testing.T) {
	for _, kind := range []AllocKind{SingleChoice, IcebergAlloc} {
		t.Run(string(kind), func(t *testing.T) {
			p := mkParams(t, kind, 1<<15)
			a, err := NewAllocator(p, 77)
			if err != nil {
				t.Fatal(err)
			}
			rng := hashutil.NewRNG(78)
			live := make([]uint64, 0, p.MaxResident)
			var next uint64
			for uint64(len(live)) < p.MaxResident {
				if _, ok := a.Assign(next); !ok {
					t.Fatalf("failure during initial fill at %d/%d", len(live), p.MaxResident)
				}
				live = append(live, next)
				next++
			}
			failures := 0
			for step := 0; step < 50000; step++ {
				i := rng.Intn(len(live))
				a.Release(live[i])
				live[i] = next
				if _, ok := a.Assign(next); !ok {
					failures++
					// put something back so the count stays constant
					live = append(live[:i], live[i+1:]...)
				}
				next++
			}
			if failures > 0 {
				t.Errorf("%d failures during churn at m=%d", failures, p.MaxResident)
			}
		})
	}
}

func TestNewAllocatorUnknownKind(t *testing.T) {
	if _, err := NewAllocator(Params{Kind: "bogus"}, 1); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestConstructorKindMismatch(t *testing.T) {
	pIce := mkParams(t, IcebergAlloc, 1<<12)
	if _, err := NewBucketAllocator(pIce, 1); err == nil {
		t.Error("BucketAllocator with iceberg params should error")
	}
	pSingle := mkParams(t, SingleChoice, 1<<12)
	if _, err := NewIcebergAllocator(pSingle, 1); err == nil {
		t.Error("IcebergAllocator with single params should error")
	}
}

func TestBucketSpaceDoubleFreePanics(t *testing.T) {
	s := newBucketSpace(2, 4)
	slot := s.takeSlot(0)
	s.freeSlot(0, slot)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	s.freeSlot(0, slot)
}

func TestBucketSpaceWideBuckets(t *testing.T) {
	// Buckets wider than 64 slots exercise multi-word bitmaps.
	s := newBucketSpace(1, 150)
	seen := map[int]bool{}
	for i := 0; i < 150; i++ {
		slot := s.takeSlot(0)
		if slot < 0 {
			t.Fatalf("slot %d: premature full", i)
		}
		if seen[slot] {
			t.Fatalf("slot %d handed out twice", slot)
		}
		seen[slot] = true
	}
	if s.takeSlot(0) != -1 {
		t.Fatal("bucket should be full at 150 slots")
	}
	s.freeSlot(0, 149)
	if got := s.takeSlot(0); got != 149 {
		t.Fatalf("expected freed slot 149 back, got %d", got)
	}
}

func BenchmarkAssignRelease(b *testing.B) {
	for _, kind := range []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc} {
		b.Run(string(kind), func(b *testing.B) {
			p, err := DeriveParams(kind, 1<<20, 1<<24, 64)
			if err != nil {
				b.Fatal(err)
			}
			a, err := NewAllocator(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			warm := p.MaxResident / 2
			for v := uint64(0); v < warm; v++ {
				a.Assign(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := warm + uint64(i)
				if _, ok := a.Assign(v); ok {
					a.Release(v)
				}
			}
		})
	}
}
