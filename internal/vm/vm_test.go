package vm

import (
	"errors"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/mm"
)

func mkAlgo(t testing.TB) mm.Algorithm {
	t.Helper()
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 14,
		VirtualPages: 1 << 18,
		TLBEntries:   64,
		ValueBits:    64,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, mkAlgo(t)); err == nil {
		t.Error("vPages=0 should error")
	}
	if _, err := New(100, nil); err == nil {
		t.Error("nil algo should error")
	}
}

func TestMmapPlacement(t *testing.T) {
	as, err := New(1<<18, mkAlgo(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := as.Mmap(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Mmap(16)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two mappings at the same base")
	}
	if a%PageBytes != 0 || b%PageBytes != 0 {
		t.Fatal("unaligned mapping bases")
	}
	if as.Regions() != 2 || as.MappedPages() != 32 {
		t.Fatalf("regions=%d pages=%d", as.Regions(), as.MappedPages())
	}
	if _, err := as.Mmap(0); err == nil {
		t.Error("zero-page mmap should error")
	}
}

func TestMmapFillsGaps(t *testing.T) {
	as, _ := New(64, mkAlgo(t))
	a, _ := as.Mmap(16)
	bAddr, _ := as.Mmap(16)
	c, _ := as.Mmap(16)
	d, _ := as.Mmap(16) // space now full
	if _, err := as.Mmap(1); err == nil {
		t.Fatal("full space should reject mmap")
	}
	// Free the second region; a 16-page mapping must fit again.
	if err := as.Munmap(bAddr); err != nil {
		t.Fatal(err)
	}
	e, err := as.Mmap(16)
	if err != nil {
		t.Fatalf("gap not reused: %v", err)
	}
	if e != bAddr {
		t.Fatalf("expected gap at %#x, got %#x", bAddr, e)
	}
	_ = a
	_ = c
	_ = d
}

func TestMunmapErrors(t *testing.T) {
	as, _ := New(1<<12, mkAlgo(t))
	base, _ := as.Mmap(4)
	if err := as.Munmap(base + 1); err == nil {
		t.Error("unaligned munmap should error")
	}
	if err := as.Munmap(base + PageBytes); err == nil {
		t.Error("munmap of non-base should error")
	}
	if err := as.Munmap(base); err != nil {
		t.Error(err)
	}
	if err := as.Munmap(base); err == nil {
		t.Error("double munmap should error")
	}
}

func TestSegfault(t *testing.T) {
	as, _ := New(1<<12, mkAlgo(t))
	base, _ := as.Mmap(4)
	if err := as.Access(base); err != nil {
		t.Fatalf("mapped access failed: %v", err)
	}
	err := as.Access(base + 4*PageBytes)
	var seg *ErrSegfault
	if !errors.As(err, &seg) {
		t.Fatalf("unmapped access returned %v, want segfault", err)
	}
	// Outside the whole space.
	if err := as.Access(1 << 40); err == nil {
		t.Fatal("out-of-space access should segfault")
	}
	// Segfault error message includes the address.
	if seg.Error() == "" {
		t.Fatal("empty segfault message")
	}
}

func TestDemandPaging(t *testing.T) {
	as, _ := New(1<<12, mkAlgo(t))
	base, _ := as.Mmap(8)
	if as.TouchedPages() != 0 {
		t.Fatal("pages touched before access")
	}
	for i := uint64(0); i < 8; i++ {
		if err := as.Access(base + i*PageBytes + 123); err != nil {
			t.Fatal(err)
		}
	}
	if as.TouchedPages() != 8 {
		t.Fatalf("touched = %d, want 8", as.TouchedPages())
	}
	if as.PageTable().Entries() != 8 {
		t.Fatalf("page table entries = %d, want 8", as.PageTable().Entries())
	}
	// Re-access: no new faults, but page-table walks happen.
	walks := as.PageTable().Walks()
	as.Access(base)
	if as.PageTable().Walks() != walks+1 {
		t.Fatal("re-access did not walk the page table")
	}
	if as.TouchedPages() != 8 {
		t.Fatal("re-access changed touched count")
	}
	// Costs flowed through to the algorithm.
	if as.Costs().Accesses != 9 {
		t.Fatalf("algorithm saw %d accesses, want 9", as.Costs().Accesses)
	}
}

func TestMunmapClearsPageTable(t *testing.T) {
	as, _ := New(1<<12, mkAlgo(t))
	base, _ := as.Mmap(4)
	as.Access(base)
	as.Access(base + PageBytes)
	if err := as.Munmap(base); err != nil {
		t.Fatal(err)
	}
	if as.PageTable().Entries() != 0 {
		t.Fatalf("page table entries = %d after munmap", as.PageTable().Entries())
	}
	if as.TouchedPages() != 0 {
		t.Fatal("touched pages survive munmap")
	}
	// The region can be mapped and used again.
	base2, err := as.Mmap(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Access(base2); err != nil {
		t.Fatal(err)
	}
}

func TestAccessRange(t *testing.T) {
	as, _ := New(1<<12, mkAlgo(t))
	base, _ := as.Mmap(16)
	// 3 pages spanned: offset 100 within page 0 through page 2.
	if err := as.AccessRange(base+100, 2*PageBytes); err != nil {
		t.Fatal(err)
	}
	if as.TouchedPages() != 3 {
		t.Fatalf("touched = %d, want 3", as.TouchedPages())
	}
	if err := as.AccessRange(base, 0); err != nil {
		t.Fatal("zero-length range should be a no-op")
	}
	if err := as.AccessRange(base+15*PageBytes, 2*PageBytes); err == nil {
		t.Fatal("range crossing the region end should segfault")
	}
}

func TestChurningRegions(t *testing.T) {
	// Map/unmap churn with interleaved accesses: the region set, page
	// table and touched set must stay consistent throughout.
	as, _ := New(1<<14, mkAlgo(t))
	r := hashutil.NewRNG(5)
	type live struct {
		base  uint64
		pages uint64
	}
	var regions []live
	for step := 0; step < 2000; step++ {
		switch {
		case len(regions) == 0 || (len(regions) < 16 && r.Float64() < 0.4):
			pages := 1 + r.Uint64n(64)
			base, err := as.Mmap(pages)
			if err == nil {
				regions = append(regions, live{base, pages})
			}
		case r.Float64() < 0.3:
			i := r.Intn(len(regions))
			if err := as.Munmap(regions[i].base); err != nil {
				t.Fatalf("step %d: munmap: %v", step, err)
			}
			regions = append(regions[:i], regions[i+1:]...)
		default:
			i := r.Intn(len(regions))
			off := r.Uint64n(regions[i].pages) * PageBytes
			if err := as.Access(regions[i].base + off); err != nil {
				t.Fatalf("step %d: access: %v", step, err)
			}
		}
		var want uint64
		for _, l := range regions {
			want += l.pages
		}
		if as.MappedPages() != want {
			t.Fatalf("step %d: mapped=%d want %d", step, as.MappedPages(), want)
		}
		if as.TouchedPages() != as.PageTable().Entries() {
			t.Fatalf("step %d: touched=%d pt=%d", step, as.TouchedPages(), as.PageTable().Entries())
		}
	}
}

// batchAddrs draws n byte addresses inside [base, base+pages·PageBytes),
// skewed toward a hot prefix so the batch mixes TLB/RAM hits and misses.
func batchAddrs(base, pages uint64, n int, seed uint64) []uint64 {
	r := hashutil.NewRNG(seed)
	addrs := make([]uint64, n)
	for i := range addrs {
		p := r.Uint64n(pages)
		if r.Uint64n(4) != 0 {
			p = r.Uint64n(pages / 16)
		}
		addrs[i] = base + p*PageBytes + r.Uint64n(PageBytes)
	}
	return addrs
}

// TestAccessBatchMatchesAccess pins the batch path against the scalar
// one: servicing a slice of addresses through AccessBatch charges the
// same Costs, and demand-faults the same pages, as an Access loop.
func TestAccessBatchMatchesAccess(t *testing.T) {
	scalar, _ := New(1<<16, mkAlgo(t))
	batch, _ := New(1<<16, mkAlgo(t))
	sBase, _ := scalar.Mmap(1 << 15)
	bBase, _ := batch.Mmap(1 << 15)
	if sBase != bBase {
		t.Fatalf("identical spaces mapped at %#x and %#x", sBase, bBase)
	}
	addrs := batchAddrs(sBase, 1<<15, 50000, 3)
	for _, a := range addrs {
		if err := scalar.Access(a); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < len(addrs); lo += 4096 {
		if err := batch.AccessBatch(addrs[lo:min(lo+4096, len(addrs))]); err != nil {
			t.Fatal(err)
		}
	}
	if s, b := scalar.Costs(), batch.Costs(); s != b {
		t.Fatalf("AccessBatch charged %v, Access loop %v", b, s)
	}
	if s, b := scalar.TouchedPages(), batch.TouchedPages(); s != b {
		t.Fatalf("AccessBatch faulted %d pages, Access loop %d", b, s)
	}
}

// TestAccessBatchSegfaultMidBatch pins the partial-batch contract: a
// segfault in the middle of a batch charges exactly the accesses before
// it and returns the segfault; the addresses after it are abandoned.
func TestAccessBatchSegfaultMidBatch(t *testing.T) {
	ref, _ := New(1<<12, mkAlgo(t))
	as, _ := New(1<<12, mkAlgo(t))
	base, _ := as.Mmap(64)
	ref.Mmap(64)
	addrs := batchAddrs(base, 64, 100, 5)
	bad := base + 64*PageBytes // first page past the region
	batch := append(append(append([]uint64{}, addrs[:60]...), bad), addrs[60:]...)

	err := as.AccessBatch(batch)
	var seg *ErrSegfault
	if !errors.As(err, &seg) || seg.Addr != bad {
		t.Fatalf("AccessBatch returned %v, want a segfault at %#x", err, bad)
	}
	for _, a := range addrs[:60] {
		if err := ref.Access(a); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := as.Costs(), ref.Costs(); got != want {
		t.Fatalf("segfaulting batch charged %v, want the %d accesses before it: %v", got, 60, want)
	}
	if got := as.Costs().Accesses; got != 60 {
		t.Fatalf("charged %d accesses, want 60", got)
	}
}
