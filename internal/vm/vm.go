// Package vm is the process-facing integration layer: a virtual address
// space with mmap/munmap region management and demand paging, driving a
// memory-management algorithm (the cost model) and a radix page table
// (the translation dictionary) together.
//
// It is the shape in which a downstream user consumes this library: create
// an AddressSpace over a machine configuration, map regions, and issue
// byte-addressed loads/stores; the space validates them, translates them
// to page accesses, charges them through the chosen memory-management
// algorithm, and keeps the page table's mapped set in sync.
package vm

import (
	"fmt"
	"sort"

	"addrxlat/internal/dense"
	"addrxlat/internal/mm"
	"addrxlat/internal/pagetable"
)

// PageBytes is the base page size (4 KiB, as in the paper's experiments).
const PageBytes = 4096

// ErrSegfault is returned for accesses outside any mapped region.
type ErrSegfault struct {
	Addr uint64
}

func (e *ErrSegfault) Error() string {
	return fmt.Sprintf("vm: segmentation fault at address %#x", e.Addr)
}

// region is a mapped interval of pages [start, start+pages).
type region struct {
	start uint64 // first page
	pages uint64
}

func (r region) end() uint64 { return r.start + r.pages }

// AddressSpace is a single process's virtual address space.
type AddressSpace struct {
	vPages  uint64
	regions []region // sorted by start, non-overlapping
	algo    mm.Algorithm
	pt      *pagetable.Table
	touched *dense.Bitset // pages that have been demand-mapped

	brk uint64 // bump allocator hint for Mmap placement
}

// New creates an address space of vPages pages whose accesses are charged
// to algo. A radix page table covering the space tracks which pages have
// been demand-faulted (its walk counters give the concrete work behind
// the model's ε).
func New(vPages uint64, algo mm.Algorithm) (*AddressSpace, error) {
	if vPages == 0 {
		return nil, fmt.Errorf("vm: vPages must be positive")
	}
	if algo == nil {
		return nil, fmt.Errorf("vm: nil algorithm")
	}
	return &AddressSpace{
		vPages:  vPages,
		algo:    algo,
		pt:      pagetable.New(vPages),
		touched: dense.NewBitset(0),
	}, nil
}

// findGap locates the index in regions where a region of `pages` pages can
// be placed at or after the hint, returning the chosen start page.
func (as *AddressSpace) findGap(pages uint64) (uint64, error) {
	// Try after the last region first (bump allocation), else first fit.
	start := as.brk
	for {
		i := sort.Search(len(as.regions), func(i int) bool {
			return as.regions[i].end() > start
		})
		if i == len(as.regions) {
			if start+pages <= as.vPages {
				return start, nil
			}
			break
		}
		if start+pages <= as.regions[i].start {
			return start, nil
		}
		start = as.regions[i].end()
	}
	// Wrap around: first fit from 0.
	if as.brk != 0 {
		as.brk = 0
		return as.findGap(pages)
	}
	return 0, fmt.Errorf("vm: no gap for %d pages in %d-page space", pages, as.vPages)
}

// Mmap maps a fresh region of the given page count and returns its base
// byte address.
func (as *AddressSpace) Mmap(pages uint64) (uint64, error) {
	if pages == 0 {
		return 0, fmt.Errorf("vm: cannot map zero pages")
	}
	start, err := as.findGap(pages)
	if err != nil {
		return 0, err
	}
	r := region{start: start, pages: pages}
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].start > start
	})
	as.regions = append(as.regions, region{})
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
	as.brk = r.end()
	return start * PageBytes, nil
}

// Munmap unmaps exactly one previously mapped region identified by its
// base byte address; partial unmaps are rejected (matching the simple
// region model, not full POSIX semantics).
func (as *AddressSpace) Munmap(base uint64) error {
	if base%PageBytes != 0 {
		return fmt.Errorf("vm: unaligned munmap base %#x", base)
	}
	start := base / PageBytes
	for i, r := range as.regions {
		if r.start == start {
			// Unmap faulted pages from the page table.
			for p := r.start; p < r.end(); p++ {
				if as.touched.Remove(p) {
					as.pt.Unmap(p)
				}
			}
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("vm: munmap of unmapped base %#x", base)
}

// regionOf returns the region containing page p, or nil.
func (as *AddressSpace) regionOf(p uint64) *region {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].end() > p
	})
	if i < len(as.regions) && as.regions[i].start <= p {
		return &as.regions[i]
	}
	return nil
}

// Access performs a byte-addressed load/store: it checks the address is
// mapped, demand-faults the page into the page table on first touch, and
// charges the access through the memory-management algorithm.
func (as *AddressSpace) Access(addr uint64) error {
	p, err := as.fault(addr)
	if err != nil {
		return err
	}
	as.algo.Access(p)
	return nil
}

// fault validates addr and runs the page-table side of an access,
// returning the page number to charge.
func (as *AddressSpace) fault(addr uint64) (uint64, error) {
	p := addr / PageBytes
	if p >= as.vPages {
		return 0, &ErrSegfault{Addr: addr}
	}
	if as.regionOf(p) == nil {
		return 0, &ErrSegfault{Addr: addr}
	}
	if as.touched.Add(p) {
		// Demand fault: install the translation. The physical frame is
		// owned by the algorithm's internal state; the page table stores
		// the page's identity mapping for walk accounting.
		as.pt.Map(p, p)
	} else {
		as.pt.Translate(p)
	}
	return p, nil
}

// AccessBatch services a slice of byte addresses in order, charging the
// algorithm through its batch path. On a segfault the preceding accesses
// remain charged and the rest are abandoned, exactly as the equivalent
// Access loop would behave.
func (as *AddressSpace) AccessBatch(addrs []uint64) error {
	pages := make([]uint64, 0, len(addrs))
	for _, addr := range addrs {
		p, err := as.fault(addr)
		if err != nil {
			as.algo.AccessBatch(pages)
			return err
		}
		pages = append(pages, p)
	}
	as.algo.AccessBatch(pages)
	return nil
}

// AccessRange touches every page in [addr, addr+bytes), in order — the
// common memcpy/scan pattern.
func (as *AddressSpace) AccessRange(addr, bytes uint64) error {
	if bytes == 0 {
		return nil
	}
	first := addr / PageBytes
	last := (addr + bytes - 1) / PageBytes
	for p := first; p <= last; p++ {
		if err := as.Access(p * PageBytes); err != nil {
			return err
		}
	}
	return nil
}

// Costs returns the algorithm's cost counters.
func (as *AddressSpace) Costs() mm.Costs { return as.algo.Costs() }

// MappedPages returns the total pages across mapped regions.
func (as *AddressSpace) MappedPages() uint64 {
	var n uint64
	for _, r := range as.regions {
		n += r.pages
	}
	return n
}

// TouchedPages returns how many pages have been demand-faulted.
func (as *AddressSpace) TouchedPages() uint64 { return uint64(as.touched.Len()) }

// Regions returns the number of mapped regions.
func (as *AddressSpace) Regions() int { return len(as.regions) }

// PageTable exposes the underlying page table (walk counters etc.).
func (as *AddressSpace) PageTable() *pagetable.Table { return as.pt }
