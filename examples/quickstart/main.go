// Quickstart: build a huge-page decoupling scheme, page some pages in and
// out, and decode physical addresses from the compact w-bit TLB values —
// the paper's core machinery in ~50 lines.
package main

import (
	"fmt"
	"log"

	"addrxlat/internal/core"
)

func main() {
	// A machine with 1 Mi physical pages (4 GiB at 4 KiB/page), 16 Mi
	// virtual pages, and 64-bit TLB values — and the headline Iceberg
	// (Theorem 3) allocation scheme.
	params, err := core.DeriveParams(core.IcebergAlloc, 1<<20, 1<<24, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("derived decoupling parameters:")
	fmt.Println(" ", params)
	fmt.Printf("  => one TLB entry covers %d pages using %d bits per page code\n\n",
		params.HMax, params.BitsPerPage)

	scheme, err := core.NewScheme(params, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The RAM-replacement policy (here: us, by hand) pages in three pages
	// of huge page 0 and one page of huge page 7.
	h := uint64(params.HMax)
	pagesIn := []uint64{0, 1, 3, 7*h + 2}
	for _, v := range pagesIn {
		if ok := scheme.PageIn(v); !ok {
			log.Fatalf("paging failure on %d (w.h.p. impossible at this load)", v)
		}
	}

	// ψ(u) is hmax codes of BitsPerPage bits packed into machine words;
	// at w = 64 that is one word, and absent pages hold the sentinel code.
	fmt.Printf("ψ(0) = %#016x (a %d-word value: %d codes of %d bits)\n\n",
		scheme.Value(0)[0], len(scheme.Value(0)), params.HMax, params.BitsPerPage)

	// The TLB-decoding function f recovers φ(v) from (v, ψ(u)) alone.
	fmt.Println("decoding against live TLB values:")
	for _, v := range append(pagesIn, 2, 7*h+3) {
		u := params.HugePage(v)
		phys := scheme.LookupIn(v, scheme.Value(u))
		if phys == core.NullAddress {
			fmt.Printf("  f(v=%-9d, ψ(%d)) = -1        (not resident)\n", v, u)
		} else {
			fmt.Printf("  f(v=%-9d, ψ(%d)) = frame %-9d (bucket %d, slot %d)\n",
				v, u, phys, phys/uint64(params.B), phys%uint64(params.B))
		}
	}

	// Page one out; its slot in the TLB value becomes the absent sentinel.
	scheme.PageOut(1)
	fmt.Println("\nafter paging out v=1:")
	fmt.Printf("  f(v=1, ψ(0)) = %d (NullAddress)\n", int64(scheme.Lookup(1)))
	fmt.Printf("  resident pages: %d, paging failures so far: %d\n",
		scheme.Resident(), scheme.TotalFailures())
}
