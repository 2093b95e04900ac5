package tlb

import (
	"testing"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(0, policy.LRUKind, 1); err == nil {
		t.Error("entries=0 should error")
	}
	if _, err := New(4, "bogus", 1); err == nil {
		t.Error("bad policy kind should error")
	}
}

func TestLookupInsert(t *testing.T) {
	tl, err := New(2, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Lookup(1) {
		t.Fatal("empty TLB should miss")
	}
	tl.Insert(1)
	if !tl.Lookup(1) {
		t.Fatal("Lookup(1) missed after Insert(1)")
	}
	// Lookup(1) made 1 the most recent; Insert(2) puts 2 in front of it,
	// so Insert(3) evicts 1.
	tl.Insert(2)
	victim, evicted := tl.Insert(3)
	if !evicted || victim != 1 {
		t.Fatalf("Insert(3) victim = %d,%v want 1,true", victim, evicted)
	}
	if tl.Contains(1) || !tl.Contains(2) || !tl.Contains(3) {
		t.Fatalf("membership after eviction: 1=%v 2=%v 3=%v", tl.Contains(1), tl.Contains(2), tl.Contains(3))
	}
	if tl.Hits() != 1 || tl.Misses() != 1 {
		t.Fatalf("counters: hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

func TestContainsNoSideEffects(t *testing.T) {
	tl, _ := New(2, policy.LRUKind, 1)
	tl.Insert(1)
	tl.Insert(2)
	// Peeking at 1 must NOT refresh it; inserting 3 must still evict 1.
	if !tl.Contains(1) {
		t.Fatal("Contains(1) should find entry")
	}
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Fatal("Contains must not touch counters")
	}
	victim, _ := tl.Insert(3)
	if victim != 1 {
		t.Fatalf("victim = %d, want 1 (Contains must not refresh recency)", victim)
	}
}

func TestInvalidate(t *testing.T) {
	tl, _ := New(4, policy.LRUKind, 1)
	tl.Insert(1)
	if !tl.Invalidate(1) {
		t.Fatal("Invalidate of present key should report true")
	}
	if tl.Invalidate(1) {
		t.Fatal("second Invalidate should report false")
	}
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after invalidate", tl.Len())
	}
}

func TestResetCounters(t *testing.T) {
	tl, _ := New(4, policy.LRUKind, 1)
	tl.Lookup(1)
	tl.Insert(1)
	tl.Lookup(1)
	tl.ResetCounters()
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Fatal("counters not reset")
	}
}

// TestCapacityEnforced drives the TLB and an independent reference cache
// with one random stream: for the flat path, policy.NewLRU, the
// map-and-list LRU that DenseLRU is tested against; for every generic
// kind, the policy itself. Every lookup must agree on hit or miss, every
// insert on its victim, and the two key sets on membership.
func TestCapacityEnforced(t *testing.T) {
	const n, keys = 16, 100
	for _, kind := range policy.Kinds() {
		tl, err := New(n, kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tl.Flat() != (kind == policy.LRUKind) {
			t.Fatalf("%s: Flat() = %v", kind, tl.Flat())
		}
		var ref policy.Policy = policy.NewLRU(n)
		if kind != policy.LRUKind {
			if ref, err = policy.New(kind, n, 1); err != nil {
				t.Fatal(err)
			}
		}
		r := hashutil.NewRNG(2)
		for i := 0; i < 10000; i++ {
			u := r.Uint64n(keys)
			want := ref.Contains(u)
			if want {
				ref.Access(u) // a hit refreshes recency
			}
			if got := tl.Lookup(u); got != want {
				t.Fatalf("%s step %d: Lookup(%d) = %v, reference %v", kind, i, u, got, want)
			}
			if want {
				continue
			}
			_, rv := ref.Access(u)
			v, evicted := tl.Insert(u)
			if evicted != (rv != policy.NoEviction) || (evicted && v != rv) {
				t.Fatalf("%s step %d: Insert(%d) victim %d,%v, reference %d", kind, i, u, v, evicted, rv)
			}
			if tl.Len() > n || tl.Len() != ref.Len() {
				t.Fatalf("%s step %d: Len = %d, reference %d, capacity %d", kind, i, tl.Len(), ref.Len(), n)
			}
		}
		for u := uint64(0); u < keys; u++ {
			if tl.Contains(u) != ref.Contains(u) {
				t.Fatalf("%s: membership of key %d diverged", kind, u)
			}
		}
		if tl.Hits() == 0 || tl.Misses() == 0 {
			t.Fatalf("%s: counters never moved (h=%d m=%d)", kind, tl.Hits(), tl.Misses())
		}
	}
}

func TestHitRateConvergesForSmallWorkingSet(t *testing.T) {
	// Working set fits: after warmup, hit rate should be ~100%.
	tl, _ := New(64, policy.LRUKind, 1)
	r := hashutil.NewRNG(3)
	for i := 0; i < 1000; i++ {
		u := r.Uint64n(64)
		if !tl.Lookup(u) {
			tl.Insert(u)
		}
	}
	tl.ResetCounters()
	for i := 0; i < 10000; i++ {
		u := r.Uint64n(64)
		if !tl.Lookup(u) {
			tl.Insert(u)
		}
	}
	if tl.Misses() != 0 {
		t.Fatalf("misses = %d for fully-resident working set", tl.Misses())
	}
}

func BenchmarkLookupResident(b *testing.B) {
	tl, _ := New(1536, policy.LRUKind, 1)
	for u := uint64(0); u < 1536; u++ {
		tl.Insert(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(uint64(i) % 1536)
	}
}
