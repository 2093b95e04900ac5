package experiments

import (
	"bytes"
	"testing"

	"addrxlat/internal/faultinject"
)

func serveTestScale(workers int) Scale {
	return Scale{SpaceDiv: 4096, AccessDiv: 10000, Workers: workers}
}

func renderServe(t *testing.T, f func(Scale, uint64) (*Table, error), s Scale, seed uint64) []byte {
	t.Helper()
	tbl, err := f(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Notes) != 0 {
		t.Fatalf("serve table has error footnotes: %v", tbl.Notes)
	}
	var buf bytes.Buffer
	if err := tbl.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeDeterministic pins both serve tables byte-identical across
// worker counts at seeds 1, 7, 42: every cell derives its seeds from its
// grid position, so execution order cannot leak into the tables.
func TestServeDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, f := range []struct {
			name string
			fn   func(Scale, uint64) (*Table, error)
		}{{ServeGoodputID, ServeGoodput}, {ServeLatencyID, ServeLatency}} {
			seq := renderServe(t, f.fn, serveTestScale(1), seed)
			par := renderServe(t, f.fn, serveTestScale(4), seed)
			if !bytes.Equal(seq, par) {
				t.Fatalf("seed %d: %s differs between -workers 1 and -workers 4:\n%s\n---\n%s",
					seed, f.name, seq, par)
			}
		}
	}
}

// TestServeOverloadBoundedSweep pins the robustness contract at the
// mandated ≥ 2× overload points: every such cell completes via
// deterministic shedding with bounded queue and event-heap memory, and
// the serve taxonomy sums exactly — admitted − completed is precisely the
// shed plus timed-out count.
func TestServeOverloadBoundedSweep(t *testing.T) {
	sp, err := buildServeSpec(ServeGoodputID, serveTestScale(4), 42)
	if err != nil {
		t.Fatal(err)
	}
	pts, cellErrs, err := serveSweep(sp, serveTestScale(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, cerr := range cellErrs {
		if cerr != nil {
			t.Fatalf("cell %d failed: %v", i, cerr)
		}
	}
	overloaded := 0
	for _, pt := range pts {
		c := pt.Counters
		if err := c.CheckIdentity(); err != nil {
			t.Fatalf("%s|load=%g: %v", pt.Alg, pt.Load, err)
		}
		if qcap := sp.rec.QueueCap; pt.MaxQueueDepth > qcap {
			t.Fatalf("%s|load=%g: queue depth %d exceeded cap %d", pt.Alg, pt.Load, pt.MaxQueueDepth, qcap)
		}
		if pt.MaxHeapLen > 4*sp.rec.QueueCap {
			t.Fatalf("%s|load=%g: event heap grew to %d", pt.Alg, pt.Load, pt.MaxHeapLen)
		}
		if pt.Load < 2 {
			continue
		}
		overloaded++
		if got, want := c.Admitted-c.Completed, c.Shed+c.TimedOutQueued+c.TimedOutServed; got != want {
			t.Fatalf("%s|load=%g: admitted-completed=%d but shed+timed_out=%d: %+v",
				pt.Alg, pt.Load, got, want, c)
		}
		if c.Shed+c.TimedOutQueued+c.TimedOutServed == 0 {
			t.Fatalf("%s|load=%g: overload cell shed nothing: %+v", pt.Alg, pt.Load, c)
		}
		if c.Completed == 0 {
			t.Fatalf("%s|load=%g: overload cell completed nothing: %+v", pt.Alg, pt.Load, c)
		}
	}
	if overloaded == 0 {
		t.Fatal("load grid contains no >=2x points")
	}
}

// TestServeBlobCache checks the cache contract: a second run is served
// entirely from the cache and reproduces the table byte-for-byte, the
// latency table shares the goodput table's cells (the key excludes the
// table id), and a planned serve-burst fault bypasses the cache in both
// directions.
func TestServeBlobCache(t *testing.T) {
	cache := newMemCache()
	s := serveTestScale(2)
	s.Cache = cache
	cold := renderServe(t, ServeGoodput, s, 7)
	if cache.puts == 0 {
		t.Fatal("cold run stored no entries")
	}
	putsAfterCold := cache.puts
	warm := renderServe(t, ServeGoodput, s, 7)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached rerun differs:\n%s\n---\n%s", cold, warm)
	}
	if cache.puts != putsAfterCold {
		t.Fatalf("warm run stored %d new entries, want 0", cache.puts-putsAfterCold)
	}
	// The latency projection reuses the same cells.
	hitsBefore := cache.hits
	renderServe(t, ServeLatency, s, 7)
	if cache.puts != putsAfterCold || cache.hits == hitsBefore {
		t.Fatalf("latency table did not reuse goodput cells: puts %d->%d, hits %d->%d",
			putsAfterCold, cache.puts, hitsBefore, cache.hits)
	}

	// With a serve-burst rule planned the sweep must not touch the cache:
	// burst-perturbed points may not be stored, and clean points may not
	// mask the burst.
	if err := faultinject.Arm("serve-burst@1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	hits, puts := cache.hits, cache.puts
	burst, err := ServeGoodput(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != hits || cache.puts != puts {
		t.Fatalf("serve-burst run touched the cache: hits %d->%d puts %d->%d",
			hits, cache.hits, puts, cache.puts)
	}
	var buf bytes.Buffer
	if err := burst.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), cold) {
		t.Fatal("serve-burst run produced the clean table")
	}
}
