package experiments

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"addrxlat/internal/event"
)

// sampleCounter counts the sample events it observes; the row executor's
// workers call it concurrently.
type sampleCounter struct{ samples atomic.Int64 }

func (c *sampleCounter) Observe(e event.Event) {
	if e.Kind == event.KindSample {
		c.samples.Add(1)
	}
}

// TestRegistryPreCanceled: every registry entry runs its work through the
// Scale, so a context that is already canceled stops it before it
// simulates anything. Each entry returns an error wrapping
// context.Canceled and no table, and the observer sees no sample — except
// e2 and e2w, which are closed-form and return their tables.
func TestRegistryPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	closedForm := map[string]bool{"e2": true, "e2w": true}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate registry id %q", e.ID)
		}
		seen[e.ID] = true
		obs := &sampleCounter{}
		s := Scale{SpaceDiv: 4096, AccessDiv: 10000, Ctx: ctx, Observer: obs}
		tab, err := e.Run(s, 1)
		if closedForm[e.ID] {
			if err != nil || tab == nil {
				t.Errorf("%s: closed-form table: got %v, %v", e.ID, tab, err)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) || tab != nil {
			t.Errorf("%s: got table %v, error %v; want no table and context.Canceled", e.ID, tab != nil, err)
		}
		if n := obs.samples.Load(); n > 0 {
			t.Errorf("%s: observer saw %d samples from a canceled run", e.ID, n)
		}
	}
	if len(seen) != 23 {
		t.Errorf("registry has %d experiments, want 23", len(seen))
	}
}

// batchIntervals collects the wall-clock interval of every AccessBatch
// call the row executor reports: [At − Batch, At] of each chunk sample.
type batchIntervals struct {
	mu   sync.Mutex
	ivs  [][2]time.Time
	cell []string
}

func (b *batchIntervals) Observe(e event.Event) {
	if e.Kind != event.KindSample {
		return
	}
	b.mu.Lock()
	b.ivs = append(b.ivs, [2]time.Time{e.At.Add(-e.Batch), e.At})
	b.cell = append(b.cell, e.Row+"|"+e.Alg)
	b.mu.Unlock()
}

// overlap returns a description of the first two AccessBatch intervals
// that overlap in wall time, "" when they are pairwise disjoint.
func (b *batchIntervals) overlap() string {
	idx := make([]int, len(b.ivs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return b.ivs[idx[i]][0].Before(b.ivs[idx[j]][0]) })
	for k := 1; k < len(idx); k++ {
		prev, cur := idx[k-1], idx[k]
		if b.ivs[cur][0].Before(b.ivs[prev][1]) {
			return b.cell[prev] + " and " + b.cell[cur]
		}
	}
	return ""
}

// TestWorkersOneServesOneChunkAtATime: at Workers: 1 every registry entry
// that streams rows simulates one chunk at a time, across its rows as
// well as within them — no two AccessBatch calls overlap in wall time.
// The control shows the check can fail: f1a at four admission slots
// overlaps (it needs two CPUs to run two simulators at once).
func TestWorkersOneServesOneChunkAtATime(t *testing.T) {
	streaming := map[string]bool{
		"f1a": true, "f1b": true, "f1c": true, "t4": true, "e4": true, "e5": true, "e6": true,
		"e7": true, "e8": true, "e9": true, "e10": true, "h1": true, "x1": true,
	}
	ran := 0
	for _, e := range Registry() {
		if !streaming[e.ID] {
			continue
		}
		ran++
		b := &batchIntervals{}
		if _, err := e.Run(Scale{SpaceDiv: 4096, AccessDiv: 10000, Workers: 1, Observer: b}, 1); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(b.ivs) == 0 {
			t.Errorf("%s: no chunk samples: it streams no rows", e.ID)
		}
		if o := b.overlap(); o != "" {
			t.Errorf("%s at Workers: 1: AccessBatch calls of %s overlap", e.ID, o)
		}
	}
	if ran != len(streaming) {
		t.Fatalf("ran %d of the %d streaming entries: the registry changed", ran, len(streaming))
	}

	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("control needs two CPUs")
	}
	b := &batchIntervals{}
	if _, err := Fig1(F1aBimodal, Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Observer: b}, 1); err != nil {
		t.Fatal(err)
	}
	if b.overlap() == "" {
		t.Error("control: f1a at Workers: 4 reported no overlapping AccessBatch calls")
	}
}
