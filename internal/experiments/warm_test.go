package experiments

import (
	"strings"
	"sync"
	"testing"

	"addrxlat/internal/event"
	"addrxlat/internal/mm"
)

// warmupCosts keeps the last warm-up sample of every merged-LRU
// HugePage cell it observes. It has no ReadsWarmupCosts method, so the
// row executor takes it to read warm-up costs.
type warmupCosts struct {
	mu    sync.Mutex
	costs map[string]mm.Costs // row|alg → last warm-up sample
}

func (w *warmupCosts) Observe(e event.Event) {
	if e.Kind != event.KindSample || e.Phase != mm.PhaseWarmup ||
		!strings.HasPrefix(e.Alg, "hugepage(") || !strings.HasSuffix(e.Alg, ",lru/lru)") {
		return
	}
	w.mu.Lock()
	if w.costs == nil {
		w.costs = map[string]mm.Costs{}
	}
	w.costs[e.Row+"|"+e.Alg] = e.Costs
	w.mu.Unlock()
}

// skipsWarmupCosts is warmupCosts that says it does not read warm-up
// costs.
type skipsWarmupCosts struct{ warmupCosts }

func (*skipsWarmupCosts) ReadsWarmupCosts() bool { return false }

// TestWarmupByStateKeepsTables runs every registry entry that has an
// unarmed merged-LRU HugePage cell at seeds 1, 7 and 42, once with an
// observer that reads warm-up costs and once with one that does not,
// and requires equal tables. Such a cell is found by its warm-up samples
// among the entries that stream rows, since only the row executor warms
// by state. It also checks that the executor heeded each observer: with
// the first, every cell simulated its warm-up (some cell charged a
// cost); with the second, every cell was warmed by state (its last
// warm-up sample counts the same accesses and charges nothing).
func TestWarmupByStateKeepsTables(t *testing.T) {
	s := Scale{SpaceDiv: 1024, AccessDiv: 2000}
	ran := map[string]bool{}
	for _, e := range Registry() {
		if !streaming[e.ID] {
			continue
		}
		for _, seed := range []uint64{1, 7, 42} {
			reads := &warmupCosts{}
			rs := s
			rs.Observer = reads
			want, err := e.Run(rs, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.ID, seed, err)
			}
			if len(reads.costs) == 0 {
				break // no merged-LRU HugePage cell streams in this entry
			}
			ran[e.ID] = true
			skips := &skipsWarmupCosts{}
			ss := s
			ss.Observer = skips
			got, err := e.Run(ss, seed)
			if err != nil {
				t.Fatalf("%s seed %d (warm-up by state): %v", e.ID, seed, err)
			}
			if g, w := renderTSV(t, got), renderTSV(t, want); g != w {
				t.Errorf("%s seed %d: table warmed by state\n%s\nwarmed by simulation\n%s", e.ID, seed, g, w)
			}
			charged := false
			for cell, c := range reads.costs {
				charged = charged || c.IOs > 0 || c.TLBMisses > 0
				if sc := skips.costs[cell]; sc != (mm.Costs{Accesses: c.Accesses}) {
					t.Errorf("%s seed %d: %s's last warm-up sample %v when warmed by state; simulated it was %v",
						e.ID, seed, cell, sc, c)
				}
			}
			if !charged {
				t.Errorf("%s seed %d: no warm-up sample charged a cost though the observer reads them", e.ID, seed)
			}
		}
	}
	for _, id := range []string{"f1a", "f1b", "f1c", "x1"} {
		if !ran[id] {
			t.Errorf("%s has no merged-LRU HugePage warm-up samples", id)
		}
	}
	t.Logf("entries with merged-LRU HugePage cells: %v", ran)
}
