package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

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
