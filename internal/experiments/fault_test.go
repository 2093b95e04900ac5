package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"addrxlat/internal/event"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/mm"
)

// cancelObserver cancels a sweep context the first time a sample of the
// given phase arrives (any phase when phase is empty) — the deterministic
// stand-in for a SIGINT arriving mid-sweep.
type cancelObserver struct {
	phase  string
	once   sync.Once
	cancel context.CancelFunc
}

func (o *cancelObserver) Observe(e event.Event) {
	if e.Kind == event.KindSample && (o.phase == "" || e.Phase == o.phase) {
		o.once.Do(o.cancel)
	}
}

// TestSweepCancellation cancels the context from inside the first chunk
// and verifies the row driver drains at a chunk boundary with an error
// wrapping context.Canceled.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000, Ctx: ctx, Observer: &cancelObserver{cancel: cancel}}
	tab, err := Fig1(F1aBimodal, s, 7)
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if tab != nil {
		t.Fatal("canceled sweep returned a table")
	}
}

// TestPreCanceledSweep verifies a sweep whose context is already done
// stops before simulating anything.
func TestPreCanceledSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000, Ctx: ctx}
	if _, err := Fig1(F1aBimodal, s, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPoisonedCellFootnote injects a panic into a single parameter point
// of the Figure 1 sweep and verifies the rest of the table completes:
// the poisoned cell renders as an "error" row with a footnote, every
// other row matches the clean run, and the poisoned cell never enters
// the result cache.
func TestPoisonedCellFootnote(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}
	clean, err := Fig1(F1aBimodal, s, 7)
	if err != nil {
		t.Fatal(err)
	}

	defer faultinject.Disarm()
	if err := faultinject.Arm("cell-panic=(h=4"); err != nil {
		t.Fatal(err)
	}
	cache := &memCache{m: make(map[string]mm.Costs)}
	s.Cache = cache
	tab, err := Fig1(F1aBimodal, s, 7)
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("one poisoned cell failed the whole sweep: %v", err)
	}
	if len(tab.Rows) != len(clean.Rows) {
		t.Fatalf("poisoned run has %d rows, clean %d", len(tab.Rows), len(clean.Rows))
	}
	errorRows := 0
	for i, row := range tab.Rows {
		if row[1] == "error" {
			errorRows++
			if row[0] != "4" {
				t.Errorf("row h=%s poisoned, want h=4", row[0])
			}
			continue
		}
		if got, want := strings.Join(row, "\t"), strings.Join(clean.Rows[i], "\t"); got != want {
			t.Errorf("row %d differs from clean run:\n got %s\nwant %s", i, got, want)
		}
	}
	if errorRows != 1 {
		t.Fatalf("%d error rows, want exactly 1", errorRows)
	}
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "h=4") {
		t.Fatalf("notes = %q, want one footnote naming h=4", tab.Notes)
	}
	cleanCells := len(clean.Rows) // every h is a valid cell at this scale
	if len(cache.m) != cleanCells-1 {
		t.Fatalf("cache holds %d cells, want %d (poisoned cell must not be cached)",
			len(cache.m), cleanCells-1)
	}

	// The footnote survives into the rendered TSV, after the rows.
	tsv := renderTSV(t, tab)
	if !strings.Contains(tsv, "\n# note: ") {
		t.Fatalf("rendered TSV carries no footnote:\n%s", tsv)
	}
}

// TestCancelThenResumeByteIdentical is the in-process half of the
// kill-and-resume story: a canceled run leaves the result cache clean
// (no partially-simulated cells), and a rerun against the same cache
// produces a table byte-identical to a never-interrupted run.
func TestCancelThenResumeByteIdentical(t *testing.T) {
	ref, err := Fig1(F1aBimodal, Scale{SpaceDiv: 4096, AccessDiv: 10000}, 7)
	if err != nil {
		t.Fatal(err)
	}

	cache := &memCache{m: make(map[string]mm.Costs)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000, Cache: cache,
		Ctx: ctx, Observer: &cancelObserver{cancel: cancel}}
	if _, err := Fig1(F1aBimodal, s, 7); err == nil {
		t.Fatal("canceled run returned no error")
	}
	for key := range cache.m {
		t.Fatalf("canceled run cached cell %q; interrupted rows must not be cached", key)
	}

	s = Scale{SpaceDiv: 4096, AccessDiv: 10000, Cache: cache}
	resumed, err := Fig1(F1aBimodal, s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTSV(t, resumed), renderTSV(t, ref); got != want {
		t.Errorf("resumed table differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
}
