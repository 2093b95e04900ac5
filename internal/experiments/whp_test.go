package experiments

import "testing"

func TestFailureProbability(t *testing.T) {
	t.Parallel()
	tab, err := FailureProbability(Scale{}, []uint{12, 14}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 2 sizes × 2 kinds
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// At the derived geometry the failure fraction should be zero at
		// these sizes (the theorems' w.h.p. claim, observed empirically).
		if got := parse(t, row[5]); got != 0 {
			t.Errorf("P=%s kind=%s: %v seeds saw failures at the derived geometry",
				row[0], row[1], got)
		}
	}
	if _, err := FailureProbability(Scale{}, nil, 0); err == nil {
		t.Error("seeds=0 should error")
	}
	// Default logPs path.
	tab, err = FailureProbability(Scale{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("default rows = %d, want 8", len(tab.Rows))
	}
}
