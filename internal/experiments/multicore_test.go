package experiments

import "testing"

func TestMultiCoreStudy(t *testing.T) {
	t.Parallel()
	tab, err := MultiCoreStudy(Scale{}, 256, 1<<11, 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	prev := -1.0
	for _, row := range tab.Rows {
		rate := parse(t, row[3])
		if rate < prev-0.02 {
			t.Errorf("miss rate fell as cores grew: %v -> %v", prev, rate)
		}
		prev = rate
	}
	first := parse(t, tab.Rows[0][3])
	last := parse(t, tab.Rows[len(tab.Rows)-1][3])
	if last <= first {
		t.Errorf("splitting entries did not raise miss rate: %v -> %v", first, last)
	}
	if _, err := MultiCoreStudy(Scale{}, 0, 1, 1, 1); err == nil {
		t.Error("bad config should error")
	}
}
