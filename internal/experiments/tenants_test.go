package experiments

import "testing"

func TestTenantsContention(t *testing.T) {
	t.Parallel()
	tab, err := Tenants(Scale{}, 256, 512, 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Miss rate must be (weakly) increasing in the tenant count, and the
	// jump from 1 tenant (hot set fits nowhere near? 512 pages vs 256
	// entries) to 16 tenants must be substantial.
	prev := -1.0
	for _, row := range tab.Rows {
		rate := parse(t, row[2])
		if rate < prev-0.01 {
			t.Errorf("miss rate dropped: %v -> %v at %s tenants", prev, rate, row[0])
		}
		prev = rate
	}
	first := parse(t, tab.Rows[0][2])
	last := parse(t, tab.Rows[len(tab.Rows)-1][2])
	if last < first*1.3 {
		t.Errorf("contention too weak: %v -> %v", first, last)
	}
	if _, err := Tenants(Scale{}, 0, 1, 1, 1); err == nil {
		t.Error("bad config should error")
	}
}
