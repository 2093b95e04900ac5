package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"addrxlat/internal/event"
)

// TestStartHTTPServesCounters boots the expvar listener on a loopback
// port and asserts the "addrxlat."-prefixed counters appear at
// /debug/vars and advance as the sweep progresses — the contract the
// `figures -http` watch workflow depends on.
func TestStartHTTPServesCounters(t *testing.T) {
	p := NewProgress(io.Discard, "test", 3)
	addr, err := StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	fetch := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/vars: %s", resp.Status)
		}
		var vars map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			t.Fatal(err)
		}
		return vars
	}
	intVar := func(vars map[string]json.RawMessage, name string) int64 {
		t.Helper()
		raw, ok := vars[name]
		if !ok {
			t.Fatalf("expvar %q missing from /debug/vars", name)
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("expvar %q: %v", name, err)
		}
		return v
	}

	before := fetch()
	if got := intVar(before, "addrxlat.sweep_total"); got != 3 {
		t.Errorf("addrxlat.sweep_total = %d, want 3", got)
	}
	if got := intVar(before, "addrxlat.sweep_done"); got != 0 {
		t.Errorf("addrxlat.sweep_done = %d, want 0", got)
	}

	p.Start("unit-1")
	p.Finish("unit-1", 5*time.Millisecond, 2, 1)

	after := fetch()
	if got := intVar(after, "addrxlat.sweep_done"); got != 1 {
		t.Errorf("after Finish: addrxlat.sweep_done = %d, want 1", got)
	}
	if got := intVar(after, "addrxlat.cache_hits"); got != 2 {
		t.Errorf("after Finish: addrxlat.cache_hits = %d, want 2", got)
	}

	// The explain totals mirror shares the registry and prefix.
	var c Counters
	c.DemandIO()
	NewRecorder(0).Observe(event.Event{Kind: event.KindSample, Row: "r", Phase: "measured", Alg: "a", Explain: &c})
	mirrored := fetch()
	if got := intVar(mirrored, "addrxlat.explain_io_demand"); got != 1 {
		t.Errorf("addrxlat.explain_io_demand = %d, want 1", got)
	}
}
