package experiments

import (
	"strings"
	"testing"
	"time"

	"addrxlat/internal/faultinject"
)

// TestWatchdogReclaimsStalledWorker is the sim-stall drill: one pipelined
// worker wedges mid-chunk (stall far longer than the watchdog timeout),
// and the watchdog must degrade exactly that cell to a footnoted error
// row while the rest of the row streams to completion — instead of the
// sweep hanging for the stall duration (or forever, for a real wedge).
func TestWatchdogReclaimsStalledWorker(t *testing.T) {
	defer faultinject.Disarm()
	prev := faultinject.StallDuration()
	faultinject.SetStallDuration(10 * time.Second)
	defer faultinject.SetStallDuration(prev)
	if err := faultinject.Arm("sim-stall=(h=4"); err != nil {
		t.Fatal(err)
	}

	// The watchdog timeout must sit far above the worst-case healthy chunk
	// time (milliseconds here, but ~20× slower under -race) and far below
	// the injected stall: 1s ≪ 10s keeps both margins wide.
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Watchdog: time.Second}
	start := time.Now()
	tab, err := Fig1(F1aBimodal, s, 7)
	elapsed := time.Since(start)
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("stalled cell must not fail the row: %v", err)
	}
	// The row must finish in watchdog time, not stall time.
	if elapsed > 5*time.Second {
		t.Fatalf("row took %v — watchdog did not reclaim the stalled worker", elapsed)
	}
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "stalled") || !strings.Contains(tab.Notes[0], "h=4") {
		t.Fatalf("expected one h=4 'stalled' footnote, got %v", tab.Notes)
	}
	errRows := 0
	for _, row := range tab.Rows {
		for _, cell := range row {
			if cell == "error" {
				errRows++
				break
			}
		}
	}
	if errRows != 1 {
		t.Fatalf("expected exactly 1 error row, got %d", errRows)
	}
}

// TestWatchdogQuiescentByteIdentical pins that an armed-but-idle watchdog
// changes nothing: it only observes wall time between chunk boundaries,
// so with no stall the tables are byte-identical to the unwatched run.
func TestWatchdogQuiescentByteIdentical(t *testing.T) {
	base := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4}
	clean, err := Fig1(F1aBimodal, base, 7)
	if err != nil {
		t.Fatal(err)
	}
	watched := base
	watched.Watchdog = 30 * time.Second
	got, err := Fig1(F1aBimodal, watched, 7)
	if err != nil {
		t.Fatal(err)
	}
	if renderTSV(t, got) != renderTSV(t, clean) {
		t.Fatalf("watchdog perturbed a stall-free run:\n%s\n---\n%s",
			renderTSV(t, got), renderTSV(t, clean))
	}
}

// TestWatchdogFromEnv covers the env-var plumbing CLIs arm the watchdog
// with.
func TestWatchdogFromEnv(t *testing.T) {
	for _, tc := range []struct {
		val  string
		want time.Duration
	}{
		{"", 0}, {"garbage", 0}, {"-5s", 0}, {"0", 0}, {"30s", 30 * time.Second}, {"1m30s", 90 * time.Second},
	} {
		t.Setenv(WatchdogEnvVar, tc.val)
		if got := WatchdogFromEnv(); got != tc.want {
			t.Errorf("WatchdogFromEnv(%q) = %v, want %v", tc.val, got, tc.want)
		}
	}
}
