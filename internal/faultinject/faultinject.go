// Package faultinject arms deliberate failures at named points in the
// sweep stack, so the recovery paths (cell quarantine, kill-and-resume,
// corrupt-trace rejection) can be proven by tests and smoke jobs instead
// of waiting for production to exercise them.
//
// It is off by default and designed to vanish when disarmed: every hook
// site guards with Armed(), a single atomic load, before doing any work —
// the hot paths (chunk loops, cache writes) pay one predictable branch.
// Hooks only ever live at chunk/row/IO granularity, never inside the
// per-access loop.
//
// A fault plan is a comma-separated list of rules:
//
//	point[=match][@n]
//
// where point is one of the Point constants, match is a substring the
// hook's key must contain (empty matches everything), and @n restricts
// the rule to the n-th matching hit (1-based; without @n every matching
// hit fires). Examples:
//
//	cell-panic=hugepage(h=64          panic the h=64 cell of every row
//	sweep-kill=f1a@3                  kill the process at f1a's 3rd chunk
//	cache-truncate                    truncate every result-cache write
//	trace-corrupt@1                   corrupt the first trace written
//
// Processes arm the plan from the ADDRXLAT_FAULTS environment variable
// (ArmFromEnv, called by the CLIs); tests arm programmatically with Arm
// and must Disarm when done.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The fault points the sweep stack exposes.
const (
	// CellPanic panics one simulator's task inside a streaming row; the
	// key is "row|simname". Proves per-cell quarantine: the poisoned
	// parameter point must become a table footnote, not a dead sweep.
	CellPanic = "cell-panic"
	// SweepKill terminates the process (exit code 137, like SIGKILL) at a
	// chunk boundary of a streaming row; the key is the row name. Proves
	// checkpoint/resume: nothing is flushed, exactly like a real kill.
	SweepKill = "sweep-kill"
	// CacheTruncate truncates a result-cache entry as it is written; the
	// key is the cell key. Proves corruption quarantine on read-back.
	CacheTruncate = "cache-truncate"
	// TraceCorrupt flips a byte of a trace stream as it is encoded; the
	// key is empty. Proves the replay CRC rejects silent corruption.
	TraceCorrupt = "trace-corrupt"
	// ServeBurst injects an arrival burst into the discrete-event serving
	// loop: from the firing arrival on, a run of back-to-back requests
	// lands at 1 ns spacing. The key is the serve cell key
	// ("table|alg|load"). Proves the admission/shedding path absorbs a
	// spike without unbounded queue growth. Note this fault changes
	// results by design, so the serve sweep refuses to read or write its
	// result cache while a serve-burst rule is planned.
	ServeBurst = "serve-burst"
	// SimStall wedges one simulator worker inside a streaming row for
	// StallDuration (default 2s); the key is "row|simname". Proves the
	// ADDRXLAT_WATCHDOG monitor converts a hung worker into a footnoted
	// error row instead of a wedged sweep.
	SimStall = "sim-stall"
)

// EnvVar is the environment variable ArmFromEnv reads the plan from.
const EnvVar = "ADDRXLAT_FAULTS"

// KillExitCode is the exit code Kill terminates with — 137, the shell's
// code for SIGKILL, so smoke jobs can assert the crash looked real.
const KillExitCode = 137

type rule struct {
	point string
	match string
	nth   int64 // 0 = every matching hit
	hits  atomic.Int64
}

var (
	armed atomic.Bool
	mu    sync.Mutex
	rules []*rule
	plan  string
)

// Armed reports whether any fault plan is active. It is the only call
// allowed on hot-ish paths: one atomic load, false for every production
// run.
func Armed() bool { return armed.Load() }

// Arm installs a fault plan, replacing any previous one. A blank spec
// disarms; a rejected one (an unknown point, a bad @n, only commas)
// leaves the previous plan in place.
func Arm(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disarm()
		return nil
	}
	var rs []*rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r := &rule{}
		if at := strings.LastIndex(part, "@"); at >= 0 {
			n, err := strconv.ParseInt(part[at+1:], 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: bad hit index in rule %q", part)
			}
			r.nth = n
			part = part[:at]
		}
		if eq := strings.Index(part, "="); eq >= 0 {
			r.point, r.match = part[:eq], part[eq+1:]
		} else {
			r.point = part
		}
		switch r.point {
		case CellPanic, SweepKill, CacheTruncate, TraceCorrupt, ServeBurst, SimStall:
		default:
			return fmt.Errorf("faultinject: unknown fault point %q", r.point)
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return fmt.Errorf("faultinject: plan %q has no rules", spec)
	}
	mu.Lock()
	rules = rs
	plan = spec
	mu.Unlock()
	armed.Store(true)
	return nil
}

// Plan returns the armed fault-plan spec, or "" when disarmed — the
// string the run manifest records so fault-injected output is traceable.
func Plan() string {
	mu.Lock()
	defer mu.Unlock()
	return plan
}

// ArmFromEnv arms the plan in $ADDRXLAT_FAULTS, if set. CLIs call it once
// at startup; library code never reads the environment on its own.
func ArmFromEnv() error { return Arm(os.Getenv(EnvVar)) }

// Disarm removes the fault plan; Armed and Fire return false afterwards.
func Disarm() {
	armed.Store(false)
	mu.Lock()
	rules = nil
	plan = ""
	mu.Unlock()
}

// Planned reports whether the armed plan contains any rule for point,
// regardless of match strings or hit budgets. Result-changing faults
// (serve-burst) use it to disable result caching for the whole run: a
// rule that has not fired yet could still fire, so any cell computed or
// read while the rule is planned is suspect.
func Planned(point string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range rules {
		if r.point == point {
			return true
		}
	}
	return false
}

// stallNs is the sim-stall wedge duration in nanoseconds (atomic so smoke
// tests can shrink it without racing the worker that sleeps on it).
var stallNs atomic.Int64

// StallDuration returns how long a fired sim-stall wedges its worker
// (default 2s).
func StallDuration() time.Duration {
	if d := stallNs.Load(); d > 0 {
		return time.Duration(d)
	}
	return 2 * time.Second
}

// SetStallDuration overrides the sim-stall wedge duration; d <= 0 restores
// the default. Tests use it to keep watchdog drills fast.
func SetStallDuration(d time.Duration) { stallNs.Store(int64(d)) }

// Fire reports whether a fault armed at point should trigger for key.
// Callers must guard with Armed() first; Fire itself is concurrency-safe
// (sweep workers hit it in parallel) but takes a lock, which Armed keeps
// off the disarmed path.
func Fire(point, key string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range rules {
		if r.point != point || !strings.Contains(key, r.match) {
			continue
		}
		n := r.hits.Add(1)
		if r.nth == 0 || n == r.nth {
			return true
		}
	}
	return false
}

// Kill terminates the process with KillExitCode, printing where the
// armed kill struck. Nothing is flushed — that is the point: the process
// dies exactly as abruptly as a SIGKILL, so resume paths are tested
// against a worst-case crash.
func Kill(where string) {
	fmt.Fprintf(os.Stderr, "faultinject: sweep-kill at %s\n", where)
	os.Exit(KillExitCode)
}
