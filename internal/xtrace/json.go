package xtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// jsonEvent is one Chrome trace-event object. The format is the JSON
// Trace Event Format that chrome://tracing and Perfetto load: an object
// with {"traceEvents": [...]}; timestamps and durations in microseconds;
// "ph" selecting the event phase ("X" complete span, "i" instant, "C"
// counter, "M" metadata).
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonDoc is the exported document shape.
type jsonDoc struct {
	TraceEvents     []jsonEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// micros converts a tracer-relative nanosecond stamp to the format's
// microsecond scale. float64 holds nanosecond precision for runs up to
// ~104 days, so span containment survives the unit change.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// argsMap renders an event's annotations.
func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

// WriteJSON exports the whole trace as Chrome trace-event JSON. The
// tracer must be quiescent: every goroutine that records into it has
// returned (obs.Trace draws from events, and the row executor joins
// every goroutine that reports them before a row ends, so exporting
// after the run returns is always safe — including after an abort).
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("xtrace: nil tracer")
	}
	t.mu.Lock()
	threads := make([]*Thread, len(t.threads))
	copy(threads, t.threads)
	dropped := t.dropped
	t.mu.Unlock()

	const pid = 1
	doc := jsonDoc{DisplayTimeUnit: "ms"}
	doc.TraceEvents = append(doc.TraceEvents, jsonEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": "addrxlat"},
	})
	if dropped > 0 {
		doc.OtherData = map[string]any{"dropped_threads": dropped}
	}
	for _, th := range threads {
		doc.TraceEvents = append(doc.TraceEvents, jsonEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: th.tid,
			Args: map[string]any{"name": th.name},
		}, jsonEvent{
			// Keep the export's thread order stable in the UI.
			Name: "thread_sort_index", Ph: "M", PID: pid, TID: th.tid,
			Args: map[string]any{"sort_index": th.tid},
		})
	}
	for _, th := range threads {
		for _, e := range th.events {
			je := jsonEvent{
				Name: e.Name, Cat: e.Cat, TS: micros(e.TS),
				PID: pid, TID: th.tid, Args: argsMap(e.Args),
			}
			switch e.Ph {
			case 'X':
				je.Ph = "X"
				d := micros(e.Dur)
				je.Dur = &d
			case 'i':
				je.Ph = "i"
				je.S = "t"
			case 'C':
				je.Ph = "C"
			default:
				continue
			}
			doc.TraceEvents = append(doc.TraceEvents, je)
		}
	}
	// Deterministic-ish ordering (by time, then tid) keeps diffs of two
	// traces of the same run shape readable; viewers sort anyway.
	sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
		a, b := doc.TraceEvents[i], doc.TraceEvents[j]
		if a.Ph == "M" || b.Ph == "M" {
			return a.Ph == "M" && b.Ph != "M"
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.TID < b.TID
	})

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFile exports the trace to path (parent directory must exist).
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xtrace: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("xtrace: %w", err)
	}
	return nil
}

// Validate checks a trace-event JSON document (as exported by WriteJSON)
// against the schema the viewers rely on: required keys per phase,
// non-negative times, per (pid, tid) properly nested complete spans (any
// two spans are disjoint or one contains the other), and the serve
// request-lifecycle schema — queued/attempt/backoff spans contained in a
// serve-request span on their thread, governor trip/clear instants
// alternating per thread starting with a trip (a trailing unmatched trip
// is legal: the run ended degraded). It returns the number of complete
// spans checked. Shared by the unit tests and cmd/tracelint.
func Validate(data []byte) (spans int, err error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("xtrace: invalid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("xtrace: no traceEvents")
	}
	type span struct {
		name       string
		cat        string
		start, end float64
	}
	type govEvent struct {
		ts   float64
		trip bool
	}
	perThread := map[[2]int][]span{}
	govPerThread := map[[2]int][]govEvent{}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return 0, fmt.Errorf("xtrace: event %d: missing name", i)
		}
		switch e.Ph {
		case "M":
			if e.Args == nil {
				return 0, fmt.Errorf("xtrace: metadata event %d (%s): missing args", i, e.Name)
			}
			continue
		case "X", "i", "C":
		default:
			return 0, fmt.Errorf("xtrace: event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.TS == nil || *e.TS < 0 {
			return 0, fmt.Errorf("xtrace: event %d (%s): missing or negative ts", i, e.Name)
		}
		if e.PID == nil || e.TID == nil {
			return 0, fmt.Errorf("xtrace: event %d (%s): missing pid/tid", i, e.Name)
		}
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return 0, fmt.Errorf("xtrace: span %d (%s): missing or negative dur", i, e.Name)
			}
			key := [2]int{*e.PID, *e.TID}
			perThread[key] = append(perThread[key], span{e.Name, e.Cat, *e.TS, *e.TS + *e.Dur})
			spans++
		case "i":
			if e.Name == InstantGovTrip || e.Name == InstantGovClear {
				key := [2]int{*e.PID, *e.TID}
				govPerThread[key] = append(govPerThread[key], govEvent{*e.TS, e.Name == InstantGovTrip})
			}
		case "C":
			if len(e.Args) == 0 {
				return 0, fmt.Errorf("xtrace: counter %d (%s): no series args", i, e.Name)
			}
		}
	}
	// Nesting: per thread, sort by start (longer first on ties) and check
	// stack discipline with a nanosecond of float slack.
	const eps = 1e-3 // µs
	for key, spans := range perThread {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end+eps {
				return 0, fmt.Errorf(
					"xtrace: thread %v: span %q [%.3f, %.3f] overlaps %q [%.3f, %.3f] without nesting",
					key, s.name, s.start, s.end,
					stack[len(stack)-1].name, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
		// Serve request-lifecycle schema: every queued/attempt/backoff
		// span belongs to exactly one request; on a thread that means it
		// must lie inside some serve-request span.
		var reqs []span
		for _, s := range spans {
			if s.cat == CatServeRequest {
				reqs = append(reqs, s)
			}
		}
		for _, s := range spans {
			switch s.cat {
			case CatServeQueued, CatServeAttempt, CatServeBackoff:
				contained := false
				for _, r := range reqs {
					if s.start >= r.start-eps && s.end <= r.end+eps {
						contained = true
						break
					}
				}
				if !contained {
					return 0, fmt.Errorf(
						"xtrace: thread %v: %s span %q [%.3f, %.3f] lies outside every serve-request span",
						key, s.cat, s.name, s.start, s.end)
				}
			}
		}
	}
	// Governor instants: trips and clears alternate per thread, starting
	// with a trip. A trailing trip without a clear is legal.
	for key, evs := range govPerThread {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
		expectTrip := true
		for _, g := range evs {
			if g.trip != expectTrip {
				want, got := InstantGovClear, InstantGovTrip
				if expectTrip {
					want, got = InstantGovTrip, InstantGovClear
				}
				return 0, fmt.Errorf(
					"xtrace: thread %v: governor instants out of order at ts %.3f: want %q, got %q",
					key, g.ts, want, got)
			}
			expectTrip = !expectTrip
		}
	}
	return spans, nil
}
