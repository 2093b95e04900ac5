package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"addrxlat/internal/faultinject"
	"addrxlat/internal/prof"
	"addrxlat/internal/serve"
	"addrxlat/internal/xtrace"
)

// RunConfig is what a CLI invocation's Run needs from its flags.
// Manifest is the manifest directory, Files the directory of the
// experiments' side files and Trace the execution trace's path; each
// empty writes none. Carry holds the records of the experiments a
// resumed run carries forward.
type RunConfig struct {
	Command                string
	Seed                   uint64
	Profile                *prof.Flags
	Manifest, Files, Trace string
	Carry                  []RunRecord
}

// Run is one CLI invocation from start to exit. StartRun starts the
// profiles, arms the execution trace and writes the manifest as
// "running"; Begin and End observe and record each experiment; Exit
// ends the run on every path. A side file the run was asked for (an
// experiment's curves, attribution, serve windows or timeline, or the
// trace) that cannot be written fails the run. The manifest's first
// write is the check that the run can keep its record (and its -resume
// handle): if it fails, the process exits 1 before the run writes
// anything else. Later rewrites are best effort: one that fails is
// reported and never changes the run's outcome.
type Run struct {
	// Manifest is the run's record. Ctx is canceled by SIGINT or SIGTERM;
	// the row executor drains at the next chunk boundary.
	Manifest *Manifest
	Ctx      context.Context

	cfg    RunConfig
	stop   context.CancelFunc // stops catching the signals
	tracer *xtrace.Tracer
	trace  *Trace
	sweep  *xtrace.Thread // the run's own timeline: a span per experiment and one for the run
	cur    *Experiment    // the experiment in flight
}

// StartRun starts the invocation c describes. It writes the manifest
// first; one that cannot be written is reported once and exits 1
// before any profile, trace, table or side file exists. A profile that
// cannot be started fails the run at once.
func StartRun(c RunConfig) *Run {
	m := NewManifest(c.Command, os.Args[1:])
	m.Config, m.Seeds, m.FaultPlan = FlagConfig(nil), []uint64{c.Seed}, faultinject.Plan()
	m.Experiments = c.Carry
	// A SIGKILL leaves this "running" manifest behind as the resume handle.
	m.Status, m.Partial = "running", true
	if c.Manifest != "" {
		if _, err := m.Write(c.Manifest); err != nil {
			fmt.Fprintf(os.Stderr, "%s: manifest: %v\n", c.Command, err)
			os.Exit(1)
		}
	}
	r := &Run{Manifest: m, cfg: c}
	r.Ctx, r.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if c.Trace != "" {
		r.tracer = xtrace.New()
		r.trace = NewTrace(r.tracer)
		r.sweep = r.tracer.Thread("sweep")
	}
	if c.Profile != nil {
		if err := c.Profile.Start(); err != nil {
			r.Exit(err)
		}
	}
	return r
}

// Experiment is one experiment of a Run in flight. It runs observed by
// Rec, which forwards every event to the run's trace.
type Experiment struct {
	Rec *Recorder
	// Curves, when set, is where End writes the cost curves instead of
	// <Files>/<name>.curves.tsv.
	Curves string

	run   *Run
	label string
	start time.Time
	cpu0  float64
}

// Begin starts observing the experiment named label, sampling its cost
// curves every interval accesses (0 records none). The label names the
// experiment's span and its timeline reports, and the side files a
// canceled run leaves of it (<label>.partial.*).
func (r *Run) Begin(label string, interval uint64) *Experiment {
	x := &Experiment{Rec: NewRecorder(interval), run: r, label: label, start: time.Now()}
	x.Rec.SetTrace(r.trace)
	x.cpu0, _ = ReadUsage()
	r.cur = x
	return x
}

// End records the finished experiment. rr names it; End adds the wall
// and CPU time since Begin, the process's peak RSS and what Rec
// collected: the phase records, the attribution totals, the serve
// record of table rr.Table and the timeline reports. It writes the side
// files recorded under <Files>/<name>, then appends the record to the
// manifest and rewrites it, which marks the experiment finished for
// -resume.
func (x *Experiment) End(rr RunRecord, name string) (RunRecord, error) {
	x.close()
	cpu, maxRSS := ReadUsage()
	rr.WallSeconds, rr.CPUSeconds, rr.MaxRSSMiB = time.Since(x.start).Seconds(), cpu-x.cpu0, maxRSS
	rr.Phases = x.Rec.Phases()
	if x.Rec.HasExplain() {
		tot := x.Rec.ExplainTotals()
		rr.Explain = &tot
	}
	rr.Serve = x.Rec.ServeRecord(rr.Table)
	rr.Timeline = x.Rec.Timelines()
	for i := range rr.Timeline {
		rr.Timeline[i].Experiment = x.label
	}
	if err := x.writeFiles(name, x.Curves, rr); err != nil {
		return rr, err
	}
	x.run.Manifest.Experiments = append(x.run.Manifest.Experiments, rr)
	x.run.write()
	return rr, nil
}

// close ends the experiment's span on the run's timeline.
func (x *Experiment) close() {
	x.run.cur = nil
	x.run.sweep.Span(x.label, xtrace.CatExperiment, x.run.tracer.Stamp(x.start))
}

// writeFiles writes what the experiment recorded under <Files>/<name>:
// the cost curves (.curves.tsv, or the curves path when set), the
// attribution (.explain.tsv and .explain.json), rr's serve windows
// (.serve.metrics.tsv) and its timeline reports (.timeline.tsv).
func (x *Experiment) writeFiles(name, curves string, rr RunRecord) error {
	dir, rec := x.run.cfg.Files, x.Rec
	base := filepath.Join(dir, name)
	if curves == "" && dir != "" {
		curves = base + ".curves.tsv"
	}
	var err error
	put := func(want bool, path string, write func(io.Writer) error) {
		if want && err == nil {
			err = WriteFile(path, write)
		}
	}
	put(curves != "" && rec.HasSeries(), curves, rec.WriteTSV)
	put(dir != "" && rec.HasExplain(), base+".explain.tsv", rec.WriteExplainTSV)
	put(dir != "" && rec.HasExplain(), base+".explain.json", rec.WriteExplainJSON)
	put(dir != "" && rr.Serve != nil && rr.Serve.HasMetrics(), base+".serve.metrics.tsv",
		func(w io.Writer) error { return serve.WriteMetricsTSV(w, rr.Serve) })
	put(dir != "" && len(rr.Timeline) > 0, base+".timeline.tsv",
		func(w io.Writer) error { return WriteTimelineTSV(w, rr.Timeline) })
	return err
}

// Exit ends the run and the process: see Close.
func (r *Run) Exit(err error) {
	os.Exit(r.Close(err))
}

// Close ends the run and returns its exit code. A nil err ends it "ok"
// (0), an error wrapping context.Canceled "canceled" (130) and any
// other "failed" (1). On every path Close ends the span of the
// experiment in flight, writing its curves and attribution as
// <label>.partial.* if the run was canceled, stops the profiles and
// writes the trace; a profile or trace that cannot be written fails a
// run that was ok. The manifest names the trace once it is written.
func (r *Run) Close(err error) int {
	r.stop()
	canceled := errors.Is(err, context.Canceled)
	if x := r.cur; x != nil {
		x.close()
		if canceled {
			// Partial files never take the names a finished run's files take.
			r.warn(x.writeFiles(x.label+".partial", "", RunRecord{}))
		}
	}
	var profErr error
	if r.cfg.Profile != nil {
		profErr = r.cfg.Profile.Stop()
	}
	for _, e := range []error{profErr, r.writeTrace()} {
		if err == nil {
			err = e
		} else {
			r.warn(e)
		}
	}
	status, code := "ok", 0
	if canceled {
		status, code = "canceled", 130
	} else if err != nil {
		status, code = "failed", 1
	}
	m := r.Manifest
	m.Status, m.Partial = status, status != "ok"
	if err != nil {
		m.Error = err.Error()
	}
	m.Finish()
	if path := r.write(); path != "" {
		fmt.Fprintf(os.Stderr, "%s: wrote run manifest %s\n", r.cfg.Command, path)
	}
	r.warn(err)
	return code
}

// writeTrace ends the run's span and writes the trace, if one is armed.
// The row executor joins every goroutine that reports events before its
// row ends, so the trace is quiescent on every exit path.
func (r *Run) writeTrace() error {
	if r.tracer == nil {
		return nil
	}
	r.sweep.Span(r.cfg.Command, xtrace.CatSweep, 0) // the tracer started with the run
	if err := r.tracer.WriteFile(r.cfg.Trace); err != nil {
		return err
	}
	r.Manifest.Trace = r.cfg.Trace
	threads, events, _ := r.tracer.Stats()
	fmt.Fprintf(os.Stderr, "%s: wrote execution trace %s (%d timelines, %d events); load it at https://ui.perfetto.dev\n",
		r.cfg.Command, r.cfg.Trace, threads, events)
	return nil
}

// write rewrites the manifest, if the run keeps one, best effort, and
// returns its path ("" when none was written).
func (r *Run) write() string {
	if r.cfg.Manifest == "" {
		return ""
	}
	path, err := r.Manifest.Write(r.cfg.Manifest)
	if err != nil {
		r.warn(fmt.Errorf("manifest: %w", err))
	}
	return path
}

// warn reports err, if any, on stderr.
func (r *Run) warn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.cfg.Command, err)
	}
}
