package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"addrxlat/internal/serve"
)

// PhaseRecord is one phase in a run manifest — a streamed row's warmup or
// measured window, or one serve cell — with the row it belongs to, the
// algorithm (serve cells only; a row's simulators share its windows),
// how many accesses or requests it served, and how long it took.
type PhaseRecord struct {
	Row         string  `json:"row,omitempty"`
	Phase       string  `json:"phase"`
	Alg         string  `json:"alg,omitempty"`
	Accesses    int     `json:"accesses"`
	WallSeconds float64 `json:"wall_seconds"`
}

// CacheStats summarizes result-cache traffic for a manifest. Corrupt
// counts entries that failed verification on read and were quarantined
// (see resultcache).
type CacheStats struct {
	Dir     string `json:"dir,omitempty"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt,omitempty"`
}

// RunRecord is one experiment (or standalone simulation) in a manifest.
// Skipped marks a record a resumed run carried forward from the manifest
// it resumed: the experiment finished in an earlier run, whose numbers
// the record keeps, and was not re-executed.
type RunRecord struct {
	ID          string        `json:"id"`
	Table       string        `json:"table,omitempty"`
	Rows        int           `json:"rows,omitempty"`
	WallSeconds float64       `json:"wall_seconds"`
	CacheHits   uint64        `json:"cache_hits,omitempty"`
	CacheMisses uint64        `json:"cache_misses,omitempty"`
	Skipped     bool          `json:"skipped,omitempty"`
	Phases      []PhaseRecord `json:"phases,omitempty"`
	// Explain summarizes the experiment's cost attribution (summed across
	// rows, phases and algorithms) when the run recorded it (-explain).
	Explain *Counters `json:"explain,omitempty"`
	// Timeline holds the per-row straggler / chunk-latency reports built
	// from the run's events when it drew an execution trace (-trace). The
	// numbers are wall-clock measurements: useful for diagnosis,
	// reproducible in shape but not in value.
	Timeline []RowReport `json:"timeline,omitempty"`
	// Serve holds the serving sweep's full record — offered-load grid,
	// admission and governor configuration, and every point's serve-counter
	// taxonomy — when the experiment is one of the serving tables. The
	// offered loads and governor knobs in here are what makes a serve table
	// auditable and reproducible from its manifest alone.
	Serve *serve.SweepRecord `json:"serve,omitempty"`
}

// Manifest records everything needed to reproduce and audit one CLI
// invocation. Every cmd/figures and cmd/atsim run writes one to the
// results directory, so each emitted TSV can be traced back to the exact
// configuration, code revision, and cache state that produced it.
type Manifest struct {
	Command string            `json:"command"`
	Args    []string          `json:"args,omitempty"`
	Config  map[string]string `json:"config,omitempty"`
	Seeds   []uint64          `json:"seeds,omitempty"`
	// FaultPlan records the armed ADDRXLAT_FAULTS plan, so a table produced
	// under fault injection can never masquerade as a clean run.
	FaultPlan   string    `json:"fault_plan,omitempty"`
	GoVersion   string    `json:"go_version"`
	OS          string    `json:"os"`
	Arch        string    `json:"arch"`
	GitRevision string    `json:"git_revision,omitempty"`
	GitDirty    bool      `json:"git_dirty,omitempty"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	// Status tracks the run's lifecycle: "running" (written at start so a
	// crash leaves evidence), then "ok", "canceled", or "failed". Partial
	// marks any manifest whose run did not complete cleanly; a partial
	// manifest is the input to `figures -resume`.
	Status  string `json:"status,omitempty"`
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
	// Trace is the path of the Perfetto-loadable execution trace the run
	// exported (-trace), and HTTPAddr the bound address of the expvar
	// endpoint (-http) — recorded so a tooling run over the manifest can
	// find both without re-deriving flag defaults (":0" binds a random
	// port; the manifest holds the real one).
	Trace       string      `json:"trace,omitempty"`
	HTTPAddr    string      `json:"http_addr,omitempty"`
	Experiments []RunRecord `json:"experiments,omitempty"`
	Cache       *CacheStats `json:"cache,omitempty"`

	// path is the file this manifest's first Write claimed; later writes
	// into the same directory replace it.
	path string
}

// NewManifest starts a manifest for the named command, stamping the
// environment (go version, platform, source revision) and the start time.
// args is the raw command line (os.Args[1:]).
func NewManifest(command string, args []string) *Manifest {
	rev, dirty := gitVersion()
	return &Manifest{
		Command:     command,
		Args:        args,
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		GitRevision: rev,
		GitDirty:    dirty,
		Start:       time.Now().UTC(),
	}
}

// FlagConfig snapshots every flag's resolved value (defaults included)
// for the manifest's config block. Call after fs.Parse; fs nil means the
// default command-line set.
func FlagConfig(fs *flag.FlagSet) map[string]string {
	if fs == nil {
		fs = flag.CommandLine
	}
	cfg := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	return cfg
}

// Finish stamps the total wall time.
func (m *Manifest) Finish() {
	m.WallSeconds = time.Since(m.Start).Seconds()
}

// Filename returns the manifest's canonical file name,
// manifest-<command>-<startUTC>.json — one file per invocation, so a
// results directory accumulates a run log. Write keeps the name stable
// across a run's lifetime: the start-of-run "running" write and the
// final write land in the same file. A run started in the same second as
// one whose manifest already holds the name gets a numbered name instead
// (see Write).
func (m *Manifest) Filename() string {
	return fmt.Sprintf("manifest-%s-%s.json", m.Command, m.Start.UTC().Format("20060102T150405Z"))
}

// LoadManifest reads a manifest written by Write, for `-resume`.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: manifest %s: %w", path, err)
	}
	return &m, nil
}

// Write renders the manifest as indented JSON into dir (created if
// needed), returning the written path. The first write claims a file of
// its own: Filename, or Filename with _2, _3, … before ".json" when
// another manifest holds that name (runs started in the same second);
// '_' sorts after '.', so a directory's names still sort in start order.
// Every later write into dir replaces that file. Writes are atomic (temp
// file, then a hard link for the claim or a rename after it), so a run
// killed mid-write leaves the previous version of the manifest, never a
// torn one.
func (m *Manifest) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return "", fmt.Errorf("obs: %w", err)
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = m.place(tmp.Name(), dir)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("obs: %w", err)
	}
	return m.path, nil
}

// place moves the written temp file into the manifest's own file in dir,
// claiming one on the first write there. The claim hard-links the temp
// file, which fails rather than replace a file another manifest holds.
func (m *Manifest) place(tmp, dir string) error {
	if m.path != "" && filepath.Dir(m.path) == filepath.Clean(dir) {
		return os.Rename(tmp, m.path)
	}
	base := strings.TrimSuffix(m.Filename(), ".json")
	for n := 1; ; n++ {
		path := filepath.Join(dir, base+".json")
		if n > 1 {
			path = filepath.Join(dir, fmt.Sprintf("%s_%d.json", base, n))
		}
		err := os.Link(tmp, path)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		m.path = path
		return os.Remove(tmp)
	}
}

// gitVersion resolves the source revision: the VCS stamp the go tool
// embeds at build time when available, else a best-effort `git describe`
// (go run and go test build without VCS stamps). Failures degrade to an
// empty revision — a manifest must never fail a run.
func gitVersion() (rev string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return rev, dirty
		}
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return "", false
	}
	rev = strings.TrimSpace(string(out))
	return rev, strings.HasSuffix(rev, "-dirty")
}
