// Command solverbench is solverd's end-to-end and per-layer benchmark.
//
// For each workload (a traffic mix) it builds ./cmd/solverd, starts fresh
// solverd processes with default flags, drives them with closed-loop clients
// from this one process, and checks every reply against an oracle that
// recomputes it from the core solvers. It then replays the same seeded
// stream in-process, one goroutine, through the layers' public functions
// with a span around each call, for the per-layer numbers.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-results FILE]
//	bash bench/run.sh compare A.json B.json
//
// Without -workload every workload runs. -trace 1 (the default) adds the
// traced run; the last line of standard output is one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// -results appends this run's record (seed, revision, toolchain, every
// metric) to FILE; compare reads two such files. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Defaults of a full run. The window is what BENCHMARK.json's run_seconds
// says; the warm-up lets the GC pacer, connections, the self-model's first
// sampling windows and mixed-rw's cache reach steady state first.
const (
	defaultWindow = 20 * time.Second
	defaultWarmup = 5 * time.Second
	defaultSetups = 9
)

// Options configures Run.
type Options struct {
	// Root is the repository root (it holds cmd/solverd).
	Root string
	// BuildDir receives the solverd binary (default <Root>/.bench_build).
	BuildDir string
	// OutDir receives solverd logs, traces and the last run's record
	// (default <Root>/bench/out).
	OutDir    string
	Workloads []string
	Seed      int64
	Window    time.Duration
	Warmup    time.Duration
	// Setups is how many times each workload is set up; setup_s is the
	// median, and the last set-up serves the measured traffic.
	Setups int
	// Trace adds the traced in-process run and its per-layer metrics.
	Trace bool
	// TraceScale multiplies the traced request counts (1 as documented).
	TraceScale float64
	// Progress receives one line per phase (nil discards them).
	Progress io.Writer
}

func (o *Options) defaults() {
	if o.BuildDir == "" {
		o.BuildDir = filepath.Join(o.Root, ".bench_build")
	}
	if o.OutDir == "" {
		o.OutDir = filepath.Join(o.Root, "bench", "out")
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workloadNames
	}
	if o.Window <= 0 {
		o.Window = defaultWindow
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Setups < 1 {
		o.Setups = 1
	}
	if o.TraceScale <= 0 {
		o.TraceScale = 1
	}
	if o.Progress == nil {
		o.Progress = io.Discard
	}
}

// clients is the closed loop's size: two, or fewer on a smaller machine, so
// the client never holds more connections or goroutines than there are CPUs.
func (o *Options) clients() int { return min(2, runtime.NumCPU()) }

// runRecord is one run's results with its provenance.
type runRecord struct {
	Seed             int64                      `json:"seed"`
	Revision         string                     `json:"revision"`
	GoVersion        string                     `json:"goVersion"`
	NumCPU           int                        `json:"nproc"`
	ClientGOMAXPROCS int                        `json:"clientGomaxprocs"`
	Clients          int                        `json:"clients"`
	WindowSeconds    float64                    `json:"windowSeconds"`
	WarmupSeconds    float64                    `json:"warmupSeconds"`
	Started          time.Time                  `json:"started"`
	Workloads        map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// Samples is the number of requests completed inside the window, the
	// base of every latency percentile and rate.
	Samples   int                `json:"samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw holds the time-based metrics before speed scaling, plus the
	// client's CPU time per request they were scaled by.
	Raw    map[string]float64 `json:"raw"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *runRecord) totals() (attempted, failed int) {
	for _, w := range r.Workloads {
		attempted += w.Attempted
		failed += w.Failed
	}
	return attempted, failed
}

// Run builds solverd and measures every workload o names.
func Run(ctx context.Context, o Options) (*runRecord, error) {
	o.defaults()
	for _, w := range o.Workloads {
		if _, ok := workloadWhy[w]; !ok {
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
		}
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintln(o.Progress, "building solverd")
	bin, err := buildSolverd(ctx, o.Root, o.BuildDir)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Seed:             o.Seed,
		Revision:         revision(o.Root),
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		ClientGOMAXPROCS: clientProcs,
		Clients:          o.clients(),
		WindowSeconds:    o.Window.Seconds(),
		WarmupSeconds:    o.Warmup.Seconds(),
		Started:          time.Now().UTC(),
		Workloads:        make(map[string]*workloadResult),
	}
	for _, w := range o.Workloads {
		fmt.Fprintf(o.Progress, "%s: end to end (%d set-ups, %v warm-up, %v window)\n", w, o.Setups, o.Warmup, o.Window)
		e2e, err := runE2E(ctx, &o, bin, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		wr := &workloadResult{
			Samples:   e2e.samples,
			Attempted: e2e.attempted,
			Failed:    e2e.failed,
			Failures:  e2e.failures,
			Metrics:   e2e.metrics,
			Raw:       e2e.raw,
		}
		rec.Workloads[w] = wr
		if o.Trace && wr.Failed == 0 {
			fmt.Fprintf(o.Progress, "%s: traced run\n", w)
			if wr.Layers, err = runTraced(ctx, &o, w, e2e); err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", w, err)
			}
		}
	}
	return rec, nil
}

func buildSolverd(ctx context.Context, root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "solverd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/solverd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building solverd: %w\n%s", err, out)
	}
	return bin, nil
}

// revision is the checkout's commit, or "unknown" outside a git work tree.
// The search for .git stops at root, so nothing above the checkout is read.
func revision(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = abs
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// findRoot locates the repository root: the working directory, or its
// parent when run from inside bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "solverd", "main.go")); err == nil {
			return dir, nil
		}
		if filepath.Base(wd) != "bench" {
			break
		}
	}
	return "", errors.New("cmd/solverd not found: run from the repository root")
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solverbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "measure one workload: "+strings.Join(workloadNames, ", ")+" (default all)")
	seed := fs.Int64("seed", 1, "seed of the generated request streams")
	seconds := fs.Int("seconds", int(defaultWindow/time.Second), "length of each workload's measured window, in seconds")
	trace := fs.Int("trace", 1, "1 adds the traced in-process run and reports per-layer metrics; 0 reports end-to-end metrics")
	results := fs.String("results", "", "append this run's record to `FILE` (read by compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "solverbench:", err)
		return 1
	}
	o := Options{
		Root:     root,
		Seed:     *seed,
		Window:   time.Duration(*seconds) * time.Second,
		Warmup:   defaultWarmup,
		Setups:   defaultSetups,
		Trace:    *trace == 1,
		Progress: stderr,
	}
	if *workload != "" {
		o.Workloads = []string{*workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := Run(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "solverbench:", err)
		return 1
	}
	o.defaults()
	writeReport(stdout, rec, o.Workloads)
	if err := saveRecord(filepath.Join(o.OutDir, "last-run.json"), rec, false); err != nil {
		fmt.Fprintln(stderr, "solverbench:", err)
		return 1
	}
	if *results != "" {
		if err := saveRecord(*results, rec, true); err != nil {
			fmt.Fprintln(stderr, "solverbench:", err)
			return 1
		}
	}
	line, correct := resultLine(rec, o.Workloads, o.Trace)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// resultLine is the run's one-line JSON summary. With one workload the
// metric names are bare; with several they are prefixed "<workload>.".
func resultLine(rec *runRecord, workloads []string, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	metrics := make(map[string]value)
	for _, w := range workloads {
		wr := rec.Workloads[w]
		prefix := ""
		if len(workloads) > 1 {
			prefix = w + "."
		}
		values := wr.Metrics
		if traced {
			values = wr.Layers
		}
		for _, d := range defs {
			if v, ok := values[d.name]; ok {
				metrics[prefix+d.name] = value{v, d.unit}
			}
		}
	}
	attempted, failed := rec.totals()
	correct := failed == 0
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b), correct
}

// writeReport prints every metric by name with its unit, per workload.
func writeReport(w io.Writer, rec *runRecord, workloads []string) {
	fmt.Fprintf(w, "solverbench seed=%d revision=%s %s nproc=%d clients=%d window=%gs warm-up=%gs\n",
		rec.Seed, rec.Revision, rec.GoVersion, rec.NumCPU, rec.Clients, rec.WindowSeconds, rec.WarmupSeconds)
	for _, name := range workloads {
		wr := rec.Workloads[name]
		fmt.Fprintf(w, "\n%s: %d samples in the window, %d attempted, %d failed\n", name, wr.Samples, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "  FAILED:", f)
		}
		for _, d := range append(append([]metricDef(nil), e2eMetrics...), errorRate) {
			fmt.Fprintf(w, "  %-34s %14.4f %s", d.name, wr.Metrics[d.name], d.unit)
			if r, ok := wr.Raw[d.name]; ok {
				fmt.Fprintf(w, " (raw %.4f)", r)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  %-34s %14.4f ms (reference %.3f)\n", "client_cpu_ms_per_req", wr.Raw["client_cpu_ms_per_req"], refClientMS[name])
		if wr.Layers == nil {
			continue
		}
		for _, d := range layerMetrics {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, wr.Layers[d.name], d.unit)
		}
	}
}

// resultsFile is what -results appends to and compare reads.
type resultsFile struct {
	Runs []*runRecord `json:"runs"`
}

func saveRecord(path string, rec *runRecord, appendRun bool) error {
	var f resultsFile
	if appendRun {
		if b, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(b, &f); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
