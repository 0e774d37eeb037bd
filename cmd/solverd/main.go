// Command solverd runs the model-solving HTTP service (internal/server): a
// JSON API over the library's MVA solvers with an LRU solve cache, in-flight
// deduplication, a bounded worker pool and Prometheus-text metrics.
//
// Usage:
//
//	solverd [-addr :8080] [-cache 256] [-workers 8] [-max-n 100000]
//	        [-timeout 30s] [-shutdown-timeout 15s] [-pprof]
//	        [-trace-store 512] [-trace-slow 250ms] [-trace-sample 0.05]
//	        [-estimate-window 32] [-estimate-min-samples 8]
//	        [-journal-events 512] [-profile-on-anomaly]
//	        [-self-interval 2s] [-self-p99-bound 0]
//	        [-shed-mode off|observe|enforce]
//	        [-log-format text|json] [-log-level debug|info|warn|error]
//	solverd -peers host1:8080,host2:8080,host3:8080 -advertise host1:8080
//	        [-replication 2] [-cluster-secret s]
//	solverd -version
//	solverd -dump-profile vins [-nodes 7] [-out dir]
//
// The server listens until SIGINT/SIGTERM and then drains in-flight
// requests. With -peers the node joins a solve fabric (internal/cluster): a
// consistent-hash ring routes /v1/solve and /v1/sweep to each key's owner,
// and trajectories cached anywhere in the fabric warm-start cold solves
// everywhere. A flight recorder (internal/obs) tail-samples completed
// request traces into a bounded in-memory store served under /debug/traces
// (and stitched cluster-wide under /cluster/v1/trace/{id}); -trace-store 0
// turns it off. Every stateful subsystem also feeds a bounded event journal
// (internal/journal) served under GET /debug/events and merged fleet-wide
// under GET /cluster/v1/events (`solverctl events` renders the timeline);
// -journal-events sets the per-type ring capacity and 0 turns it off.
// -profile-on-anomaly arms anomaly profile capture: a deviation breach, shed
// burst or breaker trip grabs a rate-limited CPU profile into a bounded
// store served under GET /debug/profiles/{id} (`solverctl profile <id>`
// fetches one for go tool pprof). Every node also runs a self-model (internal/selfmodel): it
// samples its own worker pool and request flow, fits its own two-station
// demands, and serves a predicted saturation/headroom view under GET /v1/self
// (fleet-wide under GET /cluster/v1/self; `solverctl headroom` renders the
// table). -self-interval sets the sampling-window length; -self-p99-bound
// tightens the advertised safe concurrency to the largest population whose
// predicted p99 stays under the bound (0 leaves only the utilization knee).
// -shed-mode arms the admission gate (internal/admission) on that self-model:
// "observe" (the default) only counts what enforce would have done, "enforce"
// sheds past-the-knee arrivals with 429 + Retry-After — in cluster mode first
// trying a redirect to a ring peer with advertised headroom — and "off"
// disables the gate. Concurrent solves of one model wait on its solve-cache
// entry lock, and a waiter whose population the running solve covers is
// answered from that run (counted as coalesced). -version prints build info
// and exits. -dump-profile does not serve: it writes <profile>-model.json and
// <profile>-samples.json (the true demand curves sampled at Chebyshev
// concurrencies) so the README's curl examples have real request bodies to
// point at.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/chebyshev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/selfmodel"
	"repro/internal/server"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "solverd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("solverd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", 256, "solve cache entries (negative disables)")
	workers := fs.Int("workers", 0, "max concurrent solves (default GOMAXPROCS)")
	maxN := fs.Int("max-n", 100_000, "largest trajectory-row count a request may store (a dense request's population; decimated requests store maxN/decimate+1 rows)")
	maxSweep := fs.Int("max-sweep-points", 1024, "largest sweep grid size")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request solve deadline")
	shutdown := fs.Duration("shutdown-timeout", 15*time.Second, "graceful drain bound")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	traceStore := fs.Int("trace-store", obs.DefaultMaxTraces, "flight-recorder trace capacity (0 disables recording)")
	traceSlow := fs.Duration("trace-slow", obs.DefaultSlowThreshold, "requests at least this slow are always retained")
	traceSample := fs.Float64("trace-sample", obs.DefaultSampleRate, "keep probability for fast, successful traces (1 keeps all)")
	journalEvents := fs.Int("journal-events", 512, "event-journal entries retained per event type (0 disables the journal)")
	profileOnAnomaly := fs.Bool("profile-on-anomaly", false, "capture a rate-limited CPU profile when a deviation breach, shed burst or breaker trip fires")
	estWindow := fs.Int("estimate-window", 0, "demand estimator's per-cell outlier window (0 uses the default, 32)")
	estMinSamples := fs.Int("estimate-min-samples", 0, "accepted samples a concurrency cell needs to enter a fit (0 uses the default, 8)")
	selfInterval := fs.Duration("self-interval", 0, "self-model sampling-window length (0 uses the default, 2s)")
	selfP99Bound := fs.Duration("self-p99-bound", 0, "p99 latency bound tightening the self-model's safe concurrency (0 disables the bound)")
	shedMode := fs.String("shed-mode", "observe", "admission gate mode: off, observe (count what enforce would do) or enforce (shed/redirect past the predicted knee)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	dump := fs.String("dump-profile", "", "write model+samples JSON for a testbed profile (vins, jpetstore) and exit")
	nodes := fs.Int("nodes", 7, "Chebyshev sample count for -dump-profile")
	outDir := fs.String("out", ".", "output directory for -dump-profile")
	peers := fs.String("peers", "", "comma-separated cluster member list (host:port, every node incl. this one); empty runs standalone")
	advertise := fs.String("advertise", "", "this node's host:port as peers reach it (required with -peers)")
	replication := fs.Int("replication", 2, "nodes holding each key in cluster mode (owner + replicas)")
	clusterSecret := fs.String("cluster-secret", "", "shared secret gating /cluster/v1/* and forwarded hops (empty trusts the network)")
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		goVersion, revision := server.BuildInfo()
		fmt.Fprintf(out, "solverd %s %s\n", goVersion, revision)
		return nil
	}
	if *dump != "" {
		return dumpProfile(*dump, *nodes, *outDir, out)
	}
	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	mode, err := admission.ParseMode(*shedMode)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The flight recorder names its fragments by the address peers reach this
	// node at, so stitched cross-node trees label spans consistently.
	recNode := *advertise
	if recNode == "" {
		recNode = *addr
	}
	recTraces := *traceStore
	if recTraces == 0 {
		recTraces = -1 // Config 0 means "default"; the flag's 0 means "off"
	}
	recorder := obs.New(obs.Config{
		Node:          recNode,
		MaxTraces:     recTraces,
		SlowThreshold: *traceSlow,
		SampleRate:    *traceSample,
	})
	jnCap := *journalEvents
	if jnCap == 0 {
		jnCap = -1 // Config 0 means "default"; the flag's 0 means "off"
	}
	jn := journal.New(journal.Config{Node: recNode, PerTypeCap: jnCap})
	profCap := -1 // the store stays disabled unless -profile-on-anomaly arms it
	if *profileOnAnomaly {
		profCap = 0 // Config 0 means "default capacity"
	}
	profiles := journal.NewProfileStore(journal.ProfileConfig{
		Node:        recNode,
		MaxProfiles: profCap,
		Journal:     jn,
	})
	srv := server.New(server.Config{
		Addr:            *addr,
		CacheSize:       *cacheSize,
		Workers:         *workers,
		MaxN:            *maxN,
		MaxSweepPoints:  *maxSweep,
		RequestTimeout:  *timeout,
		ShutdownTimeout: *shutdown,
		EnablePprof:     *pprofOn,
		Logger:          logger,
		Recorder:        recorder,
		Journal:         jn,
		Profiles:        profiles,
		Estimate: estimate.Config{
			Window:     *estWindow,
			MinSamples: *estMinSamples,
		},
		Self: selfmodel.Config{
			Interval: *selfInterval,
			P99Bound: *selfP99Bound,
		},
		Admission: admission.Config{Mode: mode},
	})
	if *peers != "" {
		if *advertise == "" {
			return fmt.Errorf("-peers requires -advertise (this node's host:port as peers reach it)")
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		gw, err := cluster.New(srv, cluster.Config{
			Self:        *advertise,
			Peers:       members,
			Replication: *replication,
			Secret:      *clusterSecret,
			Logger:      logger,
		})
		if err != nil {
			return err
		}
		gw.Start(ctx)
		defer gw.Stop()
		logger.Info("solverd: cluster mode",
			"self", *advertise, "peers", len(members), "replication", *replication)
	}
	return srv.Run(ctx)
}

// newLogger builds the slog logger selected by -log-format/-log-level. At
// debug level the server additionally emits one record per finished span.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// dumpProfile writes <name>-model.json and <name>-samples.json: the profile's
// single-user model plus its true demand curves sampled at Chebyshev
// concurrency points, i.e. what a paper-style load-test campaign would have
// measured.
func dumpProfile(name string, nodes int, dir string, out io.Writer) error {
	p, ok := testbed.Profiles()[name]
	if !ok {
		return fmt.Errorf("unknown profile %q (want vins or jpetstore)", name)
	}
	points, err := chebyshev.IntegerNodesOn(1, float64(p.MaxUsers), nodes)
	if err != nil {
		return err
	}
	model := p.Model(1)
	model.Name = p.Name
	at := make([]float64, len(points))
	for i, n := range points {
		at[i] = float64(n)
	}
	arrays := make([]core.DemandSamples, p.StationCount())
	for i := range arrays {
		arrays[i] = core.DemandSamples{At: at, Demands: make([]float64, len(points))}
	}
	for j, n := range points {
		for i, d := range p.TrueDemands(n) {
			arrays[i].Demands[j] = d
		}
	}
	samples, err := modelio.FromDemandSamples(model, arrays)
	if err != nil {
		return err
	}
	modelPath := filepath.Join(dir, name+"-model.json")
	samplesPath := filepath.Join(dir, name+"-samples.json")
	if err := modelio.SaveModel(modelPath, model); err != nil {
		return err
	}
	if err := modelio.SaveSamples(samplesPath, samples); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d stations) and %s (sampled at N=%v)\n",
		modelPath, len(model.Stations), samplesPath, points)
	return nil
}
