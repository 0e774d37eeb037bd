// Livetier: the full methodology against a REAL multi-tier system rather
// than the discrete-event testbed. Three actual net/http servers (front →
// app → db) run in this process and talk over loopback TCP; each tier
// serves requests through a bounded worker pool (its "cores") whose
// per-request service time falls with offered concurrency (a synthetic
// cache-warming law standing in for the caching/batching effects the paper
// measured on LAMP servers).
//
// A goroutine-per-virtual-user closed-loop load generator exercises the
// stack at a few concurrencies, tier busy-time instrumentation plays the
// role of vmstat, the Service Demand Law extracts per-tier demand arrays,
// and MVASD predicts throughput/response time at held-out concurrencies —
// validated against real wall-clock measurements.
//
// Run with:
//
//	go run ./examples/livetier [-measure 2s]
//
// Expect a few tens of seconds of wall-clock time and a few percent of
// noise: this is a real concurrent system, not a simulator.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/server"
)

// tier is one HTTP service with a bounded worker pool and concurrency-
// dependent service time.
type tier struct {
	name    string
	servers int           // pool width (the station's C_k)
	d1      time.Duration // single-user service time
	dInf    time.Duration // asymptotic service time under load
	tau     float64       // decay scale in users

	sem       chan struct{}
	busyNanos atomic.Int64 // wall time spent in service (the vmstat view)
	next      *httptest.Server
	rng       *lockedRand
}

// hold returns the mean service time at the given offered concurrency.
func (t *tier) hold(users float64) time.Duration {
	f := math.Exp(-(users - 1) / t.tau)
	return t.dInf + time.Duration(float64(t.d1-t.dInf)*f)
}

func (t *tier) handler(w http.ResponseWriter, r *http.Request) {
	users, _ := strconv.ParseFloat(r.Header.Get("X-Load-Users"), 64)
	if users < 1 {
		users = 1
	}
	// Exponentially distributed service around the concurrency-dependent
	// mean, served under the bounded pool (an M/M/C-style station).
	mean := t.hold(users)
	svc := time.Duration(t.rng.ExpFloat64() * float64(mean))
	t.sem <- struct{}{}
	start := time.Now()
	time.Sleep(svc)
	t.busyNanos.Add(time.Since(start).Nanoseconds())
	<-t.sem
	if t.next != nil {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, t.next.URL, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header.Set("X-Load-Users", r.Header.Get("X-Load-Users"))
		resp, err := sharedClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp.Body.Close()
	}
	w.WriteHeader(http.StatusOK)
}

// lockedRand is a mutex-guarded rand.Rand shared across handler goroutines.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) ExpFloat64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.ExpFloat64()
}

var sharedClient = &http.Client{
	Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
	Timeout:   30 * time.Second,
}

// measurement is one closed-loop load test against the real stack.
type measurement struct {
	users      int
	throughput float64   // completed front-end requests per second
	cycleTime  float64   // response + think, seconds
	demands    []float64 // per-tier service demands via D = U/X
}

// loadTest drives n virtual users for warmup+window and measures.
func loadTest(tiers []*tier, front *httptest.Server, n int, think, warmup, window time.Duration) measurement {
	var (
		completed atomic.Int64
		respNanos atomic.Int64
		measuring atomic.Bool
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*2654435761 + 1))
			for !stop.Load() {
				time.Sleep(time.Duration(rng.ExpFloat64() * float64(think)))
				if stop.Load() {
					return
				}
				// Count a request only if it both started and finished
				// inside the measurement window, else the window edges
				// bias short tests upward.
				inWindow := measuring.Load()
				start := time.Now()
				req, err := http.NewRequest(http.MethodGet, front.URL, nil)
				if err != nil {
					continue
				}
				req.Header.Set("X-Load-Users", strconv.Itoa(n))
				resp, err := sharedClient.Do(req)
				if err != nil {
					continue
				}
				resp.Body.Close()
				if inWindow && measuring.Load() {
					completed.Add(1)
					respNanos.Add(time.Since(start).Nanoseconds())
				}
			}
		}(i)
	}
	time.Sleep(warmup)
	var busyAt []int64
	for _, t := range tiers {
		busyAt = append(busyAt, t.busyNanos.Load())
	}
	measuring.Store(true)
	time.Sleep(window)
	measuring.Store(false)
	m := measurement{users: n}
	done := completed.Load()
	m.throughput = float64(done) / window.Seconds()
	if done > 0 {
		resp := float64(respNanos.Load()) / float64(done) / 1e9
		m.cycleTime = resp + think.Seconds()
	}
	for i, t := range tiers {
		busy := float64(t.busyNanos.Load()-busyAt[i]) / 1e9 / window.Seconds()
		m.demands = append(m.demands, queueing.DemandFromUtilization(busy, m.throughput))
	}
	stop.Store(true)
	wg.Wait()
	return m
}

func main() {
	measure := flag.Duration("measure", 4*time.Second, "measured window per load test")
	flag.Parse()

	think := 80 * time.Millisecond
	rng := &lockedRand{r: rand.New(rand.NewSource(42))}
	db := &tier{name: "db", servers: 2, d1: 8 * time.Millisecond, dInf: 5 * time.Millisecond, tau: 12, rng: rng}
	app := &tier{name: "app", servers: 4, d1: 5 * time.Millisecond, dInf: 3500 * time.Microsecond, tau: 10, rng: rng}
	front := &tier{name: "front", servers: 4, d1: 3 * time.Millisecond, dInf: 2 * time.Millisecond, tau: 10, rng: rng}
	for _, t := range []*tier{db, app, front} {
		t.sem = make(chan struct{}, t.servers)
	}
	dbSrv := httptest.NewServer(http.HandlerFunc(db.handler))
	defer dbSrv.Close()
	app.next = dbSrv
	appSrv := httptest.NewServer(http.HandlerFunc(app.handler))
	defer appSrv.Close()
	front.next = appSrv
	frontSrv := httptest.NewServer(http.HandlerFunc(front.handler))
	defer frontSrv.Close()
	tiers := []*tier{front, app, db}

	fmt.Println("live 3-tier stack up (front → app → db over loopback TCP)")
	fmt.Printf("db tier: %d workers, service %.1f → %.1f ms with load (bottleneck)\n\n",
		db.servers, float64(db.d1)/1e6, float64(db.dInf)/1e6)

	// Step 1+2: load tests at sample concurrencies, extract demand arrays.
	samplePoints := []int{2, 8, 16, 28}
	samples := make([]core.DemandSamples, len(tiers))
	for i := range samples {
		samples[i] = core.DemandSamples{}
	}
	fmt.Println("sampling campaign:")
	for _, n := range samplePoints {
		m := loadTest(tiers, frontSrv, n, think, *measure/2, *measure)
		fmt.Printf("  N=%-3d X=%6.1f req/s  R+Z=%.1f ms  demands(ms):", n, m.throughput, m.cycleTime*1000)
		for i, d := range m.demands {
			samples[i].At = append(samples[i].At, float64(n))
			samples[i].Demands = append(samples[i].Demands, d)
			fmt.Printf(" %s=%.2f", tiers[i].name, d*1000)
		}
		fmt.Println()
	}

	// Step 3: MVASD over the real measurements.
	model := &queueing.Model{
		Name:      "livetier",
		ThinkTime: think.Seconds(),
		Stations: []queueing.Station{
			{Name: "front", Kind: queueing.CPU, Servers: front.servers, Visits: 1, ServiceTime: samples[0].Demands[0]},
			{Name: "app", Kind: queueing.CPU, Servers: app.servers, Visits: 1, ServiceTime: samples[1].Demands[0]},
			{Name: "db", Kind: queueing.CPU, Servers: db.servers, Visits: 1, ServiceTime: samples[2].Demands[0]},
		},
	}
	dm, err := core.NewCurveDemands(interp.PCHIP, samples, interp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	const maxN = 40
	pred, err := core.MVASD(model, maxN, dm, core.MVASDOptions{})
	if err != nil {
		log.Fatal(err)
	}
	xMax, at := pred.MaxThroughput()
	fmt.Printf("\nMVASD prediction: max %.1f req/s around N=%d\n\n", xMax, at)

	// Validation at held-out concurrencies, with every prediction-vs-measured
	// pair fed through the deviation tracker: breaches of the paper's 3%/9%
	// bounds land as "prediction-deviation" traces in the flight recorder.
	recorder := obs.New(obs.Config{Node: "livetier", SampleRate: 1})
	tracker := estimate.NewDeviationTracker(recorder)
	holdout := []int{5, 12, 22, 36}
	tab := report.NewTable("holdout validation against the live stack",
		"Users", "measured X", "predicted X", "dev %", "measured R+Z ms", "predicted R+Z ms", "dev %")
	var mx, px, mc, pc []float64
	for _, n := range holdout {
		m := loadTest(tiers, frontSrv, n, think, *measure/2, *measure)
		xp, _, cp, err := pred.At(n)
		if err != nil {
			log.Fatal(err)
		}
		tracker.ObserveThroughput(n, m.throughput, xp)
		tracker.ObserveCycleTime(n, m.cycleTime, cp)
		mx, px = append(mx, m.throughput), append(px, xp)
		mc, pc = append(mc, m.cycleTime), append(pc, cp)
		tab.AddRow(fmt.Sprint(n),
			report.F(m.throughput, 1), report.F(xp, 1),
			report.F(metrics.RelErr(xp, m.throughput)*100, 1),
			report.F(m.cycleTime*1000, 1), report.F(cp*1000, 1),
			report.F(metrics.RelErr(cp, m.cycleTime)*100, 1))
	}
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	xDev, _ := metrics.MeanDeviationPct(px, mx)
	cDev, _ := metrics.MeanDeviationPct(pc, mc)
	fmt.Printf("\nmean deviation vs the live system: throughput %.1f%%, cycle time %.1f%%\n", xDev, cDev)
	fmt.Println("(wall-clock noise of a real scheduler is in play; expect single-digit percentages)")

	fmt.Println("\nprediction deviation gauges (paper bounds: throughput 3%, cycle time 9%):")
	if err := tracker.WriteMetrics(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if viols := tracker.Violations(); len(viols) > 0 {
		fmt.Printf("%d observation(s) breached the bounds — recorded as flight-recorder traces:\n", len(viols))
		for _, v := range viols {
			fmt.Printf("  N=%-3d %-10s measured=%.4g predicted=%.4g ratio=%.1f%% (bound %.0f%%) trace=%s\n",
				v.Users, v.Metric, v.Measured, v.Predicted, v.Ratio*100, v.Bound*100, v.TraceID)
		}
	} else {
		fmt.Println("no observation breached the bounds; the fitted demand curves still describe the system")
	}

	runAutoscaler(model, dm)
}

// ——— closed-loop autoscaler demo ————————————————————————————————————————
//
// The phases above measured the stack offline, paper-style. This phase runs
// the production loop instead: an embedded solverd ingests Service-Demand-Law
// samples through POST /v1/observe, a programmed drift inflates the db tier's
// demand epoch over epoch, the deviation breach triggers server-side
// re-estimation, and an autoscaler asks GET /v1/whatif for the smallest db
// replica count that keeps the tier under 90% utilization at the target
// population — driving its scaling decision from the live estimate.

const (
	scaleTargetN  = 40   // the population the autoscaler plans for
	scaleUtil     = 0.90 // per-server utilization treated as saturated
	scaleEpochMax = 48   // whatif search ceiling
)

// scaleEpochs is the programmed drift: the db tier's demand multiplier per
// epoch (cache degradation, a heavier query mix — the paper's "varying
// service demands" arriving as a live regime change).
var scaleEpochs = []float64{1.0, 1.35, 1.7}

func runAutoscaler(measured *queueing.Model, baseline core.DemandModel) {
	fmt.Println("\nclosed-loop autoscaler (embedded solverd, programmed db drift):")

	srv := server.New(server.Config{
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Estimate: estimate.Config{Alpha: 1, MinSamples: 4},
	})
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	// The registered model: the measured shape, db replicas as deployed now.
	model := *measured
	model.Stations = append([]queueing.Station(nil), measured.Stations...)
	dbIdx := len(model.Stations) - 1
	replicas := model.Stations[dbIdx].Servers

	feedPoints := []int{2, 8, 16, 28, 40}
	for epoch, drift := range scaleEpochs {
		truth := core.FuncDemands{K: len(model.Stations), F: func(k, n int) float64 {
			d := baseline.DemandAt(k, n, 0)
			if k == dbIdx {
				d *= drift
			}
			return d
		}}
		ref, err := core.MVASD(&model, scaleEpochMax, truth, core.MVASDOptions{})
		if err != nil {
			log.Fatal(err)
		}

		// One observe batch: drifted samples for every station × concurrency,
		// plus the system-level measurement the deviation check scores. The
		// first epoch registers the model and bootstraps the fit manually;
		// later epochs rely on the breach-triggered re-estimation.
		req := modelio.ObserveRequest{}
		if epoch == 0 {
			req.Model, req.Fit = &model, true
		}
		for _, n := range feedPoints {
			x, _, _, err := ref.At(n)
			if err != nil {
				log.Fatal(err)
			}
			for k, st := range model.Stations {
				for i := 0; i < 4; i++ {
					req.Samples = append(req.Samples, modelio.ObserveSample{
						Station: st.Name, Concurrency: n,
						Utilization: truth.F(k, n) * x, Throughput: x,
					})
				}
			}
		}
		if epoch > 0 {
			x, _, cyc, err := ref.At(scaleTargetN)
			if err != nil {
				log.Fatal(err)
			}
			req.System = []modelio.SystemSample{{Concurrency: scaleTargetN, Throughput: x, CycleTime: cyc}}
		}
		var oresp modelio.ObserveResponse
		postAPI(api.URL+"/v1/observe", req, &oresp)
		loop := "bootstrap fit"
		if len(oresp.Checks) == 1 {
			c := oresp.Checks[0]
			loop = fmt.Sprintf("throughput deviation %.1f%%", 100*c.ThroughputDeviation)
			if c.Reestimated {
				loop += " → breach, re-estimated"
			}
		}
		fmt.Printf("  epoch %d: db drift ×%.2f  snapshot v%d  (%s)\n", epoch, drift, oresp.SnapshotVersion, loop)

		// The scaling decision: smallest replica count whose saturation point
		// clears the target population, straight off /v1/whatif.
		dbName := model.Stations[dbIdx].Name
		chosen, prev := replicas, replicas
		var wi modelio.WhatIfResponse
		for c := replicas; ; c++ {
			q := fmt.Sprintf("%s/v1/whatif?station=%s&util=%g&maxN=%d&servers=%s=%d",
				api.URL, dbName, scaleUtil, scaleEpochMax, dbName, c)
			getAPI(q, &wi)
			if !wi.Saturated || wi.SaturationN > scaleTargetN {
				chosen = c
				break
			}
			if c > 16 {
				log.Fatalf("autoscaler runaway: %d db replicas still saturate", c)
			}
		}
		fmt.Printf("           whatif: db=%d replicas → saturation N=%s (target %d), predicted X=%.1f req/s\n",
			chosen, satString(wi), scaleTargetN, wi.X)
		if chosen != prev {
			fmt.Printf("           scale db %d → %d replicas\n", prev, chosen)
			replicas = chosen
		}
	}
	fmt.Println("(the estimator re-fit on every breach; each decision solved MVASD over the live fitted curves)")
}

// satString renders a whatif saturation answer.
func satString(wi modelio.WhatIfResponse) string {
	if !wi.Saturated {
		return fmt.Sprintf(">%d", wi.MaxN)
	}
	return fmt.Sprint(wi.SaturationN)
}

// postAPI POSTs a JSON body and decodes the JSON reply, fataling on errors.
func postAPI(url string, body, into any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := sharedClient.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %d %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, into); err != nil {
		log.Fatal(err)
	}
}

// getAPI GETs one endpoint and decodes the JSON reply, fataling on errors.
func getAPI(url string, into any) {
	resp, err := sharedClient.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %d %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, into); err != nil {
		log.Fatal(err)
	}
}
