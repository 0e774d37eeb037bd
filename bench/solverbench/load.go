package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat's
// utime and stime (100 on every architecture Go supports).
const clockTicksPerSecond = 100

// node is one solverd process.
type node struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited and been reaped
}

func startNode(bin, addr string, args []string, log io.Writer) (*node, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Dies with the benchmark even if the benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting solverd: %w", err)
	}
	n := &node{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed solverd exits with a signal status by design
		close(n.done)
	}()
	return n, nil
}

// kill stops the process and waits until it has been reaped.
func (n *node) kill() {
	_ = n.cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-n.done
}

func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

func killAll(nodes []*node) {
	for _, n := range nodes {
		n.kill()
	}
}

// freeAddr reserves an ephemeral loopback port for a solverd to listen on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// deployment is one workload's running solverd processes.
type deployment struct {
	nodes []*node
	entry string // the address clients send to
	gen   generator
}

// deploy starts the workload's solverd processes with default flags, waits
// for /healthz and sends the priming requests. The returned duration is the
// set-up time: exec to the last priming reply. A process that dies during
// start-up (an ephemeral port taken in between) is retried on new ports.
func deploy(ctx context.Context, bin, workload string, seed int64, log io.Writer) (*deployment, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		count := 1
		if workload == forward {
			count = 2
		}
		members := make([]string, count)
		for i := range members {
			addr, err := freeAddr()
			if err != nil {
				return nil, 0, err
			}
			members[i] = addr
		}
		gen, err := newGenerator(workload, seed, members)
		if err != nil {
			return nil, 0, err
		}
		d := &deployment{entry: members[0], gen: gen}
		start := time.Now()
		for _, addr := range members {
			var args []string
			if workload == forward {
				args = []string{"-peers", strings.Join(members, ","), "-advertise", addr, "-replication", "1"}
			}
			n, err := startNode(bin, addr, args, log)
			if err != nil {
				killAll(d.nodes)
				return nil, 0, err
			}
			d.nodes = append(d.nodes, n)
		}
		if lastErr = d.awaitHealthy(ctx); lastErr == nil {
			lastErr = d.prime(ctx)
		}
		if lastErr == nil {
			return d, time.Since(start), nil
		}
		killAll(d.nodes)
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
	}
	return nil, 0, lastErr
}

var setupClient = &http.Client{Timeout: 60 * time.Second}

func (d *deployment) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range d.nodes {
		for {
			if n.exited() {
				return fmt.Errorf("solverd on %s exited during start-up", n.addr)
			}
			if healthy(ctx, n.addr) {
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("solverd on %s never became healthy", n.addr)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

func healthy(ctx context.Context, addr string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := setupClient.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (d *deployment) prime(ctx context.Context) error {
	for _, r := range d.gen.prime() {
		status, body, err := post(ctx, setupClient, "http://"+d.entry+r.path(), r.body)
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("priming: status %d: %s", status, body)
		}
	}
	return nil
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// sample is one request as the client saw it.
type sample struct {
	req    *request
	start  time.Duration // since the run's origin
	lat    time.Duration // send to the last byte of the body
	status int
	crc    uint32
	cached int8 // 1/0 for solves, -1 for sweeps
	err    error
	failed string // why the request counts as failed ("" if it does not)
}

// drive runs `clients` closed-loop clients against entry until stopAt: each
// sends its next request only after reading the previous reply in full, with
// no think time. Requests come from st in dispatch order.
func drive(ctx context.Context, entry string, st *stream, clients int, origin, stopAt time.Time) []sample {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(stopAt) {
				r := st.next()
				s := sample{req: r, cached: -1}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+entry+r.path(), bytes.NewReader(r.body))
				if err != nil {
					s.err = err
					out[c] = append(out[c], s)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				t0 := time.Now()
				resp, err := hc.Do(req)
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
					s.status = resp.StatusCode
				}
				t1 := time.Now()
				s.start, s.lat = t0.Sub(origin), t1.Sub(t0)
				if err == nil && s.status == http.StatusOK {
					s.crc, s.cached, err = replyDigest(r.sweep, buf.Bytes())
				}
				s.err = err
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].req.idx < all[j].req.idx })
	return all
}

// selfCPU is the benchmark process's own utime+stime, at microsecond
// resolution (getrusage; /proc's clock ticks are too coarse for the client's
// few hundred milliseconds per slice).
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTicksAll sums utime+stime over the processes.
func cpuTicksAll(nodes []*node) (int64, error) {
	var sum int64
	for _, n := range nodes {
		ticks, err := cpuTicks(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += ticks
	}
	return sum, nil
}

// scrapeAll sums the unlabelled /metrics series over the processes.
func scrapeAll(ctx context.Context, nodes []*node) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, n := range nodes {
		if err := scrapeCounters(ctx, n.addr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cpuTicks reads utime+stime (fields 14 and 15) of /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are plain.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// peakRSS reads VmHWM (the resident-set high-water mark) in KiB.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrapeCounters adds every unlabelled sample of addr's /metrics into into.
func scrapeCounters(ctx context.Context, addr string, into map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := setupClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			into[name] += v
		}
	}
	return sc.Err()
}

// logPanics counts the lines of a solverd log that report a panic.
func logPanics(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte("panic")) {
			n++
		}
	}
	return n, sc.Err()
}

// e2eResult is one workload's end-to-end measurement.
type e2eResult struct {
	metrics   map[string]float64 // the end-to-end metrics plus error_rate
	raw       map[string]float64 // time-based metrics before speed scaling, and the client's cost
	counters  map[string]float64 // per-layer ratios read off /metrics deltas
	samples   int                // requests completed inside a measured slice
	attempted int
	failed    int
	failures  []string // the first few failure reasons
}

// clientProcs is the benchmark's GOMAXPROCS while it drives load.
const clientProcs = 1

// refClientMS is, per workload, the client's own CPU time per request (ms)
// on the machine the bounds were fixed on: a 2-vCPU Xeon VM, median of 10
// runs. The client does the same work for every request of a workload
// whatever solverd's code does (the oracle pins the reply bytes), so its
// CPU time per request, read in the same slice as everything else, measures
// how fast the shared machine is running right then. Every time-based
// end-to-end metric is scaled by refClientMS ÷ that reading: a neighbour
// that slows the whole VM by 30% slows the client and solverd alike and
// leaves the scaled metrics where they were. Raw values are reported too.
var refClientMS = map[string]float64{hitDense: 0.124, coldDeep: 0.217, mixedRW: 0.126, forward: 0.116}

// slice is the part of the measured window each rate, percentile and CPU
// share is computed over; the reported metric is the median over the
// slices, so a burst of contention from outside the benchmark that lasts a
// few seconds moves one or two slices, not the result. Every workload
// completes over 1000 requests per 2 s, so each slice's p99 has over ten
// samples beyond it.
const slice = 2 * time.Second

// runE2E measures one workload end to end: set up o.Setups times (setup_s
// is their median), drive a warm-up and the measured window, reading the
// processes' CPU time at every slice edge and their counters at the
// window's edges, and finally check every reply.
func runE2E(ctx context.Context, o *Options, bin, workload string) (*e2eResult, error) {
	logPath := filepath.Join(o.OutDir, workload+"-solverd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	var setups []float64
	var d *deployment
	for i := 0; i < o.Setups; i++ {
		dep, dur, err := deploy(ctx, bin, workload, o.Seed, logf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		if i < o.Setups-1 {
			killAll(dep.nodes)
		} else {
			d = dep
		}
	}
	defer killAll(d.nodes)

	slices := max(1, int(o.Window/slice))
	width := o.Window / time.Duration(slices)
	edges := make([]time.Duration, slices+1) // since origin
	for i := range edges {
		edges[i] = o.Warmup + time.Duration(i)*width
	}
	// One P is all the client needs, and it leaves the second CPU to
	// solverd instead of a third scheduler competing for two CPUs.
	procs := runtime.GOMAXPROCS(clientProcs)
	st := &stream{gen: d.gen}
	origin := time.Now()
	var (
		samples        []sample
		wg             sync.WaitGroup
		driveCtx, stop = context.WithCancel(ctx)
	)
	defer stop()
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples = drive(driveCtx, d.entry, st, o.clients(), origin, origin.Add(edges[slices]))
	}()
	cpu := make([]int64, len(edges))
	client := make([]time.Duration, len(edges))
	var before, after map[string]float64
	measureErr := ctx.Err()
	for i := 0; i < len(edges) && measureErr == nil; i++ {
		sleepUntil(ctx, origin.Add(edges[i]))
		if cpu[i], measureErr = cpuTicksAll(d.nodes); measureErr != nil {
			break
		}
		if client[i], measureErr = selfCPU(); measureErr != nil {
			break
		}
		switch i {
		case 0:
			before, measureErr = scrapeAll(ctx, d.nodes)
		case slices:
			after, measureErr = scrapeAll(ctx, d.nodes)
		}
	}
	if measureErr != nil {
		stop()
	}
	wg.Wait()
	runtime.GOMAXPROCS(procs)
	if err := errors.Join(ctx.Err(), measureErr); err != nil {
		return nil, err
	}
	var hwmKiB int64
	for _, n := range d.nodes {
		kib, err := peakRSS(n.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		hwmKiB += kib
	}
	killAll(d.nodes)

	res := &e2eResult{attempted: len(samples)}
	if err := check(o.Seed, workload, samples, logPath, res); err != nil {
		return nil, err
	}
	lat := make([][]float64, slices) // ms, per slice
	for _, s := range samples {
		i := int((s.start - edges[0]) / width)
		if s.start >= edges[0] && i < slices && s.start+s.lat <= edges[i+1] {
			lat[i] = append(lat[i], float64(s.lat)/float64(time.Millisecond))
			res.samples++
		}
	}
	// Per slice, raw and scaled to the reference client speed.
	raw := make(map[string][]float64)
	scaled := make(map[string][]float64)
	for i, l := range lat {
		if len(l) == 0 {
			return nil, fmt.Errorf("no request completed inside measured slice %d", i)
		}
		sort.Float64s(l)
		n := float64(len(l))
		clientMS := float64(client[i+1]-client[i]) / float64(time.Millisecond) / n
		k := refClientMS[workload] / clientMS
		for name, v := range map[string]float64{
			"throughput_rps":        n / width.Seconds(),
			"latency_p50_ms":        quantile(l, 0.50),
			"latency_p99_ms":        quantile(l, 0.99),
			"server_cpu_ms_per_req": float64(cpu[i+1]-cpu[i]) * 1000 / clockTicksPerSecond / n,
		} {
			raw[name] = append(raw[name], v)
			if name == "throughput_rps" {
				scaled[name] = append(scaled[name], v/k)
			} else {
				scaled[name] = append(scaled[name], v*k)
			}
		}
		raw["client_cpu_ms_per_req"] = append(raw["client_cpu_ms_per_req"], clientMS)
	}
	res.metrics = map[string]float64{
		"peak_rss_mb": float64(hwmKiB) / 1024,
		"setup_s":     median(setups),
		"error_rate":  float64(res.failed) / float64(res.attempted),
	}
	res.raw = make(map[string]float64)
	for name, v := range raw {
		res.raw[name] = median(v)
	}
	for name, v := range scaled {
		res.metrics[name] = median(v)
	}
	res.counters = counterRatios(before, after, float64(res.samples))
	return res, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// counterRatios turns /metrics deltas over the window into the per-layer
// ratios marked † in the README, each given per window request unless its
// name says otherwise.
func counterRatios(before, after map[string]float64, requests float64) map[string]float64 {
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := delta("solverd_cache_hits_total"), delta("solverd_cache_misses_total")
	forwards := delta("solverd_cluster_forwards_total")
	return map[string]float64{
		"admission.coalesced_ratio":     ratio(delta("solverd_admission_coalesced_total"), requests),
		"admission.over_capacity_ratio": ratio(delta("solverd_admission_over_capacity_total"), requests),
		"server.cache_hit_ratio":        ratio(hits, hits+misses),
		"server.extend_ratio":           ratio(delta("solverd_solve_extends_total"), requests),
		"server.solves_per_req":         ratio(delta("solverd_solves_total"), requests),
		"server.step_pops_per_req":      ratio(delta("solverd_solve_step_populations_total"), requests),
		"cluster.forwards_per_req":      ratio(forwards, requests),
		"cluster.forward_failure_ratio": ratio(delta("solverd_cluster_forward_failures_total"), forwards),
		"cluster.hedges_per_req":        ratio(delta("solverd_cluster_hedges_total"), requests),
	}
}

// oracleSample is how many cold-deep replies the oracle recomputes: every
// cold-deep request is a fresh deep solve, so checking all of them would cost
// as much CPU as the window itself.
const oracleSample = 256

// check marks every failed sample: a transport error, a non-200 status, a
// cached flag the stream rules out, or a reply the oracle disagrees with. Any
// panic line in the solverd log fails the run as a whole.
func check(seed int64, workload string, samples []sample, logPath string, res *e2eResult) error {
	verify := make([]*request, 0, len(samples))
	for _, s := range samples {
		verify = append(verify, s.req)
	}
	if workload == coldDeep && len(verify) > oracleSample {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x6f7261636c65)) // "oracle"
		rng.Shuffle(len(verify), func(i, j int) { verify[i], verify[j] = verify[j], verify[i] })
		verify = verify[:oracleSample]
	}
	want := expect(verify)
	mayBeCached := mayBeServedByAnother(samples)
	for i := range samples {
		s := &samples[i]
		e, checked := want[s.req.idx]
		switch {
		case s.err != nil:
			s.failed = s.err.Error()
		case s.status != http.StatusOK:
			s.failed = fmt.Sprintf("status %d", s.status)
		case s.req.expect == cachedTrue && s.cached != 1:
			s.failed = "reply not cached, but the key is primed past maxN"
		case s.req.expect == cachedFalse && s.cached != 0 && !mayBeCached[s.req.idx]:
			s.failed = "reply cached, but no other request for the key could have served it"
		case checked && e.err != nil:
			s.failed = "oracle: " + e.err.Error()
		case checked && s.crc != e.crc:
			s.failed = "reply differs from the oracle's"
		}
		if s.failed != "" {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("request %d (%s maxN=%d): %s", s.req.idx, s.req.path(), s.req.maxN, s.failed))
			}
		}
	}
	panics, err := logPanics(logPath)
	if err != nil {
		return err
	}
	if panics > 0 {
		res.failed += panics
		res.failures = append(res.failures, fmt.Sprintf("%d panic line(s) in %s", panics, logPath))
	}
	return nil
}

// mayBeServedByAnother reports the solve requests whose reply may
// legitimately be cached although the stream dispatched nothing this far
// before them. Another request for the same key either asked at least as far
// and was sent before this one completed (it may have reached the server
// first), or was in flight at the same time (this request may have joined
// its coalescer flight, which raises a flight's target until its leader
// starts solving).
func mayBeServedByAnother(samples []sample) map[int]bool {
	byKey := make(map[*variant][]*sample)
	for i := range samples {
		if s := &samples[i]; !s.req.sweep {
			byKey[s.req.v] = append(byKey[s.req.v], s)
		}
	}
	out := make(map[int]bool)
	for _, ss := range byKey {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		// Over the first k sends: the two largest maxN (so a request can
		// look past itself) and the latest completion.
		type prefix struct {
			n1, at1, n2 int
			end         time.Duration
		}
		pre := make([]prefix, len(ss)+1)
		for k, s := range ss {
			p := pre[k]
			switch n := s.req.maxN; {
			case n > p.n1:
				p.n1, p.at1, p.n2 = n, k, p.n1
			case n > p.n2:
				p.n2 = n
			}
			p.end = max(p.end, s.start+s.lat)
			pre[k+1] = p
		}
		for k, s := range ss {
			end := s.start + s.lat
			sent := sort.Search(len(ss), func(i int) bool { return ss[i].start >= end })
			further := pre[sent].n1
			if pre[sent].at1 == k {
				further = pre[sent].n2
			}
			concurrent := sent > k+1 || pre[k].end > s.start
			out[s.req.idx] = further >= s.req.maxN || concurrent
		}
	}
	return out
}
