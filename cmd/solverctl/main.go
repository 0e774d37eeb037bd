// Command solverctl is the operator's view into a solverd node or cluster:
// it lists the flight recorder's retained traces, renders stitched cross-node
// trace trees, watches in-flight solves and peer health live, aggregates
// cluster-wide status, and renders the node's online demand estimate.
//
// Usage:
//
//	solverctl [-addr 127.0.0.1:8080] [-secret s] [-timeout 10s] traces
//	solverctl [flags] trace <id>
//	solverctl [flags] top [-interval 1s] [-iterations 0]
//	solverctl [flags] status
//	solverctl [flags] demands
//	solverctl [flags] headroom
//	solverctl [flags] events [-type t] [-event-trace id] [-limit 50]
//	solverctl [flags] profile <id> [-kind cpu|heap] [-o file]
//
// trace asks the node's cluster stitch endpoint (GET /cluster/v1/trace/{id})
// first, so one command renders a tree spanning every member that touched the
// request; against a standalone node it falls back to the local fragments
// (GET /debug/traces/{id}) and stitches them itself. events renders the
// fleet's merged event journal the same way (GET /cluster/v1/events, falling
// back to the node's own GET /debug/events), annotating each event with its
// linked trace and captured profile ids; profile downloads one anomaly
// capture's raw pprof proto for `go tool pprof`. -secret is required when
// the cluster gates its fabric endpoints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "solverctl:", err)
		os.Exit(1)
	}
}

const usage = `usage: solverctl [flags] <command>

commands:
  traces        list the node's retained flight-recorder traces
  trace <id>    render one trace as a stitched cross-node span tree
  top           live view of in-flight solves and peer health
  status        cluster-wide status aggregation
  demands       the online demand estimate: fitted curves + estimator health
  headroom      fleet self-model table: predicted saturation knee + headroom
  events        fleet-merged event journal timeline (breaches, breaker trips, sheds, ...)
  profile <id>  download one anomaly pprof capture for go tool pprof

flags:
`

type ctl struct {
	addr   string
	secret string
	client *http.Client
	out    io.Writer
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("solverctl", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8080", "solverd node to talk to (host:port)")
	secret := fs.String("secret", "", "cluster secret for gated fabric endpoints")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	interval := fs.Duration("interval", time.Second, "refresh interval for top")
	iterations := fs.Int("iterations", 0, "top refresh count (0 runs until interrupted)")
	eventType := fs.String("type", "", "events: keep only one event type")
	eventTrace := fs.String("event-trace", "", "events: keep only events carrying this trace id")
	eventLimit := fs.Int("limit", 50, "events: newest events to show (0 shows all retained)")
	profileKind := fs.String("kind", "cpu", "profile: which capture to fetch (cpu or heap)")
	profileOut := fs.String("o", "", "profile: output file (default <id>-<kind>.pb.gz)")
	fs.Usage = func() {
		fmt.Fprint(out, usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &ctl{
		addr:   *addr,
		secret: *secret,
		client: &http.Client{Timeout: *timeout},
		out:    out,
	}
	switch cmd := fs.Arg(0); cmd {
	case "traces":
		return c.traces()
	case "trace":
		id := fs.Arg(1)
		if id == "" {
			return fmt.Errorf("trace needs an id (see `solverctl traces`)")
		}
		return c.trace(id)
	case "top":
		return c.top(*interval, *iterations)
	case "status":
		return c.status()
	case "demands":
		return c.demands()
	case "headroom":
		return c.headroom()
	case "events":
		return c.events(*eventType, *eventTrace, *eventLimit)
	case "profile":
		id := fs.Arg(1)
		if id == "" {
			return fmt.Errorf("profile needs an id (see `solverctl events` or GET /debug/profiles)")
		}
		return c.profile(id, *profileKind, *profileOut)
	case "":
		fs.Usage()
		return fmt.Errorf("no command")
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// getJSON fetches one endpoint into v. Non-2xx responses surface the
// server's JSON error text under the path.
func (c *ctl) getJSON(path string, v any) (int, error) {
	code, body, err := c.get(path, path)
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(body, v)
}

// get fetches one endpoint's raw body, attaching the cluster secret and a
// fresh request ID. A non-200 answer is an error named by what, carrying the
// server's JSON error text when it sent one; the status is returned either
// way so callers can tell a refused secret from a missing endpoint.
func (c *ctl) get(path, what string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+c.addr+path, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-Id", telemetry.NewID())
	if c.secret != "" {
		req.Header.Set("X-Cluster-Secret", c.secret)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return resp.StatusCode, nil, fmt.Errorf("%s: %s", what, e.Error)
		}
		return resp.StatusCode, nil, fmt.Errorf("%s: status %d", what, resp.StatusCode)
	}
	return resp.StatusCode, body, nil
}

// traces lists the node's flight-recorder index, newest first.
func (c *ctl) traces() error {
	var idx server.TraceIndexResponse
	if _, err := c.getJSON("/debug/traces", &idx); err != nil {
		return err
	}
	s := idx.Stats
	fmt.Fprintf(c.out, "node %s: %d traces, %d spans, %s retained (kept %d, dropped %d, evicted %d)\n\n",
		idx.Node, s.Traces, s.Spans, fmtBytes(s.Bytes), s.Kept, s.Dropped, s.Evictions)
	if len(idx.Traces) == 0 {
		fmt.Fprintln(c.out, "no retained traces")
		return nil
	}
	fmt.Fprintf(c.out, "%-34s %-16s %6s %10s %5s %5s %s\n",
		"TRACE", "HANDLER", "STATUS", "DURATION", "REQS", "SPANS", "FLAGS")
	for _, t := range idx.Traces {
		var flags []string
		if t.Slow {
			flags = append(flags, "slow")
		}
		if t.Error {
			flags = append(flags, "error")
		}
		fmt.Fprintf(c.out, "%-34s %-16s %6d %10s %5d %5d %s\n",
			t.ID, t.Handler, t.Status, fmtDuration(t.Duration),
			t.Requests, t.Spans, strings.Join(flags, ","))
	}
	return nil
}

// trace renders one trace tree: stitched cluster-wide when the node serves
// the fabric's stitch endpoint, locally stitched otherwise.
func (c *ctl) trace(id string) error {
	var st cluster.StitchedTrace
	if _, err := c.getJSON("/cluster/v1/trace/"+id, &st); err == nil {
		if strings.TrimSpace(st.Tree) == "" {
			return fmt.Errorf("trace %s: empty tree", id)
		}
		fmt.Fprintf(c.out, "trace %s: %d fragment(s) from %s\n",
			st.ID, len(st.Fragments), strings.Join(st.Nodes, ", "))
		if len(st.Missing) > 0 {
			fmt.Fprintf(c.out, "unreachable members (fragments lost): %s\n", strings.Join(st.Missing, ", "))
		}
		fmt.Fprintln(c.out)
		fmt.Fprint(c.out, st.Tree)
		return nil
	}
	// Standalone node (no gateway) — stitch its local fragments ourselves.
	var tres server.TraceResponse
	if _, err := c.getJSON("/debug/traces/"+id, &tres); err != nil {
		return err
	}
	roots := obs.Stitch(tres.Fragments)
	if len(roots) == 0 {
		return fmt.Errorf("trace %s: no spans", id)
	}
	fmt.Fprintf(c.out, "trace %s: %d fragment(s) from %s (local stitch)\n\n",
		id, len(tres.Fragments), tres.Node)
	obs.RenderTree(c.out, roots)
	return nil
}

// clusterStatusView mirrors the gateway's GET /cluster/v1/status body.
type clusterStatusView struct {
	Self        string   `json:"self"`
	Replication int      `json:"replication"`
	RingNodes   []string `json:"ringNodes"`
	Peers       []struct {
		Peer    string `json:"peer"`
		Up      bool   `json:"up"`
		Breaker string `json:"breaker"`
	} `json:"peers"`
}

// nodeStatusView is the subset of GET /v1/status that top and status render.
type nodeStatusView struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Workers       int     `json:"workers"`
	CacheCapacity int     `json:"cacheCapacity"`
	Cache         []struct {
		Key string `json:"key"`
	} `json:"cache"`
	InFlight []struct {
		ID        string  `json:"id"`
		Algorithm string  `json:"algorithm"`
		FromN     int     `json:"fromN"`
		CurrentN  int64   `json:"currentN"`
		TargetN   int     `json:"targetN"`
		ElapsedMS float64 `json:"elapsedMs"`
	} `json:"inFlight"`
	Journal  *journal.Stats        `json:"journal"`
	Profiles *journal.ProfileStats `json:"profiles"`
}

// top renders a refreshing view of the node's in-flight solves and (in
// cluster mode) its peers' health. iterations 0 refreshes until the process
// is interrupted.
func (c *ctl) top(interval time.Duration, iterations int) error {
	for i := 0; ; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Fprint(c.out, "\033[H\033[2J") // home + clear: redraw in place
		}
		if err := c.topFrame(); err != nil {
			return err
		}
		if iterations > 0 && i+1 >= iterations {
			return nil
		}
	}
}

func (c *ctl) topFrame() error {
	var st nodeStatusView
	if _, err := c.getJSON("/v1/status", &st); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "solverd %s  up %s  workers %d  cache %d/%d\n",
		c.addr, fmtDuration(time.Duration(st.UptimeSeconds*float64(time.Second))),
		st.Workers, len(st.Cache), st.CacheCapacity)
	if st.Journal != nil {
		fmt.Fprintf(c.out, "journal: %d event(s) retained, %d appended, %d evicted",
			st.Journal.Stored, st.Journal.Appended, st.Journal.Evicted)
		if st.Profiles != nil && st.Profiles.LastCaptureUnixMS > 0 {
			fmt.Fprintf(c.out, "  last profile capture %s",
				time.UnixMilli(st.Profiles.LastCaptureUnixMS).UTC().Format("15:04:05"))
		}
		fmt.Fprintln(c.out)
	}

	fmt.Fprintf(c.out, "\nin-flight solves (%d):\n", len(st.InFlight))
	if len(st.InFlight) == 0 {
		fmt.Fprintln(c.out, "  (idle)")
	}
	for _, f := range st.InFlight {
		pct := 0.0
		if f.TargetN > 0 {
			pct = 100 * float64(f.CurrentN) / float64(f.TargetN)
		}
		fmt.Fprintf(c.out, "  %-34s %-12s N %6d/%-6d (%5.1f%%)  from %d  %8.1fms\n",
			f.ID, f.Algorithm, f.CurrentN, f.TargetN, pct, f.FromN, f.ElapsedMS)
	}

	var cs clusterStatusView
	if code, err := c.getJSON("/cluster/v1/status", &cs); err != nil {
		if code == http.StatusForbidden {
			return err // wrong secret is worth surfacing, not hiding
		}
		fmt.Fprintln(c.out, "\n(standalone node — no cluster fabric)")
		return nil
	}
	fmt.Fprintf(c.out, "\npeers (ring %d/%d members, replication %d):\n",
		len(cs.RingNodes), 1+len(cs.Peers), cs.Replication)
	fmt.Fprintf(c.out, "  %-24s %-6s %s\n", "PEER", "UP", "BREAKER")
	fmt.Fprintf(c.out, "  %-24s %-6s %s\n", cs.Self, "self", "-")
	for _, p := range cs.Peers {
		up := "down"
		if p.Up {
			up = "up"
		}
		fmt.Fprintf(c.out, "  %-24s %-6s %s\n", p.Peer, up, p.Breaker)
	}
	return nil
}

// status aggregates cluster-wide state: every ring member's uptime, cache
// occupancy, in-flight solves and flight-recorder footprint in one table.
func (c *ctl) status() error {
	var cs clusterStatusView
	if code, err := c.getJSON("/cluster/v1/status", &cs); err != nil {
		if code == http.StatusForbidden {
			return err
		}
		// Standalone node: the single-node view is the whole story.
		fmt.Fprintf(c.out, "standalone node %s\n\n", c.addr)
		return c.topFrame()
	}
	members := append([]string{}, cs.RingNodes...)
	// Ring members are the live ones; down peers still deserve a row.
	for _, p := range cs.Peers {
		if !p.Up {
			members = append(members, p.Peer)
		}
	}
	sort.Strings(members)

	fmt.Fprintf(c.out, "cluster via %s: %d/%d members in the ring, replication %d\n\n",
		cs.Self, len(cs.RingNodes), 1+len(cs.Peers), cs.Replication)
	fmt.Fprintf(c.out, "%-24s %-6s %10s %10s %9s %8s %8s %8s %8s %9s\n",
		"NODE", "RING", "UPTIME", "CACHE", "INFLIGHT", "TRACES", "SPANS", "EVENTS", "EVICTED", "LASTCAP")
	var totCache, totInFlight, totTraces, totSpans, totEvents int
	for _, m := range members {
		inRing := false
		for _, rn := range cs.RingNodes {
			if rn == m {
				inRing = true
			}
		}
		ring := "out"
		if inRing {
			ring = "in"
		}
		peer := &ctl{addr: m, secret: c.secret, client: c.client, out: c.out}
		var st nodeStatusView
		if _, err := peer.getJSON("/v1/status", &st); err != nil {
			fmt.Fprintf(c.out, "%-24s %-6s %10s\n", m, ring, "unreachable")
			continue
		}
		traces, spans := -1, -1
		var idx server.TraceIndexResponse
		if _, err := peer.getJSON("/debug/traces", &idx); err == nil {
			traces, spans = idx.Stats.Traces, idx.Stats.Spans
			totTraces += traces
			totSpans += spans
		}
		events, evicted := -1, -1
		if st.Journal != nil {
			events, evicted = st.Journal.Stored, int(st.Journal.Evicted)
			totEvents += events
		}
		lastCap := "-"
		if st.Profiles != nil && st.Profiles.LastCaptureUnixMS > 0 {
			lastCap = time.UnixMilli(st.Profiles.LastCaptureUnixMS).UTC().Format("15:04:05")
		}
		totCache += len(st.Cache)
		totInFlight += len(st.InFlight)
		fmt.Fprintf(c.out, "%-24s %-6s %10s %10d %9d %8s %8s %8s %8s %9s\n",
			m, ring, fmtDuration(time.Duration(st.UptimeSeconds*float64(time.Second))),
			len(st.Cache), len(st.InFlight), fmtCount(traces), fmtCount(spans),
			fmtCount(events), fmtCount(evicted), lastCap)
	}
	fmt.Fprintf(c.out, "\ntotals: %d cached trajectories, %d in-flight solves, %d retained traces (%d spans), %d journal events\n",
		totCache, totInFlight, totTraces, totSpans, totEvents)
	return nil
}

// demands renders GET /v1/demands: the fitted demand curves the node's
// /v1/whatif planner solves over, with the estimator's per-station ingest
// health underneath.
func (c *ctl) demands() error {
	var d modelio.DemandsResponse
	if _, err := c.getJSON("/v1/demands", &d); err != nil {
		return err
	}
	if d.SnapshotVersion == 0 {
		fmt.Fprintf(c.out, "node %s: no demand snapshot yet (stream samples via POST /v1/observe, then fit)\n", c.addr)
	} else {
		name := ""
		if d.Model != nil {
			name = d.Model.Name
		}
		fmt.Fprintf(c.out, "node %s: demand snapshot v%d  model %q  interp %s  fits %d  fitted %s\n",
			c.addr, d.SnapshotVersion, name, d.Interp, d.Fits,
			time.UnixMilli(d.FittedAtUnixMS).UTC().Format(time.RFC3339))
		if len(d.Triggers) > 0 {
			reasons := make([]string, 0, len(d.Triggers))
			for r := range d.Triggers {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			parts := make([]string, 0, len(reasons))
			for _, r := range reasons {
				parts = append(parts, fmt.Sprintf("%s=%d", r, d.Triggers[r]))
			}
			fmt.Fprintf(c.out, "re-estimations: %s\n", strings.Join(parts, "  "))
		}
		fmt.Fprintf(c.out, "\n%-16s %6s %10s  %s\n", "STATION", "POINTS", "RESIDUAL", "FITTED CURVE n:D(n) [s]")
		for _, st := range d.Stations {
			var curve strings.Builder
			for i, n := range st.Nodes {
				if i > 0 {
					curve.WriteByte(' ')
				}
				fmt.Fprintf(&curve, "%g:%.4g", n, st.Demands[i])
			}
			fmt.Fprintf(c.out, "%-16s %6d %10.3g  %s\n", st.Name, st.Points, st.Residual, curve.String())
		}
	}
	if len(d.Health) > 0 {
		fmt.Fprintf(c.out, "\n%-16s %9s %9s %7s %6s %10s\n",
			"STATION", "ACCEPTED", "REJECTED", "RESETS", "CELLS", "FIT-READY")
		for _, h := range d.Health {
			fmt.Fprintf(c.out, "%-16s %9d %9d %7d %6d %10d\n",
				h.Name, h.Accepted, h.Rejected, h.Resets, h.Cells, h.FitReady)
		}
	}
	if d.LastFitError != "" {
		fmt.Fprintf(c.out, "\nlast fit error: %s\n", d.LastFitError)
	}
	return nil
}

// headroom renders the fleet's self-model table: each member's predicted
// saturation knee and remaining safe concurrency (GET /cluster/v1/self),
// falling back to the node's own GET /v1/self against a standalone node.
func (c *ctl) headroom() error {
	var cs modelio.ClusterSelfResponse
	if code, err := c.getJSON("/cluster/v1/self", &cs); err != nil {
		if code == http.StatusForbidden {
			return err
		}
		// Standalone node: render its single self-model.
		var sr modelio.SelfResponse
		if _, err := c.getJSON("/v1/self", &sr); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "standalone node %s\n\n", c.addr)
		c.headroomHeader()
		c.headroomRow(c.addr, &sr)
		return nil
	}
	fmt.Fprintf(c.out, "fleet headroom via %s: %d/%d node(s) ready  (%.1fms)\n\n",
		cs.Self, cs.ReadyNodes, len(cs.Nodes), cs.ElapsedMS)
	c.headroomHeader()
	for _, n := range cs.Nodes {
		if n.Self == nil {
			fmt.Fprintf(c.out, "%-24s %s\n", n.Member, n.Error)
			continue
		}
		c.headroomRow(n.Member, n.Self)
	}
	fmt.Fprintf(c.out, "\nfleet: %d in-flight of %d max-safe, headroom %d",
		cs.FleetInFlight, cs.FleetMaxSafe, cs.FleetHeadroom)
	if cs.ShedAdvised {
		fmt.Fprint(c.out, "  SHED ADVISED")
	}
	fmt.Fprintln(c.out)
	if len(cs.Missing) > 0 {
		fmt.Fprintf(c.out, "unreachable members: %s\n", strings.Join(cs.Missing, ", "))
	}
	return nil
}

func (c *ctl) headroomHeader() {
	fmt.Fprintf(c.out, "%-24s %-7s %7s %8s %6s %8s %8s %9s %-6s %6s %6s %6s\n",
		"NODE", "READY", "WORKERS", "INFLIGHT", "KNEE", "MAXSAFE", "HEADROOM", "PRED-P50",
		"ADVISE", "SHED", "REDIR", "COAL")
}

func (c *ctl) headroomRow(member string, sr *modelio.SelfResponse) {
	// The admission counters are reported even while the self-model warms:
	// observe mode counts over-capacity arrivals from the first request.
	shed, redir, coal := "-", "-", "-"
	if a := sr.Admission; a != nil {
		shed = fmt.Sprintf("%d", a.Shed)
		redir = fmt.Sprintf("%d", a.Redirected)
		coal = fmt.Sprintf("%d", a.Coalesced)
	}
	if !sr.Ready {
		fmt.Fprintf(c.out, "%-24s %-7s %7d %8d %6s %8s %8s %9s %-6s %6s %6s %6s\n",
			member, "warming", sr.Workers, sr.InFlight, "-", "-", "-", "-", "-",
			shed, redir, coal)
		return
	}
	knee := "-"
	if sr.Saturated {
		knee = fmt.Sprintf("%d", sr.KneeN)
	}
	advise := "no"
	if sr.ShedAdvised {
		advise = "YES"
	}
	fmt.Fprintf(c.out, "%-24s %-7s %7d %8d %6s %8d %8d %9s %-6s %6s %6s %6s\n",
		member, "yes", sr.Workers, sr.InFlight, knee, sr.MaxSafeN, sr.Headroom,
		fmtDuration(time.Duration(sr.PredictedP50Seconds*float64(time.Second))), advise,
		shed, redir, coal)
}

// events renders the journal timeline: fleet-merged through the gateway's
// GET /cluster/v1/events when the node runs a cluster fabric, the node's own
// GET /debug/events otherwise. Events carrying a trace or profile id get the
// annotation inline — the id feeds `solverctl trace` / `solverctl profile`.
func (c *ctl) events(typ, traceID string, limit int) error {
	q := url.Values{}
	if typ != "" {
		q.Set("type", typ)
	}
	if traceID != "" {
		q.Set("trace", traceID)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprintf("%d", limit))
	}
	qs := ""
	if len(q) > 0 {
		qs = "?" + q.Encode()
	}
	var fe cluster.FleetEvents
	if code, err := c.getJSON("/cluster/v1/events"+qs, &fe); err != nil {
		if code == http.StatusForbidden {
			return err
		}
		// Standalone node (no gateway) — render its local journal.
		var er server.EventsResponse
		if _, err := c.getJSON("/debug/events"+qs, &er); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "node %s: %d event(s) shown of %d appended (%d evicted)\n\n",
			er.Node, len(er.Events), er.Stats.Appended, er.Stats.Evicted)
		c.renderEvents(er.Events)
		return nil
	}
	fmt.Fprintf(c.out, "fleet timeline via %s: %d event(s) from %s\n",
		fe.Self, len(fe.Events), strings.Join(fe.Nodes, ", "))
	if len(fe.Missing) > 0 {
		fmt.Fprintf(c.out, "unreachable members (history lost): %s\n", strings.Join(fe.Missing, ", "))
	}
	fmt.Fprintln(c.out)
	c.renderEvents(fe.Events)
	return nil
}

func (c *ctl) renderEvents(events []journal.Event) {
	if len(events) == 0 {
		fmt.Fprintln(c.out, "no events retained")
		return
	}
	for _, e := range events {
		ts := time.UnixMilli(e.TimeUnixMS).UTC().Format("15:04:05.000")
		fmt.Fprintf(c.out, "%s %-22s %-17s %s", ts, e.Node, e.Type, e.Message)
		if e.TraceID != "" {
			fmt.Fprintf(c.out, "  trace=%s", e.TraceID)
		}
		if e.ProfileID != "" {
			fmt.Fprintf(c.out, "  profile=%s", e.ProfileID)
		}
		fmt.Fprintln(c.out)
	}
}

// profile downloads one anomaly capture's raw pprof proto (GET
// /debug/profiles/{id}) into a local file ready for `go tool pprof`.
func (c *ctl) profile(id, kind, outFile string) error {
	switch kind {
	case "cpu", "heap":
	default:
		return fmt.Errorf("bad -kind %q (want cpu or heap)", kind)
	}
	_, body, err := c.get("/debug/profiles/"+url.PathEscape(id)+"?kind="+kind, "profile "+id)
	if err != nil {
		return err
	}
	if outFile == "" {
		outFile = fmt.Sprintf("%s-%s.pb.gz", id, kind)
	}
	if err := os.WriteFile(outFile, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "wrote %s (%s)\nanalyze with: go tool pprof %s\n",
		outFile, fmtBytes(len(body)), outFile)
	return nil
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtCount renders a count, or "-" for the -1 "recorder disabled" sentinel.
func fmtCount(n int) string {
	if n < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}
