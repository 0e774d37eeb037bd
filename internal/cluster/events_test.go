package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestClusterFleetTimeline is the fleet-stitch acceptance scenario: three
// nodes journal events (one of them with a badly skewed clock, one with
// journaling disabled entirely), a member is killed, and GET
// /cluster/v1/events on the survivor still serves one merged timeline —
// per-node sequence order preserved verbatim, globally ordered by wall time,
// with the dead member reported missing instead of stalling the collection.
func TestClusterFleetTimeline(t *testing.T) {
	journals := make(map[string]*journal.Journal)
	idx := 0
	nodes := startClusterTuned(t, 3, nil, func(addr string, c *server.Config) {
		i := idx
		idx++
		if i == 2 {
			return // node 2 runs without a journal (the 404-tolerant member)
		}
		cfg := journal.Config{Node: addr}
		if i == 1 {
			// An hour of clock skew: per-node causal order must survive it.
			cfg.Now = func() time.Time { return time.Now().Add(time.Hour) }
		}
		jn := journal.New(cfg)
		journals[addr] = jn
		c.Journal = jn
	})
	entry := nodes[0]

	for i := 0; i < 3; i++ {
		journals[nodes[0].addr].Append(journal.TypeRefit,
			fmt.Sprintf("n0 refit %d", i), journal.Event{TraceID: "trace-n0"})
		journals[nodes[1].addr].Append(journal.TypeDeviationBreach,
			fmt.Sprintf("n1 breach %d", i), journal.Event{})
	}

	getFleet := func(query string) FleetEvents {
		t.Helper()
		var out FleetEvents
		if err := json.Unmarshal(getBody(t, "http://"+entry.addr+"/cluster/v1/events"+query), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// All three members answer: the journal-less node contributes nothing but
	// is not missing.
	out := getFleet("")
	if out.Self != entry.addr {
		t.Errorf("self = %q", out.Self)
	}
	if len(out.Nodes) != 3 || len(out.Missing) != 0 {
		t.Fatalf("nodes = %v, missing = %v", out.Nodes, out.Missing)
	}

	nodes[2].kill(t)
	out = getFleet("")
	if len(out.Missing) != 1 || out.Missing[0] != nodes[2].addr {
		t.Fatalf("missing = %v, want the killed node %s", out.Missing, nodes[2].addr)
	}
	if len(out.Nodes) != 2 {
		t.Fatalf("surviving nodes = %v", out.Nodes)
	}

	// The merged timeline holds both survivors' events, each node's own
	// sequence order intact and the whole ordered by wall time.
	perNode := make(map[string][]journal.Event)
	for i, e := range out.Events {
		perNode[e.Node] = append(perNode[e.Node], e)
		if i > 0 && e.TimeUnixMS < out.Events[i-1].TimeUnixMS {
			t.Errorf("merged timeline not time-ordered at %d", i)
		}
	}
	for _, addr := range []string{nodes[0].addr, nodes[1].addr} {
		evs := perNode[addr]
		if len(evs) < 3 {
			t.Fatalf("node %s contributed %d events, want >= 3", addr, len(evs))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Errorf("node %s sequence order broken in the merge: %d after %d",
					addr, evs[i].Seq, evs[i-1].Seq)
			}
		}
	}
	// The skewed node's events sort after the others by wall time, yet its
	// internal order above is untouched — the skew-immunity contract.
	if last := out.Events[len(out.Events)-1]; last.Node != nodes[1].addr {
		t.Errorf("timeline tail from %s, want the hour-skewed node %s", last.Node, nodes[1].addr)
	}

	// Filters apply fleet-wide and the limit tails the merged result.
	if out := getFleet("?type=refit"); len(out.Events) != 3 {
		t.Errorf("fleet type filter kept %d events, want the 3 refits", len(out.Events))
	}
	for _, e := range getFleet("?trace=trace-n0").Events {
		if e.TraceID != "trace-n0" {
			t.Errorf("fleet trace filter leaked %+v", e)
		}
	}
	if out := getFleet("?limit=2"); len(out.Events) != 2 {
		t.Errorf("fleet limit kept %d events", len(out.Events))
	}

	// Bad parameters are rejected at the gateway, before any fan-out.
	for _, bad := range []string{"?type=nope", "?limit=-1", "?since=x"} {
		resp, err := http.Get("http://" + entry.addr + "/cluster/v1/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestClusterFleetTimelineSecret: with a shared secret the fleet timeline is
// part of the trust boundary.
func TestClusterFleetTimelineSecret(t *testing.T) {
	const secret = "squeamish-ossifrage"
	nodes := startClusterTuned(t, 2,
		func(c *Config) { c.Secret = secret },
		func(addr string, c *server.Config) {
			c.Journal = journal.New(journal.Config{Node: addr})
		})
	entry := nodes[0]

	resp, err := http.Get("http://" + entry.addr + "/cluster/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("events without secret: %d, want 403", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, "http://"+entry.addr+"/cluster/v1/events", nil)
	req.Header.Set(headerSecret, secret)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events with secret: %d, want 200", resp.StatusCode)
	}
	var out FleetEvents
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// The authenticated fan-out reached the peer too — both members present.
	if len(out.Nodes) != 2 || len(out.Missing) != 0 {
		t.Fatalf("nodes = %v, missing = %v (secret not forwarded to peers?)", out.Nodes, out.Missing)
	}
}

// TestFetchSelfReusesCallerTraceID covers the redirect-observability fix: the
// headroom sub-request a redirecting node sends stays under the original
// request's X-Request-Id, so the redirect decision shows up in the same trace
// as the request it diverted. Untraced callers still get a fresh valid id.
func TestFetchSelfReusesCallerTraceID(t *testing.T) {
	nodes := startCluster(t, 2, nil)

	gotIDs := make(chan string, 2)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotIDs <- r.Header.Get("X-Request-Id")
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	defer fake.Close()
	fakeAddr := fake.Listener.Addr().String()

	traceID := telemetry.NewID()
	ctx := telemetry.WithTrace(context.Background(), telemetry.New(traceID, nil))
	if _, ok := nodes[0].gw.peerSelf(ctx, fakeAddr); !ok {
		t.Fatal("traced peerSelf failed")
	}
	if got := <-gotIDs; got != traceID {
		t.Errorf("traced sub-request carried id %q, want the caller's %q", got, traceID)
	}

	if _, ok := nodes[0].gw.peerSelf(context.Background(), fakeAddr); !ok {
		t.Fatal("untraced peerSelf failed")
	}
	if got := <-gotIDs; !telemetry.ValidID(got) {
		t.Errorf("untraced sub-request carried invalid id %q", got)
	}
}
