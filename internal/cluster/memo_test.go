package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/server"
)

// TestGatewayLocalHitsServeMemoBytes: prefix hits answered on the gateway's
// local path (the key's owner) and relayed through a forward (the other node)
// carry trajectory bytes identical to a cold solve, with a Content-Length —
// the owner's row text memo serves cluster mode too.
func TestGatewayLocalHitsServeMemoBytes(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	const cachedN = 60
	req := solveRequest(1, cachedN)
	owner := nodes[0].gw.Ring().Owners(keyOf(t, req), 1)[0]
	var ownerNode, entryNode *testNode
	for _, n := range nodes {
		if n.addr == owner {
			ownerNode = n
		} else {
			entryNode = n
		}
	}
	if resp, body := postJSON(t, "http://"+owner+"/v1/solve", req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve: %d %s", resp.StatusCode, body)
	}
	cold := server.New(server.Config{CacheSize: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
	for _, maxN := range []int{1, 17, 30, 59, 60} {
		req := solveRequest(1, maxN)
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		cold.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(raw)))
		want := trajectoryBytes(t, rec.Body.Bytes())
		for _, via := range []*testNode{ownerNode, entryNode} {
			resp, body := postJSON(t, "http://"+via.addr+"/v1/solve", req, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("maxN=%d via %s: %d %s", maxN, via.addr, resp.StatusCode, body)
			}
			if peer := resp.Header.Get(headerPeer); peer != owner {
				t.Errorf("maxN=%d via %s: served by %q, want the owner %s", maxN, via.addr, peer, owner)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Errorf("maxN=%d via %s: Content-Length %q for a %d-byte body", maxN, via.addr, cl, len(body))
			}
			var out struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal(body, &out); err != nil || !out.Cached {
				t.Errorf("maxN=%d via %s: not a hit (%v)", maxN, via.addr, err)
			}
			if got := trajectoryBytes(t, body); !bytes.Equal(got, want) {
				t.Errorf("maxN=%d via %s: trajectory differs from a cold solve:\n got %s\nwant %s", maxN, via.addr, got, want)
			}
		}
	}
}

// trajectoryBytes extracts a solve reply's raw trajectory JSON.
func trajectoryBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	var out struct {
		Trajectory json.RawMessage `json:"trajectory"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Trajectory
}
