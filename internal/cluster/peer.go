package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// fleetTimeout bounds one fleet collection round (trace, events, self).
// Those reads are small and in memory, so a member that cannot answer in
// this window is listed as missing rather than stalling the fleet view.
const fleetTimeout = 5 * time.Second

// errPeerNotFound is getJSON's report of a clean 404: the peer answered but
// has nothing (no such trace, journal or recorder disabled, no self model).
var errPeerNotFound = errors.New("cluster: peer answered 404")

// newPeerRequest builds every request the fabric sends to a peer. It carries
// the cluster secret when one is configured and the caller's trace ID as
// X-Request-Id, so a traced request is found under one ID in every node's
// access log; an untraced caller (a health probe) gets a fresh ID so no hop
// is anonymous. parentSpan, when set, names the sending span for cross-node
// stitching.
func newPeerRequest(ctx context.Context, method, url, secret string, body []byte, parentSpan string) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if secret != "" {
		req.Header.Set(headerSecret, secret)
	}
	id := telemetry.FromContext(ctx).ID()
	if !telemetry.ValidID(id) {
		id = telemetry.NewID()
	}
	req.Header.Set("X-Request-Id", id)
	if parentSpan != "" {
		req.Header.Set("X-Parent-Span", parentSpan)
	}
	return req, nil
}

// getJSON GETs path from peer and decodes a 200 body of at most limit bytes
// into a T. A 404 returns errPeerNotFound, so each caller decides whether
// "nothing here" counts as an answer; any other status, a transport error or
// an undecodable payload (logged under what) is a failure.
func getJSON[T any](ctx context.Context, g *Gateway, peer, path string, limit int64, what string) (T, error) {
	var v T
	req, err := newPeerRequest(ctx, http.MethodGet, "http://"+peer+path, g.cfg.Secret, nil, "")
	if err != nil {
		return v, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusNotFound {
			return v, errPeerNotFound
		}
		return v, fmt.Errorf("cluster: peer %s answered %d", peer, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		g.cfg.Logger.Warn("cluster: bad "+what+" payload", "peer", peer, "error", err)
		return v, err
	}
	return v, nil
}

// nodeResult is one member's answer in a fleet fan-out; ok=false means the
// member could not answer and is reported missing.
type nodeResult[T any] struct {
	node string
	val  T
	ok   bool
}

// fanOut asks every peer through fetch at once under one timeout, each
// goroutine writing only its own slot, and returns the answers in ring
// order: local (when non-nil) in slot 0, then the peers in the order given.
func fanOut[T any](ctx context.Context, timeout time.Duration, local *nodeResult[T], peers []string,
	fetch func(ctx context.Context, peer string) (T, bool)) []nodeResult[T] {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	results := make([]nodeResult[T], 0, 1+len(peers))
	if local != nil {
		results = append(results, *local)
	}
	base := len(results)
	results = results[:base+len(peers)]
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(slot *nodeResult[T]) {
			defer wg.Done()
			v, ok := fetch(ctx, peer)
			*slot = nodeResult[T]{node: peer, val: v, ok: ok}
		}(&results[base+i])
	}
	wg.Wait()
	return results
}
