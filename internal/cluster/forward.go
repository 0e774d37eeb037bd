package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// fwdResult is one peer's answer to a forwarded request.
type fwdResult struct {
	peer        string
	status      int
	contentType string
	body        []byte
	err         error
	// hedged marks a result produced by a backup request launched after the
	// hedge delay — a winning hedged result is the "hedge_win" outcome.
	hedged bool
}

// good reports whether the result should be returned to the client: a clean
// round-trip with a non-5xx status. Peer 4xx responses are "good" — they are
// the request's fault, not the peer's, and retrying elsewhere cannot fix
// them — while transport errors and 5xx feed the failover ladder.
func (r fwdResult) good() bool { return r.err == nil && r.status < 500 }

// peerErrorMessage extracts the error text of a peer's non-200 JSON reply.
func peerErrorMessage(r fwdResult) string {
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(r.body, &body); err == nil && body.Error != "" {
		return body.Error
	}
	return fmt.Sprintf("peer %s returned status %d", r.peer, r.status)
}

// forward pushes one request through the key's remote candidates: up to
// MaxAttempts rounds over the candidate list (exponential backoff with
// jitter between rounds), and within a round a hedged race — the primary
// peer gets a head start of its own recent latency percentile, then the next
// candidate is launched alongside it. Per-peer circuit breakers gate every
// attempt. ok=false means every candidate is down, broken or failing and the
// caller should serve locally.
func (g *Gateway) forward(ctx context.Context, key, path string, body []byte, candidates []string) (fwdResult, bool) {
	remotes := make([]string, 0, len(candidates))
	for _, c := range candidates {
		if c != g.cfg.Self {
			remotes = append(remotes, c)
		}
	}
	if len(remotes) == 0 {
		return fwdResult{}, false
	}
	start := time.Now()
	traceID := telemetry.FromContext(ctx).ID()
	fallback := func() (fwdResult, bool) {
		g.metrics.observeForward("fallback", time.Since(start).Seconds(), traceID)
		return fwdResult{}, false
	}
	backoff := g.cfg.RetryBackoff
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter on top of the doubled base keeps retry rounds from
			// synchronizing across gateways hammering the same dead peer.
			delay := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
			backoff *= 2
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return fallback()
			}
		}
		if res, ok := g.forwardRound(ctx, path, body, remotes); ok {
			outcome := "ok"
			switch {
			case attempt > 0:
				outcome = "retry"
			case res.hedged:
				outcome = "hedge_win"
			}
			g.metrics.observeForward(outcome, time.Since(start).Seconds(), traceID)
			return res, true
		}
		if ctx.Err() != nil {
			return fallback()
		}
	}
	g.cfg.Logger.Warn("cluster: all forward candidates failed",
		"path", path, "key", key, "candidates", remotes)
	return fallback()
}

// forwardRound races one hedged pass over the candidates: launch the first
// allowed peer, arm the hedge timer with its latency percentile, and on
// fire (or on a failure) launch the next. The first good result wins; the
// round fails when every candidate has failed or is breaker-blocked.
func (g *Gateway) forwardRound(parent context.Context, path string, body []byte, candidates []string) (fwdResult, bool) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel() // reels in the loser of the hedge race

	results := make(chan fwdResult, len(candidates))
	launched := 0
	launch := func(peer string, hedge bool) {
		ps := g.peer(peer)
		if !ps.breaker.allow(time.Now()) {
			return
		}
		launched++
		if hedge {
			g.metrics.hedges.Add(1)
			g.jn.Append(journal.TypeHedge,
				fmt.Sprintf("hedged forward to %s fired", peer), journal.Event{
					TraceID: telemetry.FromContext(ctx).ID(),
					Attrs:   []journal.Attr{{Key: "peer", Value: peer}, {Key: "path", Value: path}},
				})
		}
		go func() {
			res := g.forwardOne(ctx, peer, path, body, hedge, nil)
			// The breaker verdict is recorded here, not by the receiving
			// loop: the race returns (cancelling the losers) without
			// draining the channel, and a launched-but-unrecorded request
			// would hold a half-open probe slot forever, wedging the
			// breaker until process restart.
			g.breakerVerdict(ctx, ps, res)
			results <- res
		}()
	}
	next := 0
	for next < len(candidates) && launched == 0 {
		launch(candidates[next], false)
		next++
	}
	if launched == 0 {
		return fwdResult{}, false // every candidate breaker-blocked
	}
	// With no candidate left to launch there is nothing to hedge to: skip
	// the percentile (a sort of the latency window) and the timer.
	var hedge <-chan time.Time
	if next < len(candidates) {
		hedgeTimer := time.NewTimer(g.hedgeDelay(candidates[next-1]))
		defer hedgeTimer.Stop()
		hedge = hedgeTimer.C
	}

	outstanding := launched
	for {
		select {
		case <-hedge:
			for next < len(candidates) {
				before := launched
				launch(candidates[next], true)
				next++
				if launched > before {
					outstanding++
					break
				}
			}
		case res := <-results:
			outstanding--
			if res.good() {
				return res, true
			}
			// Fail fast to the next candidate instead of waiting out the
			// hedge timer.
			for next < len(candidates) {
				before := launched
				launch(candidates[next], false)
				next++
				if launched > before {
					outstanding++
					break
				}
			}
			if outstanding == 0 {
				return fwdResult{}, false
			}
		case <-parent.Done():
			return fwdResult{}, false
		}
	}
}

// breakerVerdict records one forwarded request's outcome on its peer's
// breaker: success for a good result; no verdict when ctx ended first — the
// request was abandoned, not answered, so it only releases any half-open
// probe slot it held; otherwise a failure, counted in forwardFailures.
// abandoned reports the middle case.
func (g *Gateway) breakerVerdict(ctx context.Context, ps *peerState, res fwdResult) (abandoned bool) {
	switch {
	case res.good():
		ps.breaker.success()
	case ctx.Err() != nil:
		ps.breaker.cancelProbe()
		return true
	default:
		g.metrics.forwardFailures.Add(1)
		if opened := ps.breaker.failure(time.Now()); opened {
			g.cfg.Logger.Warn("cluster: circuit breaker opened", "peer", res.peer)
		}
	}
	return false
}

// hedgeDelay picks how long the primary peer runs alone: its recent latency
// percentile, clamped to [HedgeMin, HedgeMax]; with no history yet, HedgeMin
// (an unknown peer earns no head start).
func (g *Gateway) hedgeDelay(peer string) time.Duration {
	d, ok := g.peer(peer).latency.percentile(g.cfg.HedgePercentile)
	if !ok || d < g.cfg.HedgeMin {
		return g.cfg.HedgeMin
	}
	if d > g.cfg.HedgeMax {
		return g.cfg.HedgeMax
	}
	return d
}

// forwardOne performs one POST to one peer, propagating X-Request-Id (and the
// forward span's ID as X-Parent-Span, so the peer's trace fragment stitches
// under this hop) and marking the hop so the peer serves locally. Each call
// is one telemetry span on the requesting node. extra carries additional
// headers (nil for plain forwards; the admission gate's redirects mark the
// hop with X-Cluster-Redirected here).
func (g *Gateway) forwardOne(ctx context.Context, peer, path string, body []byte, hedge bool, extra http.Header) fwdResult {
	tr := telemetry.FromContext(ctx)
	span := tr.StartSpan("forward")
	span.SetAttr("peer", peer)
	span.SetAttr("path", path)
	if hedge {
		span.SetAttr("hedge", true)
	}
	defer span.End()

	g.metrics.forwards.Add(1)
	start := time.Now()
	req, err := newPeerRequest(ctx, http.MethodPost, "http://"+peer+path, g.cfg.Secret, body, span.ID())
	if err != nil {
		return fwdResult{peer: peer, err: err, hedged: hedge}
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set(headerForwarded, g.cfg.Self)
	resp, err := g.client.Do(req)
	if err != nil {
		span.SetAttr("error", err.Error())
		return fwdResult{peer: peer, err: err, hedged: hedge}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardResponseBytes+1))
	if err != nil {
		span.SetAttr("error", err.Error())
		return fwdResult{peer: peer, err: err, hedged: hedge}
	}
	if int64(len(respBody)) > maxForwardResponseBytes {
		err := fmt.Errorf("cluster: peer response exceeds %d bytes", int64(maxForwardResponseBytes))
		span.SetAttr("error", err.Error())
		return fwdResult{peer: peer, err: err, hedged: hedge}
	}
	g.peer(peer).latency.observe(time.Since(start))
	span.SetAttr("status", resp.StatusCode)
	return fwdResult{
		peer:        peer,
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        respBody,
		hedged:      hedge,
	}
}

// Peer response read caps. Forwarded solve/sweep responses carry O(maxN)
// vectors and stay in the tens of megabytes even at the default 100k
// population cap, so they get the tight bound — the coordinator can hold
// several at once during a routed sweep. Exported trajectory state carries
// full [n][k] matrices and gets the loose bound; at most one fill body is
// in flight per cold solve.
const (
	maxForwardResponseBytes = 64 << 20
	maxExportResponseBytes  = 256 << 20
)
