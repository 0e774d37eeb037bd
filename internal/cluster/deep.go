package cluster

// Distributed deep solves: POST /v1/solve?deep=1 splits [1, maxN] into
// stride-aligned population chunks and pipelines them across the cluster.
// The MVA recursion is strictly sequential in n, so the fabric cannot
// parallelize a single trajectory — what it can do is bound every node's
// memory: each member solves only its own chunk, seeded from the previous
// chunk's shipped checkpoint, and no node ever materializes the full
// trajectory. Rows stream back to the client as NDJSON while later chunks
// are still being solved, and a chunk whose member dies mid-pipeline is
// retried on the next member (then locally) from the same checkpoint — the
// recursion state is in the coordinator's hands between chunks, so failover
// never recomputes the prefix and never perturbs a single bit of the result.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// deepAutoRows is the stored-row budget an unspecified decimate targets: a
// deep solve at maxN defaults to stride ceil(maxN/deepAutoRows).
const deepAutoRows = 4096

// deepAutoStride picks the default decimation stride for a deep solve.
func deepAutoStride(maxN int) int {
	return (maxN + deepAutoRows - 1) / deepAutoRows
}

// deepChunks splits [1, maxN] into at most parts contiguous chunks with
// stride-aligned boundaries (the final boundary is maxN itself). Alignment
// matters for bit-identical row sets: a chunk always commits its last
// population, so an unaligned interior boundary would store a row a
// single-node solve skips.
func deepChunks(maxN, stride, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if stride < 1 {
		stride = 1
	}
	target := (maxN + parts - 1) / parts
	if rem := target % stride; rem != 0 {
		target += stride - rem
	}
	var chunks [][2]int
	for from := 0; from < maxN; {
		to := from + target
		if to > maxN {
			to = maxN
		}
		chunks = append(chunks, [2]int{from, to})
		from = to
	}
	return chunks
}

// handleDeepSolve coordinates one deep solve. The receiving node is the
// coordinator regardless of key ownership (the trajectory is never cached,
// so there is no owner to warm); members are walked in the key's ring order
// so repeated deep solves of the same model spread the same way.
func (g *Gateway) handleDeepSolve(w http.ResponseWriter, r *http.Request, req *modelio.SolveRequest, key string) {
	start := time.Now()
	if req.Decimate <= 1 {
		req.Decimate = deepAutoStride(req.MaxN)
	}
	stride := req.Decimate
	if stride < 1 {
		stride = 1
	}
	members := g.members.Ring().Owners(key, len(g.cfg.Peers))
	chunks := deepChunks(req.MaxN, stride, len(members))
	tr := telemetry.FromContext(r.Context())
	tr.SetAttr("deep_chunks", len(chunks))

	ctx, cancel := g.local.SolveContext(r.Context(), req.TimeoutMS)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(headerPeer, g.cfg.Self)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	// The stream header carries the coordinator's trace ID so NDJSON
	// consumers (which never see the X-Request-Id of intermediate hops) can
	// hand solverctl trace the exact ID that stitches the whole pipeline.
	enc.Encode(modelio.DeepHeader{
		Algorithm: req.Algorithm,
		ModelName: req.Model.Name,
		MaxN:      req.MaxN,
		Stride:    stride,
		Stations:  stationNames(req),
		TraceID:   tr.ID(),
	})
	flush()

	// The stream has already committed a 200; mid-pipeline failures surface
	// as an error line and a missing trailer.
	fail := func(err error) {
		g.cfg.Logger.Warn("cluster: deep solve failed", "key", key, "error", err)
		enc.Encode(struct {
			Error string `json:"error"`
		}{Error: err.Error()})
	}
	var cps *modelio.CheckpointState
	rows := 0
	for i, ch := range chunks {
		// One span per chunk: which member solved it, the population range,
		// whether a checkpoint was handed off, and how the failover ladder
		// went — the coordinator-side skeleton solverctl trace stitches the
		// member fragments (forward spans) onto.
		span := tr.StartSpan("deep-chunk")
		span.SetAttr("chunk", i)
		span.SetAttr("from_n", ch[0])
		span.SetAttr("to_n", ch[1])
		span.SetAttr("checkpoint_in", cps != nil)
		resp, err := g.deepChunk(ctx, req, ch[0], ch[1], cps, members, i, span)
		if err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			fail(err)
			return
		}
		span.SetAttr("member", resp.Peer)
		span.SetAttr("rows", len(resp.Rows))
		span.End()
		for j := range resp.Rows {
			if err := enc.Encode(&resp.Rows[j]); err != nil {
				return // client went away
			}
		}
		rows += len(resp.Rows)
		flush()
		cps = &resp.Checkpoint
	}
	enc.Encode(modelio.DeepTrailer{
		Done:      true,
		Rows:      rows,
		Chunks:    len(chunks),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// stationNames lists the request model's stations for the stream header.
func stationNames(req *modelio.SolveRequest) []string {
	names := make([]string, len(req.Model.Stations))
	for i, st := range req.Model.Stations {
		names[i] = st.Name
	}
	return names
}

// deepChunk solves one chunk through the fabric: the chunk's assigned member
// first (round-robin over the key's ring walk), then the remaining members
// as failover — each attempt reuses the same checkpoint, so a member killed
// mid-chunk costs only that chunk's work — and the local engine as the last
// resort. Peer 4xx responses abort the pipeline (the request is at fault);
// transport errors and 5xx walk the ladder. Deep chunks use plain ordered
// failover rather than the hedge/retry racer: the checkpoint handoff is
// sequential state, and a duplicate chunk solve would only burn a worker.
func (g *Gateway) deepChunk(ctx context.Context, req *modelio.SolveRequest, fromN, toN int,
	cps *modelio.CheckpointState, members []string, idx int, span *telemetry.Span) (*modelio.DeepChunkResponse, error) {
	creq := modelio.DeepChunkRequest{Req: *req, FromN: fromN, ToN: toN, Checkpoint: cps}
	body, err := json.Marshal(&creq)
	if err != nil {
		return nil, err
	}
	failovers := 0
	for off := 0; off < len(members); off++ {
		peer := members[(idx+off)%len(members)]
		if peer == g.cfg.Self || !g.members.peerUp(peer) {
			continue
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		res := g.forwardOne(ctx, peer, "/cluster/v1/deep", body, false, nil)
		switch {
		case res.err == nil && res.status == http.StatusOK:
			var resp modelio.DeepChunkResponse
			if err := json.Unmarshal(res.body, &resp); err != nil {
				return nil, fmt.Errorf("cluster: decoding deep chunk from %s: %w", peer, err)
			}
			if err := checkChunkRows(&resp, fromN, toN); err != nil {
				return nil, err
			}
			return &resp, nil
		case res.err == nil && res.status < 500:
			return nil, fmt.Errorf("cluster: deep chunk (%d, %d]: %s", fromN, toN, peerErrorMessage(res))
		default:
			g.metrics.forwardFailures.Add(1)
			failovers++
			span.SetAttr("failovers", failovers)
			g.cfg.Logger.Warn("cluster: deep chunk failover",
				"peer", peer, "fromN", fromN, "toN", toN, "error", res.err, "status", res.status)
			g.jn.Append(journal.TypeDeepFailover,
				fmt.Sprintf("deep chunk (%d, %d] failed over past %s", fromN, toN, peer),
				journal.Event{
					TraceID: telemetry.FromContext(ctx).ID(),
					Attrs: []journal.Attr{
						{Key: "peer", Value: peer},
						{Key: "from_n", Value: strconv.Itoa(fromN)},
						{Key: "to_n", Value: strconv.Itoa(toN)},
					},
				})
		}
	}
	// Every remote candidate is down or failing: solve the chunk here.
	g.metrics.localFallbacks.Add(1)
	span.SetAttr("local_fallback", true)
	res, cpOut, err := g.local.SolveChunk(ctx, &creq.Req, fromN, toN, cps)
	if err != nil {
		return nil, err
	}
	return &modelio.DeepChunkResponse{
		Peer:       g.cfg.Self,
		Rows:       modelio.NewDeepRows(res),
		Checkpoint: *cpOut,
	}, nil
}

// checkChunkRows validates a peer's chunk shape before shipping its
// checkpoint onward: rows must be ascending within (fromN, toN] and end at
// toN (the checkpoint's population).
func checkChunkRows(resp *modelio.DeepChunkResponse, fromN, toN int) error {
	prev := fromN
	for i := range resp.Rows {
		n := resp.Rows[i].N
		if n <= prev || n > toN {
			return fmt.Errorf("cluster: deep chunk (%d, %d] returned population %d", fromN, toN, n)
		}
		prev = n
	}
	if prev != toN {
		return fmt.Errorf("cluster: deep chunk (%d, %d] ended at %d", fromN, toN, prev)
	}
	return nil
}

// handleDeepChunk serves POST /cluster/v1/deep: the member side of the
// distributed deep solve.
func (g *Gateway) handleDeepChunk(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	var req modelio.DeepChunkRequest
	if _, ok := g.local.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Validate(); err != nil {
		g.local.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := g.local.SolveContext(r.Context(), req.Req.TimeoutMS)
	defer cancel()
	res, cps, err := g.local.SolveChunk(ctx, &req.Req, req.FromN, req.ToN, req.Checkpoint)
	if err != nil {
		g.local.WriteError(w, server.StatusOf(err), err.Error())
		return
	}
	g.local.WriteJSON(w, http.StatusOK, modelio.DeepChunkResponse{
		Peer:       g.cfg.Self,
		Rows:       modelio.NewDeepRows(res),
		Checkpoint: *cps,
	})
}
