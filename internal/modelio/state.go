package modelio

// This file holds the wire form of a solved trajectory plus its solver
// checkpoint — the unit of the cluster's peer cache fill (internal/cluster).
// A node that owns a key's trajectory exports it as a TrajectoryState; the
// receiving node restores a fresh core.Solver from it and extends, producing
// results bit-identical to solving locally from scratch. Bit-identity
// survives the JSON hop because encoding/json renders float64 in the
// shortest form that parses back to the same bits.

import (
	"fmt"

	"repro/internal/core"
)

// CheckpointState is the wire form of core.Checkpoint (minus Algorithm and
// N, which the enclosing message carries — TrajectoryState implies N from
// the row count, deep-solve chunks carry FromN/ToN explicitly).
type CheckpointState struct {
	// Queue is the per-station mean queue-length vector at the checkpoint
	// population (for Schweitzer, the converged fixed point that warm-starts
	// the next population).
	Queue []float64 `json:"queue,omitempty"`
	// Marginal holds the per-station marginal queue-size probabilities of
	// the multi-server algorithms.
	Marginal [][]float64 `json:"marginal,omitempty"`
	// X is the checkpoint population's throughput (the warm start of the
	// mvasd-vs-throughput fixed point).
	X float64 `json:"x,omitempty"`
}

// NewCheckpointState strips a core checkpoint to its wire form.
func NewCheckpointState(cp *core.Checkpoint) CheckpointState {
	return CheckpointState{Queue: cp.Queue, Marginal: cp.Marginal, X: cp.X}
}

// Checkpoint rebuilds the core checkpoint for the named algorithm at
// population n. Bit-identity survives the JSON round trip (see the package
// comment above), so resuming from a shipped checkpoint continues the
// recursion exactly.
func (c *CheckpointState) Checkpoint(algorithm string, n int) *core.Checkpoint {
	return &core.Checkpoint{
		Algorithm: algorithm,
		N:         n,
		Queue:     c.Queue,
		Marginal:  c.Marginal,
		X:         c.X,
	}
}

// TrajectoryState is the full transportable state of one cached solve: every
// per-population row of the core.Result plus the recursion checkpoint. It is
// deliberately complete (unlike the compact Trajectory of SolveResponse) —
// the receiver needs every matrix to serve sweeps and to extend.
type TrajectoryState struct {
	Algorithm    string    `json:"algorithm"`
	ModelName    string    `json:"modelName,omitempty"`
	ThinkTime    float64   `json:"thinkTime"`
	StationNames []string  `json:"stationNames"`
	X            []float64 `json:"x"`
	R            []float64 `json:"r"`
	Cycle        []float64 `json:"cycle"`
	// Row-major per-population, per-station matrices ([n][k]).
	QueueLen  [][]float64 `json:"queueLen"`
	Util      [][]float64 `json:"util"`
	Residence [][]float64 `json:"residence"`
	Demands   [][]float64 `json:"demands"`

	Checkpoint CheckpointState `json:"checkpoint"`
}

// NewTrajectoryState packages a solved prefix and its checkpoint for the
// wire. res must be the prefix at cp.N (core.Solver.Result().Prefix(cp.N)).
func NewTrajectoryState(res *core.Result, cp *core.Checkpoint) (*TrajectoryState, error) {
	if res == nil || cp == nil {
		return nil, fmt.Errorf("modelio: trajectory state needs a result and a checkpoint")
	}
	if res.Len() != cp.N {
		return nil, fmt.Errorf("modelio: trajectory has %d populations, checkpoint is at %d", res.Len(), cp.N)
	}
	if res.Algorithm != cp.Algorithm {
		return nil, fmt.Errorf("modelio: trajectory algorithm %q, checkpoint %q", res.Algorithm, cp.Algorithm)
	}
	return &TrajectoryState{
		Algorithm:    res.Algorithm,
		ModelName:    res.ModelName,
		ThinkTime:    res.ThinkTime,
		StationNames: res.StationNames,
		X:            res.X,
		R:            res.R,
		Cycle:        res.Cycle,
		QueueLen:     derivedRows(res, res.AppendQueueLenRow),
		Util:         derivedRows(res, res.AppendUtilRow),
		Residence:    rowsOf(res, res.ResidenceRow),
		Demands:      rowsOf(res, res.DemandsRow),
		Checkpoint:   NewCheckpointState(cp),
	}, nil
}

// rowsOf collects every stored row of one of res's row accessors; the rows
// alias res's storage.
func rowsOf(res *core.Result, row func(int) []float64) [][]float64 {
	out := make([][]float64, res.Len())
	for i := range out {
		out[i] = row(i)
	}
	return out
}

// derivedRows collects every stored row of one of res's derived metrics,
// appended back to back into one fresh backing array.
func derivedRows(res *core.Result, appendRow func([]float64, int) []float64) [][]float64 {
	k := len(res.StationNames)
	flat := make([]float64, 0, res.Len()*k)
	out := make([][]float64, res.Len())
	for i := range out {
		flat = appendRow(flat, i)
		out[i] = flat[len(flat)-k : len(flat) : len(flat)]
	}
	return out
}

// Restore validates the state and rebuilds the (trajectory, checkpoint) pair
// ready for core.Solver.Restore. The returned Result owns fresh backing.
func (t *TrajectoryState) Restore() (*core.Result, *core.Checkpoint, error) {
	if t.Algorithm == "" {
		return nil, nil, fmt.Errorf("modelio: trajectory state names no algorithm")
	}
	res, err := core.RestoreResult(t.Algorithm, t.ModelName, t.ThinkTime, t.StationNames,
		t.X, t.R, t.Cycle, t.QueueLen, t.Util, t.Residence, t.Demands)
	if err != nil {
		return nil, nil, err
	}
	return res, t.Checkpoint.Checkpoint(t.Algorithm, res.Len()), nil
}

// DeepChunkRequest is the POST /cluster/v1/deep body: one population range
// of a distributed deep solve. The coordinator splits [1, maxN] into
// stride-aligned chunks and pipelines them across members — each member
// seeds a fresh solver from the previous chunk's shipped checkpoint, solves
// (FromN, ToN] without ever holding the prefix, and ships its own final
// checkpoint on. Because checkpoints capture the full recursion state and
// survive JSON bit-exactly, the assembled rows are bit-identical to a
// single-node solve.
type DeepChunkRequest struct {
	// Req is the normalized solve request (Decimate governs which rows the
	// chunk stores; MaxN is ignored in favor of ToN).
	Req SolveRequest `json:"req"`
	// FromN is the population the checkpoint belongs to; the chunk solves
	// FromN+1..ToN. 0 means a cold start (no checkpoint).
	FromN int `json:"fromN"`
	// ToN is the chunk's last population, inclusive.
	ToN int `json:"toN"`
	// Checkpoint is the recursion state at FromN; nil iff FromN == 0.
	Checkpoint *CheckpointState `json:"checkpoint,omitempty"`
}

// Validate checks the chunk geometry (Req must already be normalized by the
// coordinator; members re-normalize defensively).
func (r *DeepChunkRequest) Validate() error {
	if err := r.Req.Normalize(); err != nil {
		return err
	}
	if r.FromN < 0 || r.ToN <= r.FromN {
		return fmt.Errorf("modelio: deep chunk range (%d, %d]", r.FromN, r.ToN)
	}
	if (r.Checkpoint == nil) != (r.FromN == 0) {
		return fmt.Errorf("modelio: deep chunk at fromN %d needs a checkpoint iff fromN > 0", r.FromN)
	}
	return nil
}

// DeepRow is one stored population of a deep solve: the full per-station
// row, so distributed results can be asserted bit-identical to local ones.
type DeepRow struct {
	N         int       `json:"n"`
	X         float64   `json:"x"`
	R         float64   `json:"r"`
	Cycle     float64   `json:"cycle"`
	QueueLen  []float64 `json:"queueLen"`
	Util      []float64 `json:"util"`
	Residence []float64 `json:"residence"`
	Demands   []float64 `json:"demands"`
}

// NewDeepRows flattens a chunk Result's stored rows for the wire.
func NewDeepRows(res *core.Result) []DeepRow {
	rows := make([]DeepRow, res.Len())
	queueLen, util := derivedRows(res, res.AppendQueueLenRow), derivedRows(res, res.AppendUtilRow)
	for i := range rows {
		rows[i] = DeepRow{
			N:         res.N[i],
			X:         res.X[i],
			R:         res.R[i],
			Cycle:     res.Cycle[i],
			QueueLen:  queueLen[i],
			Util:      util[i],
			Residence: res.ResidenceRow(i),
			Demands:   res.DemandsRow(i),
		}
	}
	return rows
}

// DeepChunkResponse is the member's answer: the chunk's stored rows plus the
// recursion checkpoint at ToN, which the coordinator ships to the next chunk.
type DeepChunkResponse struct {
	// Peer names the member that solved the chunk.
	Peer string `json:"peer"`
	// Rows are the chunk's stored (decimated) populations, ascending.
	Rows []DeepRow `json:"rows"`
	// Checkpoint is the recursion state at ToN.
	Checkpoint CheckpointState `json:"checkpoint"`
}

// DeepHeader is the first NDJSON line of a /v1/solve?deep=1 response.
type DeepHeader struct {
	Algorithm string `json:"algorithm"`
	ModelName string `json:"modelName"`
	MaxN      int    `json:"maxN"`
	// Stride is the effective decimation stride of the streamed rows.
	Stride   int      `json:"stride"`
	Stations []string `json:"stations"`
	// TraceID is the coordinator's trace ID: the handle that stitches the
	// whole deep pipeline (per-chunk spans plus every member's fragments)
	// through GET /cluster/v1/trace/{id} and solverctl trace.
	TraceID string `json:"traceId,omitempty"`
}

// DeepTrailer is the last NDJSON line of a /v1/solve?deep=1 response; its
// presence marks a complete stream.
type DeepTrailer struct {
	Done      bool    `json:"done"`
	Rows      int     `json:"rows"`
	Chunks    int     `json:"chunks"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// ExportRequest is the POST /cluster/v1/export body: a peer asking for the
// cached trajectory state behind one solve-cache key.
type ExportRequest struct {
	// Key is the cache key (SolveRequest.CacheKey / SweepKeyBase.GroupKey).
	Key string `json:"key"`
}

// Validate checks the export request.
func (r *ExportRequest) Validate() error {
	if r.Key == "" {
		return fmt.Errorf("modelio: export request has no key")
	}
	if len(r.Key) > 128 {
		return fmt.Errorf("modelio: export request key too long")
	}
	return nil
}
