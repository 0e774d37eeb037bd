package modelio

// This file holds the HTTP API schemas for the solverd service (cmd/solverd,
// internal/server): request bodies reuse the package's model and samples
// formats, responses carry compact trajectories rather than the full
// per-station matrices of core.Result. Keeping the wire types here — next to
// the file formats the CLIs already exchange — means a saved model.json is a
// valid "model" field verbatim.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/planning"
	"repro/internal/queueing"
)

// Algorithm names accepted by SolveRequest (matching the mvasd CLI).
const (
	AlgoExact             = "exact"       // Algorithm 1, single-server exact MVA
	AlgoSchweitzer        = "schweitzer"  // Bard–Schweitzer approximate MVA
	AlgoMultiServer       = "multiserver" // Algorithm 2, exact multi-server MVA
	AlgoMVASD             = "mvasd"       // Algorithm 3, varying demands (needs samples)
	AlgoMVASDSingleServer = "mvasd-1s"    // Fig.-8 single-server baseline (needs samples)
)

// Algorithms lists every accepted algorithm name.
func Algorithms() []string {
	return []string{AlgoExact, AlgoSchweitzer, AlgoMultiServer, AlgoMVASD, AlgoMVASDSingleServer}
}

// Demand-sample abscissa interpretations for SolveRequest.DemandAxis.
const (
	// AxisConcurrency reads Samples.At as concurrency levels: MVASD
	// evaluates the spline at each population step directly (Algorithm 3).
	AxisConcurrency = "concurrency"
	// AxisThroughput reads Samples.At as throughput levels: every step
	// runs the demand/throughput fixed point (the paper's Fig.-20 mode).
	AxisThroughput = "throughput"
)

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	// Algorithm selects the solver (default multiserver).
	Algorithm string `json:"algorithm,omitempty"`
	// Model is the closed network, in the package's model format.
	Model *queueing.Model `json:"model"`
	// Samples supplies the measured demand arrays for mvasd / mvasd-1s.
	Samples *SamplesFile `json:"samples,omitempty"`
	// MaxN is the largest population to solve.
	MaxN int `json:"maxN"`
	// Interp is the sample interpolation method (default cubic-not-a-knot).
	Interp string `json:"interp,omitempty"`
	// DemandAxis says what Samples.At indexes: "concurrency" (default) or
	// "throughput". The latter is mvasd-only — each population step then
	// resolves a demand/throughput fixed point.
	DemandAxis string `json:"demandAxis,omitempty"`
	// Every decimates the returned trajectory to every k-th population
	// (the final population is always kept); 0 returns every row.
	Every int `json:"every,omitempty"`
	// Decimate bounds the solve's memory for deep populations: the solver
	// stores only every k-th population (plus the final one) while still
	// advancing through every population. Stored rows are bit-identical to a
	// dense solve; skipped rows are recoverable from the recursion state
	// rebuilt at the nearest stored row. 0 or 1 solves densely.
	// Unlike Every — which only thins the response — Decimate changes which
	// rows exist server-side, so it is part of the cache key.
	Decimate int `json:"decimate,omitempty"`
	// TimeoutMS caps this request's solve time; 0 uses the server default.
	// It is not part of the cache key: it bounds work, not the answer.
	TimeoutMS int `json:"timeoutMs,omitempty"`
}

// validateModel checks a request's model: its shape alone when sampled
// demands replace the stations' own, otherwise fully.
func validateModel(m *queueing.Model, sampled bool) error {
	if sampled {
		return m.ValidateShape()
	}
	return m.Validate()
}

// Normalize fills defaults and validates the request.
func (r *SolveRequest) Normalize() error {
	if r.Algorithm == "" {
		r.Algorithm = AlgoMultiServer
	}
	known := false
	for _, a := range Algorithms() {
		if r.Algorithm == a {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("modelio: unknown algorithm %q (want one of %v)", r.Algorithm, Algorithms())
	}
	if r.Model == nil {
		return fmt.Errorf("modelio: solve request has no model")
	}
	if err := validateModel(r.Model, r.NeedsSamples()); err != nil {
		return err
	}
	if r.MaxN < 1 {
		return fmt.Errorf("modelio: maxN %d (want >= 1)", r.MaxN)
	}
	if r.Interp == "" {
		r.Interp = string(interp.CubicNotAKnot)
	}
	if r.NeedsSamples() {
		if r.Samples == nil {
			return fmt.Errorf("modelio: algorithm %q requires samples", r.Algorithm)
		}
		if err := r.Samples.Validate(); err != nil {
			return err
		}
		// Fail alignment problems at validation time, not solve time.
		if _, err := r.Samples.ToDemandSamples(r.Model); err != nil {
			return err
		}
		switch r.DemandAxis {
		case "":
			r.DemandAxis = AxisConcurrency
		case AxisConcurrency:
		case AxisThroughput:
			// mvasd-1s evaluates demands without a throughput estimate, so
			// throughput-indexed samples would silently read the curve at 0.
			if r.Algorithm != AlgoMVASD {
				return fmt.Errorf("modelio: demandAxis %q requires algorithm %q", AxisThroughput, AlgoMVASD)
			}
		default:
			return fmt.Errorf("modelio: unknown demandAxis %q (want %q or %q)",
				r.DemandAxis, AxisConcurrency, AxisThroughput)
		}
	} else if r.DemandAxis != "" {
		return fmt.Errorf("modelio: demandAxis is only meaningful with sample-driven algorithms")
	}
	if r.Every < 0 || r.TimeoutMS < 0 || r.Decimate < 0 {
		return fmt.Errorf("modelio: negative every/timeoutMs/decimate")
	}
	if r.Decimate == 1 {
		r.Decimate = 0 // canonical dense spelling, so cache keys agree
	}
	return nil
}

// NeedsSamples reports whether the algorithm consumes demand samples.
func (r *SolveRequest) NeedsSamples() bool {
	return r.Algorithm == AlgoMVASD || r.Algorithm == AlgoMVASDSingleServer
}

// DemandModel builds the interpolated demand model for mvasd / mvasd-1s.
func (r *SolveRequest) DemandModel() (core.DemandModel, error) {
	samples, err := r.Samples.ToDemandSamples(r.Model)
	if err != nil {
		return nil, err
	}
	if r.DemandAxis == AxisThroughput {
		return core.NewThroughputDemands(interp.Method(r.Interp), samples, interp.Options{})
	}
	return core.NewCurveDemands(interp.Method(r.Interp), samples, interp.Options{})
}

// The solve-cache key is a SHA-256 over a binary form of the request's key
// material: everything that changes the solver's *recursion* or its stored
// geometry, and nothing that doesn't. MaxN is deliberately excluded — the
// population recursion at n depends only on n' < n, so one cached
// trajectory answers every request for the same model at any maxN (serving
// smaller maxN from the prefix, extending in place for larger). Timeout and
// the response-side Every bound work and shape output, not the answer.
// Decimate IS keyed (when > 1): a decimated entry stores different rows than
// a dense one, so letting the two share an entry would poison dense
// prefix/extend hits with sparse trajectories. Samples are keyed only for
// sample-driven algorithms, and DemandAxis only in throughput mode, the one
// axis that changes the recursion.
//
// The encoding, in order: the keyVersion tag; the algorithm; the model
// (presence byte, then name, stations, think time); the samples (presence
// byte, then stations); interp; the keyed demand axis; the keyed decimation.
// Strings carry a uvarint length, slices a uvarint of length+1 (0 for nil),
// floats their IEEE-754 bits, ints a zig-zag varint. Two requests get the
// same bytes exactly when encoding/json would marshal the same fields to
// the same text (the key's previous form), except that strings are compared
// byte for byte where json.Marshal would fold invalid UTF-8 to U+FFFD.
// Non-finite floats are rejected, as json.Marshal rejects them.

// keyVersion tags the key material; change it whenever the encoding changes
// so keys of different encodings can never collide.
const keyVersion = "solve-key/v2\x00"

// keyBufs recycles key material buffers; an mvasd request's runs to a few KB.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// CacheKey returns the solve-cache key: the hex SHA-256 of the request's key
// material (see keyVersion). Requests that differ only in maxN share a key
// by design. Call Normalize first so defaulted and explicitly spelled-out
// requests hash identically.
func (r *SolveRequest) CacheKey() (string, error) {
	sum, err := r.keySum()
	if err != nil {
		return "", err
	}
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:]), nil
}

// keySum hashes the request's key material.
func (r *SolveRequest) keySum() ([sha256.Size]byte, error) {
	bp := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(bp)
	b, err := r.appendKey((*bp)[:0])
	*bp = b
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// appendKey appends the request's key material to b.
func (r *SolveRequest) appendKey(b []byte) ([]byte, error) {
	k := keyWriter{b: append(b, keyVersion...)}
	k.string(r.Algorithm)
	if k.present(r.Model != nil) {
		k.string(r.Model.Name)
		k.len(r.Model.Stations == nil, len(r.Model.Stations))
		for _, st := range r.Model.Stations {
			k.string(st.Name)
			k.string(string(st.Kind))
			k.int(st.Servers)
			k.float(st.Visits)
			k.float(st.ServiceTime)
		}
		k.float(r.Model.ThinkTime)
	}
	var samples *SamplesFile
	axis := ""
	if r.NeedsSamples() {
		samples = r.Samples
		if r.DemandAxis == AxisThroughput {
			axis = r.DemandAxis
		}
	}
	if k.present(samples != nil) {
		k.len(samples.Stations == nil, len(samples.Stations))
		for _, st := range samples.Stations {
			k.string(st.Name)
			k.floats(st.At)
			k.floats(st.Demands)
		}
	}
	k.string(r.Interp)
	k.string(axis)
	decimate := 0
	if r.Decimate > 1 {
		decimate = r.Decimate
	}
	k.int(decimate)
	if k.bad {
		return k.b, errors.New("modelio: cache key: unsupported value: non-finite float")
	}
	return k.b, nil
}

// keyWriter appends the key material's fields; bad records a non-finite
// float.
type keyWriter struct {
	b   []byte
	bad bool
}

func (k *keyWriter) present(ok bool) bool {
	if ok {
		k.b = append(k.b, 1)
	} else {
		k.b = append(k.b, 0)
	}
	return ok
}

func (k *keyWriter) len(isNil bool, n int) {
	if isNil {
		k.b = append(k.b, 0)
		return
	}
	k.b = binary.AppendUvarint(k.b, uint64(n)+1)
}

func (k *keyWriter) string(s string) {
	k.b = binary.AppendUvarint(k.b, uint64(len(s)))
	k.b = append(k.b, s...)
}

func (k *keyWriter) int(n int) { k.b = binary.AppendVarint(k.b, int64(n)) }

func (k *keyWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		k.bad = true
	}
	k.b = binary.LittleEndian.AppendUint64(k.b, math.Float64bits(f))
}

func (k *keyWriter) floats(fs []float64) {
	k.len(fs == nil, len(fs))
	for _, f := range fs {
		k.float(f)
	}
}

// Trajectory is the compact solve output: the X(n)/R(n) curves plus the
// final-population station metrics, dropping the per-station matrices of
// core.Result that dominate its size.
type Trajectory struct {
	Algorithm    string    `json:"algorithm"`
	ModelName    string    `json:"modelName"`
	ThinkTime    float64   `json:"thinkTime"`
	StationNames []string  `json:"stationNames"`
	N            []int     `json:"n"`
	X            []float64 `json:"x"`
	R            []float64 `json:"r"`
	Cycle        []float64 `json:"cycle"`
	// FinalUtil and FinalQueueLen are the per-station rows at the largest
	// solved population (not affected by decimation).
	FinalUtil     []float64 `json:"finalUtil"`
	FinalQueueLen []float64 `json:"finalQueueLen"`
	// MaxX is the trajectory's peak throughput, attained at population MaxXAt.
	MaxX   float64 `json:"maxX"`
	MaxXAt int     `json:"maxXAt"`

	// text optionally memoizes the row columns' JSON text (SetRowText).
	text *RowText
}

// NewTrajectory extracts a (possibly decimated) trajectory from a Result.
// A Result that stores no rows (a decimated prefix view below the first
// stored population) yields an empty trajectory; the caller appends the
// populations it recovers via AppendRecovered. With every ≤ 1 the row
// columns alias res's rows instead of copying them: stored rows are
// immutable, and the clipped capacity makes AppendRecovered reallocate.
func NewTrajectory(res *core.Result, every int) *Trajectory {
	t := &Trajectory{
		Algorithm:    res.Algorithm,
		ModelName:    res.ModelName,
		ThinkTime:    res.ThinkTime,
		StationNames: append([]string(nil), res.StationNames...),
	}
	if res.Len() == 0 {
		return t
	}
	t.FinalUtil = res.FinalUtilization()
	t.FinalQueueLen = res.QueueLenRow(res.Len() - 1)
	t.MaxX, t.MaxXAt = res.MaxThroughput()
	if every <= 1 {
		k := len(res.N)
		t.N, t.X, t.R, t.Cycle = res.N[:k:k], res.X[:k:k], res.R[:k:k], res.Cycle[:k:k]
		return t
	}
	last := len(res.N) - 1
	for i := 0; i < len(res.N); i += every {
		t.N = append(t.N, res.N[i])
		t.X = append(t.X, res.X[i])
		t.R = append(t.R, res.R[i])
		t.Cycle = append(t.Cycle, res.Cycle[i])
	}
	if (last % every) != 0 { // always keep the final population
		t.N = append(t.N, res.N[last])
		t.X = append(t.X, res.X[last])
		t.R = append(t.R, res.R[last])
		t.Cycle = append(t.Cycle, res.Cycle[last])
	}
	return t
}

// AppendRecovered appends one re-derived population row (Result.Recover of a
// decimated trajectory) and promotes it to the trajectory's final row: the
// solve engine uses it when the requested population was skipped by
// decimation, so Final* and MaxX reflect the population the client asked
// for, not the last stored one.
func (t *Trajectory) AppendRecovered(row core.RecoveredRow) {
	t.N = append(t.N, row.N)
	t.X = append(t.X, row.X)
	t.R = append(t.R, row.R)
	t.Cycle = append(t.Cycle, row.Cycle)
	t.FinalUtil = append([]float64(nil), row.Util...)
	t.FinalQueueLen = append([]float64(nil), row.QueueLen...)
	if row.X > t.MaxX {
		t.MaxX, t.MaxXAt = row.X, row.N
	}
}

// Finite reports whether every number the trajectory encodes is finite.
// JSON has no NaN or ±Inf, and a model whose think time and demands sum to
// zero, or whose values overflow float64, solves to them. When a row text
// memo covers the row columns (SetRowText), they are finite already: the
// memo stops at the first row that is not.
func (t *Trajectory) Finite() bool {
	cols := [][]float64{t.X, t.R, t.Cycle, t.FinalUtil, t.FinalQueueLen}
	if t.memoCovers() {
		cols = cols[3:]
	}
	for _, col := range cols {
		for _, v := range col {
			if v-v != 0 { // NaN or ±Inf
				return false
			}
		}
	}
	return t.MaxX-t.MaxX == 0
}

// SolveResponse is the POST /v1/solve reply.
type SolveResponse struct {
	// Cached reports whether the result came from the solve cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the server-side handling time in milliseconds.
	ElapsedMS  float64     `json:"elapsedMs"`
	Trajectory *Trajectory `json:"trajectory"`
}

// SweepRequest is the POST /v1/sweep body: one base solve fanned out over a
// parameter grid. MaxN is derived from Populations and may be omitted.
type SweepRequest struct {
	SolveRequest
	// Populations are the user counts reported per grid point (the solve
	// runs to the largest).
	Populations []int `json:"populations"`
	// ThinkTimes optionally overrides the model's think time, one grid
	// axis value each; empty keeps the model's.
	ThinkTimes []float64 `json:"thinkTimes,omitempty"`
	// Servers optionally sweeps named stations' server counts; every
	// combination across stations is a grid point.
	Servers map[string][]int `json:"servers,omitempty"`
}

// GridPoint is one parameter combination of a sweep.
type GridPoint struct {
	ThinkTime float64        `json:"thinkTime"`
	Servers   map[string]int `json:"servers,omitempty"`
}

// Normalize fills defaults and validates the sweep.
func (r *SweepRequest) Normalize() error {
	if len(r.Populations) == 0 {
		return fmt.Errorf("modelio: sweep request has no populations")
	}
	maxN := 0
	for _, n := range r.Populations {
		if n < 1 {
			return fmt.Errorf("modelio: sweep population %d (want >= 1)", n)
		}
		if n > maxN {
			maxN = n
		}
	}
	r.MaxN = maxN
	if r.Model == nil {
		return fmt.Errorf("modelio: sweep request has no model")
	}
	for name, counts := range r.Servers {
		if r.Model.StationIndex(name) < 0 {
			return fmt.Errorf("modelio: sweep servers: no station %q", name)
		}
		if len(counts) == 0 {
			return fmt.Errorf("modelio: sweep servers: empty axis for %q", name)
		}
		for _, c := range counts {
			if c < 1 {
				return fmt.Errorf("modelio: sweep servers: station %q count %d", name, c)
			}
		}
	}
	for _, z := range r.ThinkTimes {
		if z < 0 {
			return fmt.Errorf("modelio: sweep think time %g", z)
		}
	}
	return r.SolveRequest.Normalize()
}

// Expand enumerates the grid (cartesian product of think times and server
// axes) in a deterministic order, refusing grids larger than limit.
func (r *SweepRequest) Expand(limit int) ([]GridPoint, error) {
	thinks := r.ThinkTimes
	if len(thinks) == 0 {
		thinks = []float64{r.Model.ThinkTime}
	}
	// Deterministic station order for the server axes.
	names := make([]string, 0, len(r.Servers))
	for name := range r.Servers {
		names = append(names, name)
	}
	sort.Strings(names)
	points := []GridPoint{{}}
	for _, name := range names {
		var next []GridPoint
		for _, p := range points {
			for _, c := range r.Servers[name] {
				servers := make(map[string]int, len(p.Servers)+1)
				for k, v := range p.Servers {
					servers[k] = v
				}
				servers[name] = c
				next = append(next, GridPoint{Servers: servers})
			}
		}
		points = next
		if limit > 0 && len(points)*len(thinks) > limit {
			return nil, fmt.Errorf("modelio: sweep grid exceeds %d points", limit)
		}
	}
	var out []GridPoint
	for _, z := range thinks {
		for _, p := range points {
			out = append(out, GridPoint{ThinkTime: z, Servers: p.Servers})
		}
	}
	if limit > 0 && len(out) > limit {
		return nil, fmt.Errorf("modelio: sweep grid exceeds %d points", limit)
	}
	return out, nil
}

// PointRequest derives the grid point's solve request: the base request with
// the model's think time and server counts overridden.
func (r *SweepRequest) PointRequest(p GridPoint) *SolveRequest {
	m := *r.Model
	m.Stations = append([]queueing.Station(nil), r.Model.Stations...)
	m.ThinkTime = p.ThinkTime
	for name, c := range p.Servers {
		m.Stations[m.StationIndex(name)].Servers = c
	}
	req := r.SolveRequest
	req.Model = &m
	return &req
}

// SweepGroup is one solve's worth of a planned sweep: the expanded grid
// points (by index) that resolve to the same model. Populations are not a
// grid axis — every member is answered from one trajectory solved to the
// sweep's MaxN — so points that differ only in population (or in a server
// override equal to the model's own count) collapse into one group.
type SweepGroup struct {
	// Point is the representative grid point (the first member in Expand
	// order); PointRequest(Point) is the group's solve.
	Point GridPoint
	// Members are indices into the expanded grid, in Expand order.
	Members []int
}

// PlanSweep groups the expanded grid points of r by resolved model identity:
// think time plus the fully resolved per-station server counts. Groups are
// returned in first-appearance (Expand) order.
func (r *SweepRequest) PlanSweep(points []GridPoint) []SweepGroup {
	index := make(map[string]int, len(points))
	var groups []SweepGroup
	var sig []byte
	for i, p := range points {
		sig = r.appendPointSignature(sig[:0], p)
		g, ok := index[string(sig)]
		if !ok {
			g = len(groups)
			index[string(sig)] = g
			groups = append(groups, SweepGroup{Point: p})
		}
		groups[g].Members = append(groups[g].Members, i)
	}
	return groups
}

// appendPointSignature appends the resolved identity of a grid point: the
// think time's bit pattern and every station's effective server count. Two
// points with equal signatures yield identical PointRequest models.
func (r *SweepRequest) appendPointSignature(sig []byte, p GridPoint) []byte {
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], math.Float64bits(p.ThinkTime))
	sig = append(sig, u[:]...)
	for _, st := range r.Model.Stations {
		c := st.Servers
		if o, ok := p.Servers[st.Name]; ok {
			c = o
		}
		binary.BigEndian.PutUint64(u[:], uint64(c))
		sig = append(sig, u[:]...)
	}
	return sig
}

// SweepKeyBase caches the expensive part of a sweep's cache keys: the hash
// of (algorithm, interp, samples, base model) is computed once per request,
// and each group's key mixes in only its resolved point signature — instead
// of re-serializing the shared model (and sample arrays) for every grid
// point.
type SweepKeyBase struct {
	req  *SweepRequest
	base [sha256.Size]byte
}

// KeyBase canonicalizes the sweep's shared key material. Call after
// Normalize. The base model is hashed with its think time and every
// station's server count zeroed: those are exactly what a grid point
// resolves, and GroupKey adds the resolved values back. A group's key thus
// depends only on its resolved model, so the one-point sweep of
// PointRequest(p) keys to the same GroupKey as p in the sweep it came from.
func (r *SweepRequest) KeyBase() (*SweepKeyBase, error) {
	base := r.PointRequest(GridPoint{}) // a copy with think time 0
	for i := range base.Model.Stations {
		base.Model.Stations[i].Servers = 0
	}
	sum, err := base.keySum()
	if err != nil {
		return nil, err
	}
	return &SweepKeyBase{req: r, base: sum}, nil
}

// GroupKey returns the cache key of one planned group's solve: the zeroed
// base hash plus the point's resolved think time and server counts. Keys
// are domain-separated from plain CacheKey hashes: a sweep group and a
// /v1/solve request for the same resolved model cache independently (the
// delta-hash construction trades that overlap for never re-serializing the
// base model).
func (k *SweepKeyBase) GroupKey(p GridPoint) string {
	h := sha256.New()
	h.Write([]byte("sweep-point\x00"))
	h.Write(k.base[:])
	h.Write(k.req.appendPointSignature(nil, p))
	return hex.EncodeToString(h.Sum(nil))
}

// SweepRow is one reported population of one grid point.
type SweepRow struct {
	N     int     `json:"n"`
	X     float64 `json:"x"`
	R     float64 `json:"r"`
	Cycle float64 `json:"cycle"`
	// BottleneckUtil is the highest per-server station utilization.
	BottleneckUtil float64 `json:"bottleneckUtil"`
}

// SweepPointResult is one grid point's outcome.
type SweepPointResult struct {
	Point GridPoint `json:"point"`
	// Bottleneck names the station with the highest final utilization.
	Bottleneck string     `json:"bottleneck,omitempty"`
	Rows       []SweepRow `json:"rows,omitempty"`
	Cached     bool       `json:"cached"`
	// Error is set when this point's solve failed; other points still solve.
	Error string `json:"error,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply. Points follow Expand's order.
type SweepResponse struct {
	GridSize  int                `json:"gridSize"`
	Points    []SweepPointResult `json:"points"`
	ElapsedMS float64            `json:"elapsedMs"`
}

// SLASpec is the wire form of planning.SLA.
type SLASpec struct {
	MaxResponseTime float64            `json:"maxResponseTime,omitempty"`
	MaxCycleTime    float64            `json:"maxCycleTime,omitempty"`
	MinThroughput   float64            `json:"minThroughput,omitempty"`
	MaxUtilization  float64            `json:"maxUtilization,omitempty"`
	StationCaps     map[string]float64 `json:"stationCaps,omitempty"`
}

// ToSLA converts to the planning package's type.
func (s SLASpec) ToSLA() planning.SLA {
	return planning.SLA{
		MaxResponseTime: s.MaxResponseTime,
		MaxCycleTime:    s.MaxCycleTime,
		MinThroughput:   s.MinThroughput,
		MaxUtilization:  s.MaxUtilization,
		StationCaps:     s.StationCaps,
	}
}

// PlanRequest is the POST /v1/plan body: the planning package's SLA queries.
type PlanRequest struct {
	Model *queueing.Model `json:"model"`
	// Samples optionally supplies varying demands (MVASD); nil plans with
	// the model's constant demands.
	Samples *SamplesFile `json:"samples,omitempty"`
	Interp  string       `json:"interp,omitempty"`
	// Users is the population the SLA is checked at.
	Users int `json:"users"`
	// Limit, when > 0, additionally scans 1..Limit for the largest
	// SLA-compliant population.
	Limit     int     `json:"limit,omitempty"`
	SLA       SLASpec `json:"sla"`
	TimeoutMS int     `json:"timeoutMs,omitempty"`
}

// Normalize fills defaults and validates the plan request.
func (r *PlanRequest) Normalize() error {
	if r.Model == nil {
		return fmt.Errorf("modelio: plan request has no model")
	}
	if err := validateModel(r.Model, r.Samples != nil); err != nil {
		return err
	}
	if r.Users < 1 {
		return fmt.Errorf("modelio: plan users %d (want >= 1)", r.Users)
	}
	if r.Limit < 0 || r.TimeoutMS < 0 {
		return fmt.Errorf("modelio: negative limit/timeoutMs")
	}
	if r.Interp == "" {
		r.Interp = string(interp.CubicNotAKnot)
	}
	if r.Samples != nil {
		if err := r.Samples.Validate(); err != nil {
			return err
		}
		if _, err := r.Samples.ToDemandSamples(r.Model); err != nil {
			return err
		}
	}
	return nil
}

// Plan builds the planning.Plan (with an interpolated demand model when
// samples are present).
func (r *PlanRequest) Plan() (*planning.Plan, error) {
	p := &planning.Plan{Model: r.Model}
	if r.Samples != nil {
		samples, err := r.Samples.ToDemandSamples(r.Model)
		if err != nil {
			return nil, err
		}
		dm, err := core.NewCurveDemands(interp.Method(r.Interp), samples, interp.Options{})
		if err != nil {
			return nil, err
		}
		p.Demands = dm
	}
	return p, nil
}

// ViolationOut is the wire form of planning.Violation.
type ViolationOut struct {
	Clause string  `json:"clause"`
	Have   float64 `json:"have"`
	Want   float64 `json:"want"`
}

// PlanResponse is the POST /v1/plan reply.
type PlanResponse struct {
	Users      int            `json:"users"`
	Compliant  bool           `json:"compliant"`
	Violations []ViolationOut `json:"violations,omitempty"`
	// MaxUsers is the largest compliant population in [1, limit]; present
	// only when the request set a limit.
	MaxUsers  *int    `json:"maxUsers,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
}
