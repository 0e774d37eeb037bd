package modelio

// Wire types of the self-model surface: GET /v1/self on a node and
// GET /cluster/v1/self on the gateway. The self-model (internal/selfmodel)
// is each node running the paper's loop on itself — sampling its own
// worker-pool utilization and request flow, estimating its two-station
// demands, and solving MVASD to predict its own saturation.

// SelfCurvePoint is one population of a node's predicted trajectory.
type SelfCurvePoint struct {
	// N is the concurrency (population) of this point.
	N int `json:"n"`
	// X is the predicted throughput in requests/s.
	X float64 `json:"x"`
	// CycleSeconds is the predicted request wall time.
	CycleSeconds float64 `json:"cycleSeconds"`
	// Utilization is the predicted per-worker utilization (0..1).
	Utilization float64 `json:"utilization"`
}

// SelfDeviation is one predicted-vs-observed metric scored against the
// paper's validation bounds (3% throughput, 9% latency).
type SelfDeviation struct {
	Metric   string  `json:"metric"`
	Ratio    float64 `json:"ratio"`
	Bound    float64 `json:"bound"`
	Breached bool    `json:"breached"`
	Breaches uint64  `json:"breaches"`
}

// SelfResponse is GET /v1/self: one node's live self-model.
type SelfResponse struct {
	// Node is the address this node is known by.
	Node string `json:"node,omitempty"`
	// Ready is false until enough windows accumulated for a demand fit;
	// the observation fields are still populated while false.
	Ready bool `json:"ready"`
	// SnapshotVersion is the demand snapshot the curve is solved from.
	SnapshotVersion uint64 `json:"snapshotVersion,omitempty"`
	// Workers is the node's worker-pool capacity (the model's server count).
	Workers int `json:"workers"`
	// MaxN is the concurrency ceiling the curve is solved to.
	MaxN int `json:"maxN"`

	// Windows / Completions are lifetime sampling totals.
	Windows     uint64 `json:"windows"`
	Completions uint64 `json:"completions"`
	// InFlight is the sampled in-flight count at response time.
	InFlight int `json:"inFlight"`

	// Latest non-empty window's observations; latencies in seconds.
	ObservedConcurrency float64 `json:"observedConcurrency,omitempty"`
	ObservedThroughput  float64 `json:"observedThroughput,omitempty"`
	ObservedP50Seconds  float64 `json:"observedP50Seconds,omitempty"`
	ObservedP99Seconds  float64 `json:"observedP99Seconds,omitempty"`

	// Predictions at the observed concurrency (absent until Ready).
	PredictedThroughput float64 `json:"predictedThroughput,omitempty"`
	PredictedP50Seconds float64 `json:"predictedP50Seconds,omitempty"`
	PredictedP99Seconds float64 `json:"predictedP99Seconds,omitempty"`

	// Deviations carries the latest scored ratios (3%/9% bounds).
	Deviations []SelfDeviation `json:"deviations,omitempty"`

	// Curve is the predicted trajectory, downsampled to ~64 stride-sampled
	// points plus the saturation knee and the final population.
	Curve []SelfCurvePoint `json:"curve,omitempty"`

	// Saturated: the knee lies inside the solved range; KneeN is the first
	// concurrency at the saturation-utilization threshold. P99LimitN is the
	// largest concurrency honoring the configured p99 bound (0 without one).
	// MaxSafeN combines both; Headroom = MaxSafeN - InFlight.
	Saturated bool `json:"saturated"`
	KneeN     int  `json:"kneeN,omitempty"`
	P99LimitN int  `json:"p99LimitN,omitempty"`
	MaxSafeN  int  `json:"maxSafeN,omitempty"`
	Headroom  int  `json:"headroom"`
	// ShedAdvised is the advisory observe-only signal that the node predicts
	// it is at or past its safe concurrency.
	ShedAdvised bool `json:"shedAdvised"`

	// LastFitError is the most recent demand-fit failure ("" once fitted).
	LastFitError string `json:"lastFitError,omitempty"`

	// Admission is the node's admission-gate snapshot (internal/admission);
	// present whenever the node runs one, including while the self-model is
	// still warming.
	Admission *SelfAdmission `json:"admission,omitempty"`
}

// SelfAdmission is one node's admission-control snapshot: what the gate in
// front of the worker pool decided (admitted/shed/redirected) and how many
// solves the solve cache's entry lock answered from another request's run.
type SelfAdmission struct {
	// Mode is the gate's action mode: off, observe or enforce.
	Mode string `json:"mode"`
	// Admitted counts requests let through; OverCapacity those that arrived
	// past the predicted safe concurrency (counted in observe mode too,
	// where they are still admitted).
	Admitted     uint64 `json:"admitted"`
	OverCapacity uint64 `json:"overCapacity"`
	// Shed counts 429-refused requests; Redirected refusals resolved by
	// forwarding to a ring peer with predicted headroom.
	Shed       uint64 `json:"shed"`
	Redirected uint64 `json:"redirected"`
	// Coalesced counts solves that waited on a solve-cache entry lock and
	// were answered from another request's run; CoalesceWaiters is the
	// gauge of solves blocked on an entry lock now.
	Coalesced       uint64 `json:"coalesced"`
	CoalesceWaiters int    `json:"coalesceWaiters"`
}

// ClusterSelfNode is one ring member's self-model (or why it is missing).
type ClusterSelfNode struct {
	Member string        `json:"member"`
	Error  string        `json:"error,omitempty"`
	Self   *SelfResponse `json:"self,omitempty"`
}

// ClusterSelfResponse is GET /cluster/v1/self: the fleet headroom view.
type ClusterSelfResponse struct {
	// Self is the answering gateway's member address.
	Self string `json:"self"`
	// Nodes lists every ring member's self-model, answering node first.
	Nodes []ClusterSelfNode `json:"nodes"`
	// Missing lists members that did not answer.
	Missing []string `json:"missing,omitempty"`

	// Fleet aggregates over the nodes that answered with a ready model:
	// summed headroom, in-flight and max-safe concurrency.
	FleetHeadroom int `json:"fleetHeadroom"`
	FleetInFlight int `json:"fleetInFlight"`
	FleetMaxSafe  int `json:"fleetMaxSafe"`
	// ReadyNodes counts answering members with a solved self-model.
	ReadyNodes int `json:"readyNodes"`
	// ShedAdvised is true when any ready node advises shedding.
	ShedAdvised bool `json:"shedAdvised"`

	// Fleet admission totals, summed over every answering node that reported
	// an admission snapshot (ready or not).
	FleetShed       uint64 `json:"fleetShed"`
	FleetRedirected uint64 `json:"fleetRedirected"`
	FleetCoalesced  uint64 `json:"fleetCoalesced"`

	ElapsedMS float64 `json:"elapsedMs"`
}
