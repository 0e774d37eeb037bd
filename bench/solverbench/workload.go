package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"

	"repro/internal/chebyshev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/queueing"
	"repro/internal/testbed"
)

// Workload names, in the order a full run measures them.
const (
	hitDense = "hit-dense"
	coldDeep = "cold-deep"
	mixedRW  = "mixed-rw"
	forward  = "forward"
)

var workloadNames = []string{hitDense, coldDeep, mixedRW, forward}

// workloadWhy is why each workload exists: which layers it stresses and which
// it bypasses, so a change to one layer has a workload predicting "no change".
var workloadWhy = map[string]string{
	hitDense: "every request is a prefix hit, so decode, cache key, middleware and JSON encode are the whole cost and core never runs",
	coldDeep: "every request is a new decimated deep solve, so the stepper, row store and worker pool dominate and the encoder does little",
	mixedRW:  "Zipf-hot keys mix prefix hits, in-place extends, coalesced flights, sweeps and LRU evictions in one cache",
	forward:  "every request crosses the cluster gateway to the owning peer, so the forward hop dominates and core does no work",
}

// tracedRequests is how many requests the traced in-process run replays per
// workload: enough that every layer's p50 rests on hundreds of spans.
var tracedRequests = map[string]int{hitDense: 2000, coldDeep: 300, mixedRW: 1000, forward: 2000}

// Workload shape constants (see README.md for the reasoning behind each).
const (
	hitDenseN      = 400  // primed population of every hit-dense key
	coldDeepStride = 50   // decimation of every cold-deep solve
	mixedKeys      = 64   // live keys in mixed-rw
	mixedRetireN   = 3000 // rows after which a mixed-rw key is replaced
	mixedEvery     = 10   // mixed-rw reply decimation (and population grid)
	mixedSweepMaxN = 400  // largest mixed-rw sweep population
	forwardKeys    = 16   // owner-held keys in forward
	forwardPrimeN  = 200  // primed population of every forward key
)

// Every mixed-rw sweep asks for the same grid shape: three think times and
// two app-tier CPU server counts (6 groups), eight populations.
var (
	sweepThinkTimes = []float64{1, 2, 3}
	sweepServers    = map[string][]int{"app/cpu": {16, 8}}
)

var profileOrder = []string{"vins", "jpetstore"}

// allAlgorithms are the four algorithms hit-dense and forward keys cycle
// through; cold-deep and mixed-rw use the three whose costs differ most.
var allAlgorithms = []string{modelio.AlgoExact, modelio.AlgoMultiServer, modelio.AlgoMVASD, modelio.AlgoMVASDSingleServer}

// variant is one distinct solve identity: a seeded model, its algorithm and
// decimation. Every request for the same variant shares one cache key.
type variant struct {
	profile   string
	algorithm string
	decimate  int
	model     *queueing.Model
	samples   *modelio.SamplesFile
	scale     []float64 // per-station demand multipliers applied to the profile
	// prefix is the request body up to the per-request fields: it ends with
	// a comma, ready for "maxN" (solves) or "populations" (sweeps).
	prefix []byte
}

// profiles is built once; testbed.Profiles allocates fresh profiles per call.
var profiles = testbed.Profiles()

// sampleAt caches each profile's Chebyshev sampling concurrencies, chosen the
// way `solverd -dump-profile` chooses them.
var sampleAt = func() map[string][]int {
	out := make(map[string][]int, len(profiles))
	for name, p := range profiles {
		pts, err := chebyshev.IntegerNodesOn(1, float64(p.MaxUsers), 7)
		if err != nil {
			panic(err) // fixed profile constants; cannot fail
		}
		out[name] = pts
	}
	return out
}()

// newVariant draws a model from profile: the profile's single-user demands
// (as `solverd -dump-profile` writes them) with each station scaled by a
// seeded factor in [0.9, 1.1), so variants differ in their floats as well as
// their name.
func newVariant(rng *rand.Rand, profile, algorithm string, decimate int, name string) *variant {
	p := profiles[profile]
	m := p.Model(1)
	m.Name = name
	scale := make([]float64, len(m.Stations))
	for k := range m.Stations {
		scale[k] = 0.9 + 0.2*rng.Float64()
		m.Stations[k].ServiceTime *= scale[k]
	}
	v := &variant{profile: profile, algorithm: algorithm, decimate: decimate, model: m, scale: scale}
	v.build()
	return v
}

// build derives the samples (for sample-driven algorithms) and body prefix.
func (v *variant) build() {
	if v.algorithm == modelio.AlgoMVASD || v.algorithm == modelio.AlgoMVASDSingleServer {
		p := profiles[v.profile]
		pts := sampleAt[v.profile]
		at := make([]float64, len(pts))
		for i, n := range pts {
			at[i] = float64(n)
		}
		arrays := make([]core.DemandSamples, len(v.model.Stations))
		for k := range arrays {
			arrays[k] = core.DemandSamples{At: at, Demands: make([]float64, len(pts))}
		}
		for j, n := range pts {
			for k, d := range p.TrueDemands(n) {
				arrays[k].Demands[j] = d * v.scale[k]
			}
		}
		s, err := modelio.FromDemandSamples(v.model, arrays)
		if err != nil {
			panic(err) // arrays are built per station above
		}
		v.samples = s
	}
	b := []byte(`{"algorithm":` + strconv.Quote(v.algorithm) + `,"model":`)
	b = appendJSON(b, v.model)
	if v.samples != nil {
		b = append(b, `,"samples":`...)
		b = appendJSON(b, v.samples)
	}
	if v.decimate > 1 {
		b = append(b, `,"decimate":`...)
		b = strconv.AppendInt(b, int64(v.decimate), 10)
	}
	v.prefix = append(b, ',')
}

// derive returns a copy of v whose model carries another name (and solves
// at another decimation), so its cache key and ring position differ while
// every demand stays the same.
func (v *variant) derive(name string, decimate int) *variant {
	m := *v.model
	m.Stations = append([]queueing.Station(nil), v.model.Stations...)
	m.Name = name
	c := &variant{profile: v.profile, algorithm: v.algorithm, decimate: decimate, model: &m, scale: v.scale}
	c.build()
	return c
}

func appendJSON(b []byte, v any) []byte {
	j, err := json.Marshal(v)
	if err != nil {
		panic(err) // models and samples of finite floats always marshal
	}
	return append(b, j...)
}

// solveRequest is the request a solve body for v decodes to.
func (v *variant) solveRequest(maxN, every int) *modelio.SolveRequest {
	return &modelio.SolveRequest{
		Algorithm: v.algorithm,
		Model:     v.model,
		Samples:   v.samples,
		MaxN:      maxN,
		Every:     every,
		Decimate:  v.decimate,
	}
}

func (v *variant) solveBody(maxN, every int) []byte {
	b := append([]byte(nil), v.prefix...)
	b = append(b, `"maxN":`...)
	b = strconv.AppendInt(b, int64(maxN), 10)
	if every > 0 {
		b = append(b, `,"every":`...)
		b = strconv.AppendInt(b, int64(every), 10)
	}
	return append(b, '}')
}

// sweepRequest is the request a sweep body for v decodes to.
func (v *variant) sweepRequest(pops []int) *modelio.SweepRequest {
	return &modelio.SweepRequest{
		SolveRequest: *v.solveRequest(0, 0),
		Populations:  pops,
		ThinkTimes:   sweepThinkTimes,
		Servers:      sweepServers,
	}
}

func (v *variant) sweepBody(pops []int) []byte {
	b := append([]byte(nil), v.prefix...)
	b = append(b, `"populations":`...)
	b = appendJSON(b, pops)
	b = append(b, `,"thinkTimes":`...)
	b = appendJSON(b, sweepThinkTimes)
	b = append(b, `,"servers":`...)
	b = appendJSON(b, sweepServers)
	return append(b, '}')
}

// cachedExpect is what a reply's "cached" flag must say.
type cachedExpect int8

const (
	cachedAny   cachedExpect = iota // either is correct (eviction or coalescing may decide)
	cachedTrue                      // the key is primed past maxN and cannot be evicted
	cachedFalse                     // nothing can have solved this key this far yet
)

// request is one generated request. The server sees only body; the other
// fields let the oracle recompute the expected reply.
type request struct {
	idx    int
	sweep  bool
	body   []byte
	v      *variant
	maxN   int
	every  int
	pops   []int // sweep populations
	expect cachedExpect
}

func (r *request) path() string {
	if r.sweep {
		return "/v1/sweep"
	}
	return "/v1/solve"
}

func solveReq(v *variant, maxN, every int, expect cachedExpect) *request {
	return &request{body: v.solveBody(maxN, every), v: v, maxN: maxN, every: every, expect: expect}
}

// generator produces one workload's request stream from its seed.
type generator interface {
	// prime returns the set-up requests, sent before any measured traffic.
	prime() []*request
	// next returns the next request of the stream.
	next() *request
}

// newGenerator seeds workload's stream. members is the cluster member list
// the forward workload picks owner-held keys against (ignored otherwise).
func newGenerator(workload string, seed int64, members []string) (generator, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x736f6c7665726265)) // "solverbe"
	switch workload {
	case hitDense:
		return newHitDenseGen(rng), nil
	case coldDeep:
		return &coldDeepGen{rng: rng}, nil
	case mixedRW:
		return newMixedGen(rng), nil
	case forward:
		return newForwardGen(rng, members)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// hitDenseGen: 8 keys (2 profiles x 4 algorithms) primed at N=400; every
// request asks for maxN ~ U[100,400] with every=0.
type hitDenseGen struct {
	rng  *rand.Rand
	keys []*variant
}

func newHitDenseGen(rng *rand.Rand) *hitDenseGen {
	g := &hitDenseGen{rng: rng}
	for _, prof := range profileOrder {
		for _, alg := range allAlgorithms {
			g.keys = append(g.keys, newVariant(rng, prof, alg, 0, fmt.Sprintf("%s-hd-%s", prof, alg)))
		}
	}
	return g
}

func (g *hitDenseGen) prime() []*request {
	out := make([]*request, len(g.keys))
	for i, v := range g.keys {
		out[i] = solveReq(v, hitDenseN, 0, cachedFalse)
	}
	return out
}

func (g *hitDenseGen) next() *request {
	v := g.keys[g.rng.IntN(len(g.keys))]
	return solveReq(v, 100+g.rng.IntN(hitDenseN-100+1), 0, cachedTrue)
}

// coldDeepGen: every request is a never-seen model (unique name), 40%
// multiserver, 30% exact, 30% mvasd, decimate=50, every=4; maxN is a
// multiple of 50 in [2000, 20000] (mvasd: [MaxUsers, 4*MaxUsers]).
type coldDeepGen struct {
	rng *rand.Rand
	n   int
}

func (g *coldDeepGen) prime() []*request { return nil }

func (g *coldDeepGen) next() *request {
	i := g.n
	g.n++
	alg := modelio.AlgoMVASD
	switch u := g.rng.Float64(); {
	case u < 0.4:
		alg = modelio.AlgoMultiServer
	case u < 0.7:
		alg = modelio.AlgoExact
	}
	prof := profileOrder[g.rng.IntN(len(profileOrder))]
	v := newVariant(g.rng, prof, alg, coldDeepStride, fmt.Sprintf("%s-cd-%d", prof, i))
	lo, hi := 2000/coldDeepStride, 20000/coldDeepStride
	if alg == modelio.AlgoMVASD {
		mu := profiles[prof].MaxUsers
		lo, hi = (mu+coldDeepStride-1)/coldDeepStride, 4*mu/coldDeepStride
	}
	maxN := coldDeepStride * (lo + g.rng.IntN(hi-lo+1))
	return solveReq(v, maxN, 4, cachedFalse)
}

// mixedSlot is one live mixed-rw key: its current variant and the highest
// population any request has asked of it (its high-water N).
type mixedSlot struct {
	i, gen int
	v      *variant
	hw     int
}

// mixedGen: 64 Zipf(1.1)-chosen keys; 60% prefix hits at or below the key's
// high-water N, 30% extends past it by U[50,200], 10% sweeps of eight
// populations up to min(high-water, 400). A key that reaches 3000 rows is
// replaced by a fresh variant (its next request is a cold solve). Solve
// populations are multiples of 10 and replies use every=10. The sweep cap
// keeps the group entries (6 per key, 384 in all, past the 256-entry LRU)
// small, so the node's memory is not all sweep rows.
type mixedGen struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	slots []*mixedSlot
}

func newMixedGen(rng *rand.Rand) *mixedGen {
	g := &mixedGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, mixedKeys-1)}
	for i := 0; i < mixedKeys; i++ {
		s := &mixedSlot{i: i}
		g.renew(s)
		s.hw = mixedEvery * (10 + rng.IntN(31))
		g.slots = append(g.slots, s)
	}
	return g
}

var mixedAlgorithms = []string{modelio.AlgoExact, modelio.AlgoMultiServer, modelio.AlgoMVASD}

func (g *mixedGen) renew(s *mixedSlot) {
	alg := mixedAlgorithms[s.i%len(mixedAlgorithms)]
	prof := profileOrder[(s.i/len(mixedAlgorithms))%len(profileOrder)]
	s.v = newVariant(g.rng, prof, alg, 0, fmt.Sprintf("%s-mx-%d-%d", prof, s.i, s.gen))
	s.gen++
	s.hw = 0
}

// retireAt is the row count that retires a slot's key. Sample-driven keys
// stop at 4x the profile's sampled range, as cold-deep's mvasd solves do.
func (s *mixedSlot) retireAt() int {
	if s.v.algorithm == modelio.AlgoMVASD {
		return min(mixedRetireN, 4*profiles[s.v.profile].MaxUsers)
	}
	return mixedRetireN
}

func (g *mixedGen) prime() []*request {
	out := make([]*request, len(g.slots))
	for i, s := range g.slots {
		out[i] = solveReq(s.v, s.hw, mixedEvery, cachedFalse)
	}
	return out
}

func (g *mixedGen) next() *request {
	s := g.slots[g.zipf.Uint64()]
	if s.hw == 0 { // a retired key's replacement: its first request solves cold
		s.hw = mixedEvery * (10 + g.rng.IntN(31))
		return solveReq(s.v, s.hw, mixedEvery, cachedFalse)
	}
	switch u := g.rng.Float64(); {
	case u < 0.6:
		return solveReq(s.v, mixedEvery*(1+g.rng.IntN(s.hw/mixedEvery)), mixedEvery, cachedAny)
	case u < 0.9:
		s.hw += mixedEvery * (5 + g.rng.IntN(16))
		r := solveReq(s.v, s.hw, mixedEvery, cachedFalse)
		if s.hw >= s.retireAt() {
			g.renew(s)
		}
		return r
	default:
		top := min(s.hw, mixedSweepMaxN)
		pops := make([]int, 8)
		for k := range pops {
			pops[k] = top * (k + 1) / len(pops)
		}
		return &request{sweep: true, body: s.v.sweepBody(pops), v: s.v, maxN: top, pops: pops, expect: cachedAny}
	}
}

// forwardGen: 16 keys the second member owns on cluster.NewRing over the
// member list, primed at N=200; requests ask for maxN ~ U[100,200], every=4.
type forwardGen struct {
	rng  *rand.Rand
	keys []*variant
}

func newForwardGen(rng *rand.Rand, members []string) (*forwardGen, error) {
	if len(members) != 2 {
		return nil, fmt.Errorf("forward needs a two-member list, got %v", members)
	}
	ring := cluster.NewRing(members, cluster.DefaultVirtualNodes)
	g := &forwardGen{rng: rng}
	for j := 0; len(g.keys) < forwardKeys; j++ {
		if j == 4096 {
			return nil, fmt.Errorf("no %d keys owned by %s in %d candidates", forwardKeys, members[1], j)
		}
		prof := profileOrder[j%len(profileOrder)]
		alg := allAlgorithms[(j/len(profileOrder))%len(allAlgorithms)]
		v := newVariant(rng, prof, alg, 0, fmt.Sprintf("%s-fw-%d", prof, j))
		owner, err := ownerOf(ring, v)
		if err != nil {
			return nil, err
		}
		if owner == members[1] {
			g.keys = append(g.keys, v)
		}
	}
	return g, nil
}

// ownerOf is the ring member that owns v's cache key.
func ownerOf(ring *cluster.Ring, v *variant) (string, error) {
	req := v.solveRequest(1, 0)
	if err := req.Normalize(); err != nil {
		return "", err
	}
	key, err := req.CacheKey()
	if err != nil {
		return "", err
	}
	return ring.Owner(key), nil
}

func (g *forwardGen) prime() []*request {
	out := make([]*request, len(g.keys))
	for i, v := range g.keys {
		out[i] = solveReq(v, forwardPrimeN, 4, cachedFalse)
	}
	return out
}

func (g *forwardGen) next() *request {
	v := g.keys[g.rng.IntN(len(g.keys))]
	return solveReq(v, 100+g.rng.IntN(forwardPrimeN-100+1), 4, cachedTrue)
}

// stream hands one generator's requests to concurrent clients in dispatch
// order and keeps every request it handed out for the oracle.
type stream struct {
	mu  sync.Mutex
	gen generator
	log []*request
}

func (s *stream) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.gen.next()
	r.idx = len(s.log)
	s.log = append(s.log, r)
	return r
}
