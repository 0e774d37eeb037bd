package modelio

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/queueing"
)

// jsonCacheable is the cache key's previous material, json.Marshal of these
// fields, kept as the oracle the binary key material must agree with.
type jsonCacheable struct {
	Algorithm  string
	Model      *queueing.Model
	Samples    *SamplesFile `json:",omitempty"`
	Interp     string
	DemandAxis string `json:",omitempty"`
	Decimate   int    `json:",omitempty"`
}

func jsonKeyBytes(r *SolveRequest) ([]byte, error) {
	c := jsonCacheable{Algorithm: r.Algorithm, Model: r.Model, Interp: r.Interp}
	if r.Decimate > 1 {
		c.Decimate = r.Decimate
	}
	if r.NeedsSamples() {
		c.Samples = r.Samples
		if r.DemandAxis == AxisThroughput {
			c.DemandAxis = r.DemandAxis
		}
	}
	return json.Marshal(c)
}

// keyRand draws request fields from small pools, so random pairs collide
// often enough to test both directions of the key identity.
type keyRand struct{ *rand.Rand }

var (
	keyFloats  = []float64{0, math.Copysign(0, -1), 1, 0.5, 0.1, 0.30000000000000004, 1e-300, 5e-324, -2, 1e21}
	keyStrings = []string{"", "a", "b", "app/cpu", "é", " ", "<&>", "a\x00"}
	keyAlgos   = append(Algorithms(), "")
	keyAxes    = []string{"", AxisConcurrency, AxisThroughput}
)

func (k keyRand) float() float64 { return keyFloats[k.Intn(len(keyFloats))] }
func (k keyRand) string() string { return keyStrings[k.Intn(len(keyStrings))] }
func (k keyRand) floats() []float64 {
	switch n := k.Intn(4); n {
	case 0:
		return nil
	default:
		fs := make([]float64, n-1)
		for i := range fs {
			fs[i] = k.float()
		}
		return fs
	}
}

func (k keyRand) request() *SolveRequest {
	r := &SolveRequest{
		Algorithm:  keyAlgos[k.Intn(len(keyAlgos))],
		Interp:     k.string(),
		DemandAxis: keyAxes[k.Intn(len(keyAxes))],
		Decimate:   k.Intn(4),
		MaxN:       k.Intn(3),
		Every:      k.Intn(3),
		TimeoutMS:  k.Intn(3),
	}
	if k.Intn(8) > 0 {
		r.Model = &queueing.Model{Name: k.string(), ThinkTime: k.float()}
		if n := k.Intn(4); n > 0 {
			r.Model.Stations = make([]queueing.Station, n-1)
			for i := range r.Model.Stations {
				r.Model.Stations[i] = k.station()
			}
		}
	}
	if k.Intn(3) > 0 {
		r.Samples = &SamplesFile{}
		if n := k.Intn(4); n > 0 {
			r.Samples.Stations = make([]StationSamples, n-1)
			for i := range r.Samples.Stations {
				r.Samples.Stations[i] = StationSamples{Name: k.string(), At: k.floats(), Demands: k.floats()}
			}
		}
	}
	return r
}

func (k keyRand) station() queueing.Station {
	return queueing.Station{Name: k.string(), Kind: queueing.ResourceKind(k.string()),
		Servers: k.Intn(3) - 1, Visits: k.float(), ServiceTime: k.float()}
}

// cloneRequest deep-copies r, keeping nil and empty slices apart.
func cloneRequest(r *SolveRequest) *SolveRequest {
	c := *r
	if r.Model != nil {
		m := *r.Model
		if r.Model.Stations != nil {
			m.Stations = append([]queueing.Station{}, r.Model.Stations...)
		}
		c.Model = &m
	}
	if r.Samples != nil {
		s := SamplesFile{}
		if r.Samples.Stations != nil {
			s.Stations = make([]StationSamples, len(r.Samples.Stations))
			for i, st := range r.Samples.Stations {
				s.Stations[i] = StationSamples{Name: st.Name, At: cloneFloats(st.At), Demands: cloneFloats(st.Demands)}
			}
		}
		c.Samples = &s
	}
	return &c
}

func cloneFloats(fs []float64) []float64 {
	if fs == nil {
		return nil
	}
	return append([]float64{}, fs...)
}

// perturb returns a copy of r with one field redrawn, often to its old
// value: every field of the key material, and the fields outside it.
func (k keyRand) perturb(r *SolveRequest) *SolveRequest {
	c := cloneRequest(r)
	switch k.Intn(15) {
	case 0:
		c.Algorithm = keyAlgos[k.Intn(len(keyAlgos))]
	case 1:
		c.Interp = k.string()
	case 2:
		c.DemandAxis = keyAxes[k.Intn(len(keyAxes))]
	case 3:
		c.Decimate = k.Intn(4)
	case 4:
		c.MaxN, c.Every, c.TimeoutMS = k.Intn(3), k.Intn(3), k.Intn(3)
	case 5:
		if c.Model != nil {
			c.Model.Name = k.string()
		}
	case 6:
		if c.Model != nil {
			c.Model.ThinkTime = k.float()
		}
	case 7:
		if c.Model != nil && len(c.Model.Stations) > 0 {
			st := &c.Model.Stations[k.Intn(len(c.Model.Stations))]
			switch k.Intn(5) {
			case 0:
				st.Name = k.string()
			case 1:
				st.Kind = queueing.ResourceKind(k.string())
			case 2:
				st.Servers = k.Intn(3) - 1
			case 3:
				st.Visits = k.float()
			default:
				st.ServiceTime = k.float()
			}
		}
	case 8:
		if c.Model != nil {
			switch {
			case c.Model.Stations == nil:
				c.Model.Stations = []queueing.Station{}
			case len(c.Model.Stations) == 0:
				c.Model.Stations = nil
			default:
				c.Model.Stations = append(c.Model.Stations, k.station())
			}
		}
	case 9:
		if c.Samples != nil && len(c.Samples.Stations) > 0 {
			st := &c.Samples.Stations[k.Intn(len(c.Samples.Stations))]
			switch k.Intn(3) {
			case 0:
				st.Name = k.string()
			case 1:
				if len(st.At) > 0 {
					st.At[k.Intn(len(st.At))] = k.float()
				}
			default:
				st.Demands = k.floats()
			}
		}
	case 10:
		if c.Samples == nil {
			c.Samples = &SamplesFile{}
		} else {
			c.Samples = nil
		}
	case 11:
		if c.Samples != nil {
			if c.Samples.Stations == nil {
				c.Samples.Stations = []StationSamples{}
			} else {
				c.Samples.Stations = nil
			}
		}
	case 12:
		c.Model = k.request().Model
	case 13:
		c.Samples = k.request().Samples
	default:
		// A float flipped between 0 and -0.
		if c.Model != nil {
			c.Model.ThinkTime = -c.Model.ThinkTime
		}
	}
	return c
}

// TestCacheKeyMatchesJSONIdentity: over random request pairs, binary keys
// are equal exactly when the previous json.Marshal key material is equal:
// CacheKey over the request's own material, SweepKeyBase.GroupKey over the
// material of the grid point's resolved request (PointRequest).
func TestCacheKeyMatchesJSONIdentity(t *testing.T) {
	k := keyRand{rand.New(rand.NewSource(1))}
	point := GridPoint{ThinkTime: 1}
	var equal, differ int
	for i := 0; i < 20000; i++ {
		a := k.request()
		b := k.perturb(a)
		if k.Intn(4) == 0 {
			b = k.request()
		}
		ja, errA := jsonKeyBytes(a)
		jb, errB := jsonKeyBytes(b)
		if errA != nil || errB != nil {
			t.Fatalf("json key material: %v / %v", errA, errB)
		}
		ka, errA := a.CacheKey()
		kb, errB := b.CacheKey()
		if errA != nil || errB != nil {
			t.Fatalf("CacheKey: %v / %v", errA, errB)
		}
		if len(ka) != 64 || len(kb) != 64 {
			t.Fatalf("keys %q, %q are not 64 hex digits", ka, kb)
		}
		jsonEqual := bytes.Equal(ja, jb)
		if (ka == kb) != jsonEqual {
			t.Fatalf("pair %d: binary keys equal=%v, json material equal=%v\njson a: %s\njson b: %s", i, ka == kb, jsonEqual, ja, jb)
		}
		if a.Model != nil && b.Model != nil {
			sa := &SweepRequest{SolveRequest: *a}
			sb := &SweepRequest{SolveRequest: *b}
			ba, errA := sa.KeyBase()
			bb, errB := sb.KeyBase()
			if errA != nil || errB != nil {
				t.Fatalf("KeyBase: %v / %v", errA, errB)
			}
			// A group key identifies the resolved point model, so bases
			// that differ only in think time or server counts key alike.
			pa, errA := jsonKeyBytes(sa.PointRequest(point))
			pb, errB := jsonKeyBytes(sb.PointRequest(point))
			if errA != nil || errB != nil {
				t.Fatalf("json point key material: %v / %v", errA, errB)
			}
			pointEqual := bytes.Equal(pa, pb)
			if (ba.GroupKey(point) == bb.GroupKey(point)) != pointEqual {
				t.Fatalf("pair %d: group keys equal=%v, json point material equal=%v\njson a: %s\njson b: %s", i, !pointEqual, pointEqual, pa, pb)
			}
		}
		if jsonEqual {
			equal++
		} else {
			differ++
		}
	}
	t.Logf("%d equal, %d differ", equal, differ)
	if equal < 1000 || differ < 1000 {
		t.Fatalf("pairs too lopsided to test both directions: %d equal, %d differ", equal, differ)
	}
}

// TestCacheKeyRejectsNonFinite: like json.Marshal, the key refuses NaN and
// ±Inf wherever a float is keyed, and ignores them where one is not.
func TestCacheKeyRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &SolveRequest{Algorithm: AlgoMVASD, Model: apiTestModel(), Samples: apiTestSamples()}
		r.Samples.Stations[1].Demands[2] = f
		if _, err := r.CacheKey(); err == nil {
			t.Errorf("sample demand %v keyed without error", f)
		}
		if _, err := jsonKeyBytes(r); err == nil {
			t.Errorf("oracle marshalled sample demand %v", f)
		}
		r.Algorithm = AlgoMultiServer // samples are not key material
		if _, err := r.CacheKey(); err != nil {
			t.Errorf("unkeyed sample demand %v: %v", f, err)
		}
		r.Model.Stations[0].Visits = f
		if _, err := r.CacheKey(); err == nil {
			t.Errorf("station visits %v keyed without error", f)
		}
		if _, err := (&SweepRequest{SolveRequest: *r}).KeyBase(); err == nil {
			t.Errorf("sweep key base with visits %v built without error", f)
		}
	}
}
