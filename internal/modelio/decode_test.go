package modelio

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chebyshev"
	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/testbed"
)

// referenceDecode is the strict json.Decoder that solverd has always
// decoded request bodies with, kept here verbatim as the oracle for
// DecodeStrict and DecodeSolveRequest.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errors.New("decoding request: " + err.Error())
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("decoding request: trailing data after JSON body")
	}
	return nil
}

// solveBody is a /v1/solve body the way solverbench builds one: a testbed
// profile's single-user model, with seven Chebyshev-node demand samples per
// station for the sample-driven algorithms.
func solveBody(tb testing.TB, profile, algorithm string) []byte {
	tb.Helper()
	p := testbed.Profiles()[profile]
	req := SolveRequest{Algorithm: algorithm, Model: p.Model(1), MaxN: 200}
	if algorithm == AlgoMVASD || algorithm == AlgoMVASDSingleServer {
		pts, err := chebyshev.IntegerNodesOn(1, float64(p.MaxUsers), 7)
		if err != nil {
			tb.Fatal(err)
		}
		arrays := make([]core.DemandSamples, len(req.Model.Stations))
		for k := range arrays {
			arrays[k] = core.DemandSamples{At: make([]float64, len(pts)), Demands: make([]float64, len(pts))}
		}
		for j, n := range pts {
			for k, d := range p.TrueDemands(n) {
				arrays[k].At[j] = float64(n)
				arrays[k].Demands[j] = d
			}
		}
		if req.Samples, err = FromDemandSamples(req.Model, arrays); err != nil {
			tb.Fatal(err)
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

const parityModel = `{"name":"x","thinkTime":1,"stations":[{"name":"q","kind":"cpu","servers":2,"visits":1,"serviceTime":0.1}]}`

// parityBodies are the edge cases whose outcome (accepted request or error
// text) must be encoding/json's, whichever path decodes them. The wire-level
// tables in internal/server and internal/cluster post the same bodies.
var parityBodies = map[string]string{
	"canonical":          `{"model":` + parityModel + `,"maxN":5}`,
	"whitespace":         " \t\r\n{ \"model\" : " + parityModel + " , \"maxN\" : 5 } \n",
	"case-folded key":    `{"model":` + parityModel + `,"MaxN":5}`,
	"duplicate model":    `{"model":{"name":"a","thinkTime":2},"model":` + parityModel + `,"maxN":5}`,
	"duplicate maxN":     `{"model":` + parityModel + `,"maxN":5,"maxN":6}`,
	"null model":         `{"model":null,"maxN":5}`,
	"null maxN":          `{"model":` + parityModel + `,"maxN":null}`,
	"trailing object":    `{"model":` + parityModel + `,"maxN":5}{}`,
	"trailing garbage":   `{"model":` + parityModel + `,"maxN":5}x`,
	"fractional int":     `{"model":` + parityModel + `,"maxN":1.0}`,
	"exponent int":       `{"model":` + parityModel + `,"maxN":1e1}`,
	"int overflow":       `{"model":` + parityModel + `,"maxN":9223372036854775808}`,
	"float overflow":     `{"model":{"name":"x","thinkTime":1e400,"stations":[]},"maxN":5}`,
	"float underflow":    `{"model":{"name":"x","thinkTime":1e-400,"stations":[]},"maxN":5}`,
	"negative zero":      `{"model":{"name":"x","thinkTime":-0,"stations":[{"name":"q","servers":1,"visits":-0.0,"serviceTime":0}]},"maxN":5}`,
	"escaped name":       `{"model":{"name":"x","thinkTime":1,"stations":[{"name":"q\u00e9","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}]},"maxN":5}`,
	"non-ASCII name":     `{"model":{"name":"x","thinkTime":1,"stations":[{"name":"qé","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}]},"maxN":5}`,
	"invalid UTF-8 name": "{\"model\":{\"name\":\"x\xff\",\"thinkTime\":1,\"stations\":[]},\"maxN\":5}",
	"control byte":       "{\"model\":{\"name\":\"x\x01\",\"stations\":[]},\"maxN\":5}",
	"empty body":         ``,
	"whitespace only":    ` `,
	"syntax":             `{`,
	"unknown field":      `{"model":` + parityModel + `,"maxN":5,"bogus":1}`,
	"wrong type":         `{"model":` + parityModel + `,"maxN":"5"}`,
	"empty arrays":       `{"algorithm":"mvasd","model":{"name":"x","stations":[]},"samples":{"stations":[{"at":[],"demands":[]}]},"maxN":5}`,
	"empty objects":      `{"model":{},"samples":{}}`,
	"leading zero":       `{"model":` + parityModel + `,"maxN":05}`,
	"top-level array":    `[]`,
	"top-level null":     `null`,
	"trailing comma":     `{"model":` + parityModel + `,"maxN":5,}`,
}

// floatBits lists every float of a decoded request as raw bits, so a
// comparison tells -0 from 0 where reflect.DeepEqual does not.
func floatBits(r *SolveRequest) []uint64 {
	var out []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
	}
	if r.Model != nil {
		add(r.Model.ThinkTime)
		for _, st := range r.Model.Stations {
			add(st.Visits, st.ServiceTime)
		}
	}
	if r.Samples != nil {
		for _, st := range r.Samples.Stations {
			add(st.At...)
			add(st.Demands...)
		}
	}
	return out
}

// checkDecodeParity asserts DecodeSolveRequest and DecodeStrict agree with
// the reference decoder on body, and that whatever the fast path accepts
// the reference accepts with a bit-identical request.
func checkDecodeParity(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var want SolveRequest
	wantErr := referenceDecode(body, &want)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	var strict SolveRequest
	if got := DecodeStrict(body, &strict); errText(got) != errText(wantErr) {
		t.Fatalf("DecodeStrict(%q) error %q, reference %q", body, errText(got), errText(wantErr))
	}
	var got SolveRequest
	if err := DecodeSolveRequest(body, &got); errText(err) != errText(wantErr) {
		t.Fatalf("DecodeSolveRequest(%q) error %q, reference %q", body, errText(err), errText(wantErr))
	}
	var direct SolveRequest
	d := fastDecoder{b: body}
	fast = d.solveRequest(&direct) && d.end()
	for _, c := range []struct {
		name string
		r    *SolveRequest
		ok   bool
	}{{"DecodeSolveRequest", &got, wantErr == nil}, {"fast path", &direct, fast}} {
		if !c.ok {
			continue
		}
		if wantErr != nil {
			t.Fatalf("fast path accepted %q; reference error %q", body, wantErr)
		}
		if !reflect.DeepEqual(c.r, &want) {
			t.Fatalf("%s decoded %q to\n%+v\nreference\n%+v", c.name, body, c.r, &want)
		}
		if !reflect.DeepEqual(floatBits(c.r), floatBits(&want)) {
			t.Fatalf("%s decoded %q with float bits %x, reference %x", c.name, body, floatBits(c.r), floatBits(&want))
		}
	}
	return fast
}

func TestDecodeSolveRequestParity(t *testing.T) {
	for name, body := range parityBodies {
		t.Run(name, func(t *testing.T) { checkDecodeParity(t, []byte(body)) })
	}
}

// TestDecodeSolveRequestFastPath pins which bodies the fast path takes: the
// benchmark's canonical bodies must not silently fall back, and the edge
// cases that encoding/json treats specially must.
func TestDecodeSolveRequestFastPath(t *testing.T) {
	fast := map[string][]byte{
		"vins multiserver":    solveBody(t, "vins", AlgoMultiServer),
		"vins mvasd":          solveBody(t, "vins", AlgoMVASD),
		"jpetstore mvasd-1s":  solveBody(t, "jpetstore", AlgoMVASDSingleServer),
		"canonical":           []byte(parityBodies["canonical"]),
		"whitespace":          []byte(parityBodies["whitespace"]),
		"non-ASCII name":      []byte(parityBodies["non-ASCII name"]),
		"negative zero":       []byte(parityBodies["negative zero"]),
		"empty arrays":        []byte(parityBodies["empty arrays"]),
		"every keyed field":   []byte(`{"algorithm":"mvasd","model":` + parityModel + `,"samples":{"stations":[{"name":"q","at":[1,2],"demands":[0.1,0.2]}]},"maxN":5,"interp":"linear","demandAxis":"throughput","every":2,"decimate":3,"timeoutMs":100}`),
		"float underflow":     []byte(parityBodies["float underflow"]),
		"large negative ints": []byte(`{"model":` + parityModel + `,"maxN":-9223372036854775808}`),
	}
	for name, body := range fast {
		if !checkDecodeParity(t, body) {
			t.Errorf("%s: fast path fell back on %q", name, body)
		}
	}
	for _, name := range []string{"case-folded key", "duplicate model", "null model", "trailing object",
		"fractional int", "float overflow", "escaped name", "invalid UTF-8 name", "empty body"} {
		if checkDecodeParity(t, []byte(parityBodies[name])) {
			t.Errorf("%s: fast path accepted a body it must leave to encoding/json", name)
		}
	}
}

// TestDecodeSolveRequestNonZeroTarget: a request that already holds values
// is decoded by encoding/json alone, which merges into it.
func TestDecodeSolveRequestNonZeroTarget(t *testing.T) {
	body := []byte(`{"maxN":5}`)
	got, want := SolveRequest{Interp: "linear"}, SolveRequest{Interp: "linear"}
	if err := DecodeSolveRequest(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := referenceDecode(body, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestFastDecoderKeysMatchTags: the fast path's key lists are exactly the
// JSON names of the fields it decodes, so a field added to one of these
// types cannot be silently skipped by it.
func TestFastDecoderKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(SolveRequest{}), solveRequestKeys},
		{reflect.TypeOf(queueing.Model{}), modelKeys},
		{reflect.TypeOf(queueing.Station{}), stationKeys},
		{reflect.TypeOf(SamplesFile{}), samplesFileKeys},
		{reflect.TypeOf(StationSamples{}), stationSamplesKeys},
	} {
		var tags []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				t.Fatalf("%s.%s has no JSON name; the fast path only handles tagged fields", c.typ, f.Name)
			}
			tags = append(tags, name)
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s: JSON names %v, fast path keys %v", c.typ, tags, c.keys)
		}
		if len(c.keys) > 16 {
			t.Errorf("%s: %d keys overflow the fast path's seen mask", c.typ, len(c.keys))
		}
	}
}

// FuzzDecodeSolveRequest: for every input, DecodeSolveRequest returns
// encoding/json's error text, and whatever the fast path accepts, the
// reference decoder accepts with a reflect.DeepEqual, bit-identical
// request. Each input is decoded twice: from an empty memo, so its model and
// samples are parsed, and then again, when they may come from the memo.
//
//	go test -run '^$' -fuzz '^FuzzDecodeSolveRequest$' -fuzztime 30s ./internal/modelio
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, body := range parityBodies {
		f.Add([]byte(body))
	}
	for _, algo := range []string{AlgoMultiServer, AlgoMVASD} {
		f.Add(solveBody(f, "vins", algo))
		f.Add(solveBody(f, "jpetstore", algo))
	}
	f.Add([]byte(`{"algorithm":"mvasd","model":` + parityModel + `,"samples":{"stations":[{"name":"q","at":[1,2.5e3,1E-2],"demands":[-0.1,0.2,3]}]},"maxN":5,"interp":"linear","demandAxis":"throughput","every":2,"decimate":3,"timeoutMs":100}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		resetMemos()
		checkDecodeParity(t, body)
		checkDecodeParity(t, body)
	})
}
