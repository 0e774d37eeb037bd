package modelio

// This file decodes request bodies. DecodeStrict is the reference: every
// strict-JSON endpoint of solverd decodes through it. DecodeSolveRequest adds
// a one-pass fast path for the schema of a /v1/solve body that accepts only
// input on which it provably agrees with DecodeStrict, and hands everything
// else to DecodeStrict, so accepted edge cases and error texts are
// encoding/json's.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/queueing"
)

// DecodeStrict decodes a request body into v the way every solverd endpoint
// does: unknown fields are errors, and nothing but whitespace may follow the
// JSON value.
func DecodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("decoding request: trailing data after JSON body")
	}
	return nil
}

// DecodeSolveRequest decodes a POST /v1/solve body into r with the result
// and error of DecodeStrict. A zero r first tries a one-pass parser of the
// solve schema. It accepts exactly-spelled keys, each at most once per
// object; strings without escapes, control bytes or invalid UTF-8; and
// numbers in the JSON grammar that strconv converts without error, as
// encoding/json converts them. Any other input (case-folded, unknown or
// repeated keys, null, escapes, out-of-range or fractional integers,
// trailing bytes, syntax errors) is decoded by DecodeStrict.
//
// The fast path looks the "model" and "samples" values up in a bounded memo
// of earlier spans (memo.go) before parsing them, so r.Model and r.Samples
// may be shared with other requests and must be treated as read-only. In
// particular, never decode into a request that already holds them.
func DecodeSolveRequest(body []byte, r *SolveRequest) error {
	if *r == (SolveRequest{}) {
		d := fastDecoder{b: body}
		if d.solveRequest(r) && d.end() {
			return nil
		}
		*r = SolveRequest{}
	}
	return DecodeStrict(body, r)
}

// The JSON keys of each type the fast path decodes, in declaration order;
// TestFastDecoderKeysMatchTags pins them to the struct tags.
var (
	solveRequestKeys   = []string{"algorithm", "model", "samples", "maxN", "interp", "demandAxis", "every", "decimate", "timeoutMs"}
	modelKeys          = []string{"name", "stations", "thinkTime"}
	stationKeys        = []string{"name", "kind", "servers", "visits", "serviceTime"}
	samplesFileKeys    = []string{"stations"}
	stationSamplesKeys = []string{"name", "at", "demands"}
)

// fastDecoder is the solve body's one-pass parser. Every method returns
// false as soon as the input leaves the subset it handles; the caller then
// discards the partial result.
type fastDecoder struct {
	b []byte
	i int
	// fs collects one number array before it is copied out at its final
	// length, so each array costs one allocation.
	fs []float64
}

func (d *fastDecoder) solveRequest(r *SolveRequest) bool {
	return d.object(solveRequestKeys, func(key string) bool {
		switch key {
		case "algorithm":
			return d.str(&r.Algorithm)
		case "model":
			return memoized(d, &modelMemo, &r.Model, d.model)
		case "samples":
			return memoized(d, &samplesMemo, &r.Samples, d.samples)
		case "maxN":
			return d.int(&r.MaxN)
		case "interp":
			return d.str(&r.Interp)
		case "demandAxis":
			return d.str(&r.DemandAxis)
		case "every":
			return d.int(&r.Every)
		case "decimate":
			return d.int(&r.Decimate)
		default: // "timeoutMs"
			return d.int(&r.TimeoutMS)
		}
	})
}

func (d *fastDecoder) model(m *queueing.Model) bool {
	return d.object(modelKeys, func(key string) bool {
		switch key {
		case "name":
			return d.str(&m.Name)
		case "stations":
			m.Stations = []queueing.Station{}
			return d.array(func() bool {
				m.Stations = append(m.Stations, queueing.Station{})
				return d.station(&m.Stations[len(m.Stations)-1])
			})
		default: // "thinkTime"
			return d.float(&m.ThinkTime)
		}
	})
}

func (d *fastDecoder) station(st *queueing.Station) bool {
	return d.object(stationKeys, func(key string) bool {
		switch key {
		case "name":
			return d.str(&st.Name)
		case "kind":
			return d.str((*string)(&st.Kind))
		case "servers":
			return d.int(&st.Servers)
		case "visits":
			return d.float(&st.Visits)
		default: // "serviceTime"
			return d.float(&st.ServiceTime)
		}
	})
}

func (d *fastDecoder) samples(s *SamplesFile) bool {
	return d.object(samplesFileKeys, func(string) bool {
		s.Stations = []StationSamples{}
		return d.array(func() bool {
			s.Stations = append(s.Stations, StationSamples{})
			return d.stationSamples(&s.Stations[len(s.Stations)-1])
		})
	})
}

func (d *fastDecoder) stationSamples(st *StationSamples) bool {
	return d.object(stationSamplesKeys, func(key string) bool {
		switch key {
		case "name":
			return d.str(&st.Name)
		case "at":
			return d.floats(&st.At)
		default: // "demands"
			return d.floats(&st.Demands)
		}
	})
}

// object parses one JSON object whose keys are all in keys (at most 16),
// each at most once, calling member with the matched key when the parser
// stands at the key's value.
func (d *fastDecoder) object(keys []string, member func(key string) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint16
	for {
		name, ok := d.rawString()
		if !ok {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !d.consume(':') || !member(keys[k]) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array parses one JSON array, calling elem with the parser at each element.
func (d *fastDecoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// floats parses an array of numbers; like encoding/json it stores an empty,
// non-nil slice for [].
func (d *fastDecoder) floats(dst *[]float64) bool {
	d.fs = d.fs[:0]
	ok := d.array(func() bool {
		var f float64
		if !d.float(&f) {
			return false
		}
		d.fs = append(d.fs, f)
		return true
	})
	*dst = append(make([]float64, 0, len(d.fs)), d.fs...)
	return ok
}

// str parses a string value into dst.
func (d *fastDecoder) str(dst *string) bool {
	s, ok := d.rawString()
	if !ok {
		return false
	}
	*dst = string(s)
	return true
}

// rawString returns the contents of a string that encoding/json would
// return byte for byte: no escape, no control byte, valid UTF-8.
func (d *fastDecoder) rawString() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// float parses a number into dst with encoding/json's conversion.
func (d *fastDecoder) float(dst *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// int parses a number into dst with encoding/json's conversion and range
// check, so fractions, exponents and overflow fall back.
func (d *fastDecoder) int(dst *int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = int(n)
	return err == nil && int64(*dst) == n
}

// number scans one literal of the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *fastDecoder) number() ([]byte, bool) {
	d.space()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digitsAfter(b, i); i < 0 {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digitsAfter(b, i+1); i < 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digitsAfter(b, i); i < 0 {
			return nil, false
		}
	}
	d.i = i
	return b[start:i], true
}

// digitsAfter returns the index after the run of decimal digits at b[i:],
// or -1 when the run is empty.
func digitsAfter(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *fastDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *fastDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace remains.
func (d *fastDecoder) end() bool {
	d.space()
	return d.i == len(d.b)
}
