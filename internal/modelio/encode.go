package modelio

// This file is the append-based encoder for the /v1/solve reply. It writes
// exactly the bytes json.NewEncoder(w).Encode would (trailing newline
// included), but a reply served from a cache entry can copy its row columns
// from the entry's RowText memo instead of re-formatting every float.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// RowText memoizes the JSON text of a dense trajectory's N/X/R/Cycle columns
// at one stride e: memo row j holds the values of row j·e (population
// j·e+1). Each column holds its rows' values, every one followed by its
// comma, and ends records where each row's text stops. A memo only ever
// grows: Extend returns a new memo (old text copied, new rows formatted) and
// never writes to one that readers may hold.
type RowText struct {
	stride int
	cols   [4][]byte   // n, x, r, cycle
	ends   [4][]uint32 // ends[c][j]: offset in cols[c] just past row j's comma
}

// Rows returns how many rows the memo covers (0 for a nil memo).
func (rt *RowText) Rows() int {
	if rt == nil {
		return 0
	}
	return len(rt.ends[0])
}

// Stride returns the memo's stride (0 for a nil memo).
func (rt *RowText) Stride() int {
	if rt == nil {
		return 0
	}
	return rt.stride
}

// Extend returns a memo of rows 0, every, 2·every, … of the columns (every
// ≤ 1 memoizes every row), copying rt's text and formatting only the rows
// past it. The columns must be the rows rt was built from, extended or cut;
// a memo at another stride is not reused, the new one starts over. Rows are
// memoized while they are dense populations (row i holds population i+1)
// with finite values; the first row that is not stops the memo, so a memo
// never holds text that encoding/json would refuse. When no row is added, rt
// itself is returned (nil when its stride differs).
func (rt *RowText) Extend(every int, n []int, x, r, cycle []float64) *RowText {
	every = max(every, 1)
	if rt.Stride() != every {
		rt = nil
	}
	var add [4][]byte    // the new rows' text
	var adds [4][]uint32 // add's row ends
	for i := rt.Rows() * every; i < min(len(n), len(x), len(r), len(cycle)); i += every {
		if n[i] != i+1 || !finite(x[i]) || !finite(r[i]) || !finite(cycle[i]) {
			break
		}
		add[0] = append(strconv.AppendInt(add[0], int64(n[i]), 10), ',')
		add[1] = append(appendFloat(add[1], x[i]), ',')
		add[2] = append(appendFloat(add[2], r[i]), ',')
		add[3] = append(appendFloat(add[3], cycle[i]), ',')
		for c := range adds {
			adds[c] = append(adds[c], uint32(len(add[c])))
		}
	}
	if len(adds[0]) == 0 {
		return rt
	}
	// Each column is allocated once at its final size: the old text is
	// copied once and the memo keeps no growth slack.
	next := &RowText{stride: every}
	for c := range next.cols {
		var text []byte
		var ends []uint32
		if rt != nil {
			text, ends = rt.cols[c], rt.ends[c]
		}
		next.cols[c] = append(append(make([]byte, 0, len(text)+len(add[c])), text...), add[c]...)
		next.ends[c] = append(make([]uint32, 0, len(ends)+len(adds[c])), ends...)
		for _, end := range adds[c] {
			next.ends[c] = append(next.ends[c], uint32(len(text))+end)
		}
	}
	return next
}

// appendRows appends column c's text of the first k rows (k ≥ 1 and k ≤
// Rows()), each value followed by its comma.
func (rt *RowText) appendRows(b []byte, c, k int) []byte {
	return append(b, rt.cols[c][:rt.ends[c][k-1]]...)
}

// SetRowText attaches a row-text memo to the trajectory. The memo must have
// been built from the rows this trajectory was cut from, at any stride.
// AppendJSON copies the text of the trajectory's leading rows whose
// populations sit on the memo's rows (see memoRows) and formats the rest,
// typically the one off-stride final population NewTrajectory appends.
// encoding/json ignores the memo, so both encoders produce the same bytes.
func (t *Trajectory) SetRowText(rt *RowText) { t.text = rt }

// AppendJSON appends the response's JSON encoding to b: byte-identical to
// json.NewEncoder(w).Encode(r), trailing newline included. Like
// encoding/json it fails on a NaN or infinite float, leaving b's contents
// past its original length undefined.
func (r *SolveResponse) AppendJSON(b []byte) ([]byte, error) {
	if r == nil {
		return append(b, "null\n"...), nil
	}
	b = append(b, `{"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	b = append(b, `,"elapsedMs":`...)
	b, err := appendFloatField(b, r.ElapsedMS)
	if err != nil {
		return b, err
	}
	b = append(b, `,"trajectory":`...)
	if b, err = r.Trajectory.appendJSON(b); err != nil {
		return b, err
	}
	return append(b, '}', '\n'), nil
}

// appendJSON appends the trajectory's JSON object (null for nil).
func (t *Trajectory) appendJSON(b []byte) ([]byte, error) {
	if t == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, `{"algorithm":`...)
	b = appendString(b, t.Algorithm)
	b = append(b, `,"modelName":`...)
	b = appendString(b, t.ModelName)
	b = append(b, `,"thinkTime":`...)
	if b, err = appendFloatField(b, t.ThinkTime); err != nil {
		return b, err
	}
	b = append(b, `,"stationNames":`...)
	b = appendStrings(b, t.StationNames)
	if b, err = t.appendRowColumns(b); err != nil {
		return b, err
	}
	b = append(b, `,"finalUtil":`...)
	if b, err = appendFloats(b, t.FinalUtil); err != nil {
		return b, err
	}
	b = append(b, `,"finalQueueLen":`...)
	if b, err = appendFloats(b, t.FinalQueueLen); err != nil {
		return b, err
	}
	b = append(b, `,"maxX":`...)
	if b, err = appendFloatField(b, t.MaxX); err != nil {
		return b, err
	}
	b = append(b, `,"maxXAt":`...)
	b = strconv.AppendInt(b, int64(t.MaxXAt), 10)
	return append(b, '}'), nil
}

// floatColumnKeys are the float row columns' keys, in field order.
var floatColumnKeys = [3]string{`,"x":`, `,"r":`, `,"cycle":`}

// appendRowColumns appends the n/x/r/cycle fields. The first memoRows rows
// of each column are copied from the row text memo; only the rows past them
// are formatted.
func (t *Trajectory) appendRowColumns(b []byte) ([]byte, error) {
	var err error
	c := t.memoRows()
	if c == 0 {
		b = append(b, `,"n":`...)
		b = appendInts(b, t.N)
		for col, fs := range [3][]float64{t.X, t.R, t.Cycle} {
			b = append(b, floatColumnKeys[col]...)
			if b, err = appendFloats(b, fs); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	b = append(b, `,"n":[`...)
	b = t.text.appendRows(b, 0, c)
	for _, n := range t.N[c:] {
		b = append(strconv.AppendInt(b, int64(n), 10), ',')
	}
	b[len(b)-1] = ']' // the last row's comma
	for col, fs := range [3][]float64{t.X, t.R, t.Cycle} {
		b = append(append(b, floatColumnKeys[col]...), '[')
		b = t.text.appendRows(b, col+1, c)
		for _, f := range fs[c:] {
			if b, err = appendFloatField(b, f); err != nil {
				return b, err
			}
			b = append(b, ',')
		}
		b[len(b)-1] = ']'
	}
	return b, nil
}

// memoRows returns how many leading rows of the trajectory the row text
// memo holds: row j is on the memo when its population is j·stride+1, the
// memo's row j. It is 0 without a memo or when the columns differ in length.
func (t *Trajectory) memoRows() int {
	k, rt := len(t.N), t.text
	if rt == nil || len(t.X) != k || len(t.R) != k || len(t.Cycle) != k {
		return 0
	}
	c := min(k, rt.Rows())
	for j, n := range t.N[:c] {
		if n != j*rt.stride+1 {
			return j
		}
	}
	return c
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat formats f the way encoding/json does: shortest round-trip
// form, 'f' notation for magnitudes in [1e-6, 1e21) and 'e' outside, with a
// two-digit negative exponent shortened (1e-07 → 1e-7). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendFloatField is appendFloat with encoding/json's refusal of NaN and
// ±Inf.
func appendFloatField(b []byte, f float64) ([]byte, error) {
	if !finite(f) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	return appendFloat(b, f), nil
}

// appendFloats appends a float array (null for a nil slice).
func appendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloatField(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendInts appends an int array (null for a nil slice).
func appendInts(b []byte, ns []int) []byte {
	if ns == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, n := range ns {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// appendStrings appends a string array (null for a nil slice).
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendString appends s exactly as json.Encoder encodes it: HTML-escaped,
// invalid UTF-8 replaced, U+2028/U+2029 escaped. Printable ASCII other than
// the quote, backslash and HTML characters encodes as itself, so such a
// string is copied between quotes; any other goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
