package modelio

// This file is the append-based encoder for the /v1/solve reply. It writes
// exactly the bytes json.NewEncoder(w).Encode would (trailing newline
// included), but a dense prefix hit can copy its row columns from the cache
// entry's RowText memo instead of re-formatting every float on every hit.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// RowText memoizes the JSON text of a dense trajectory's N/X/R/Cycle columns:
// each column holds its rows' values, every one followed by its comma, and
// ends records where each row's text stops. A memo only ever grows: Extend
// returns a new memo (old text copied, new rows formatted) and never writes
// to one that readers may hold.
type RowText struct {
	cols [4][]byte   // n, x, r, cycle
	ends [4][]uint32 // ends[c][i]: offset in cols[c] just past row i's comma
}

// Rows returns how many rows the memo covers (0 for a nil memo).
func (rt *RowText) Rows() int {
	if rt == nil {
		return 0
	}
	return len(rt.ends[0])
}

// Extend returns a memo covering the columns' rows, copying rt's text and
// formatting only the rows past it. The columns must be the rows rt was
// built from, extended. Rows are memoized while they are dense populations
// (row i holds population i+1) with finite values; the first row that is not
// stops the memo, so a memo never holds text that encoding/json would refuse.
// When no row is added, rt itself is returned.
func (rt *RowText) Extend(n []int, x, r, cycle []float64) *RowText {
	from := rt.Rows()
	rows := min(len(n), len(x), len(r), len(cycle))
	if rows <= from {
		return rt
	}
	next := &RowText{}
	for c := range next.cols {
		next.ends[c] = make([]uint32, 0, rows)
		if rt != nil {
			next.cols[c] = append(next.cols[c], rt.cols[c]...)
			next.ends[c] = append(next.ends[c], rt.ends[c]...)
		}
	}
	for i := from; i < rows; i++ {
		if n[i] != i+1 || !finite(x[i]) || !finite(r[i]) || !finite(cycle[i]) {
			break
		}
		next.cols[0] = append(strconv.AppendInt(next.cols[0], int64(n[i]), 10), ',')
		next.cols[1] = append(appendFloat(next.cols[1], x[i]), ',')
		next.cols[2] = append(appendFloat(next.cols[2], r[i]), ',')
		next.cols[3] = append(appendFloat(next.cols[3], cycle[i]), ',')
		for c := range next.ends {
			next.ends[c] = append(next.ends[c], uint32(len(next.cols[c])))
		}
	}
	if next.Rows() == from {
		return rt
	}
	for c, col := range next.cols {
		if cap(col)-len(col) > len(col)/8 { // drop append's growth slack
			next.cols[c] = append(make([]byte, 0, len(col)), col...)
		}
	}
	return next
}

// appendColumn appends column c's first k rows as a JSON array (k ≥ 1 and
// k ≤ Rows()): the memoized text minus the last row's comma.
func (rt *RowText) appendColumn(b []byte, c, k int) []byte {
	b = append(b, '[')
	b = append(b, rt.cols[c][:rt.ends[c][k-1]-1]...)
	return append(b, ']')
}

// SetRowText attaches a row-text memo to the trajectory. The memo must have
// been built from the rows this trajectory was cut from; AppendJSON copies
// the row columns from it when it covers the trajectory and the trajectory is
// exactly populations 1..k, and formats them itself otherwise. encoding/json
// ignores the memo, so both encoders produce the same bytes.
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
	if k := len(t.N); t.text.Rows() >= k && t.denseFrom1() {
		b = append(b, `,"n":`...)
		b = t.text.appendColumn(b, 0, k)
		b = append(b, `,"x":`...)
		b = t.text.appendColumn(b, 1, k)
		b = append(b, `,"r":`...)
		b = t.text.appendColumn(b, 2, k)
		b = append(b, `,"cycle":`...)
		b = t.text.appendColumn(b, 3, k)
	} else {
		b = append(b, `,"n":`...)
		b = appendInts(b, t.N)
		b = append(b, `,"x":`...)
		if b, err = appendFloats(b, t.X); err != nil {
			return b, err
		}
		b = append(b, `,"r":`...)
		if b, err = appendFloats(b, t.R); err != nil {
			return b, err
		}
		b = append(b, `,"cycle":`...)
		if b, err = appendFloats(b, t.Cycle); err != nil {
			return b, err
		}
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

// denseFrom1 reports whether the trajectory is exactly populations 1..k with
// k ≥ 1 rows in every column — the only shape a RowText memo can serve.
func (t *Trajectory) denseFrom1() bool {
	k := len(t.N)
	if k == 0 || len(t.X) != k || len(t.R) != k || len(t.Cycle) != k {
		return false
	}
	for i, n := range t.N {
		if n != i+1 {
			return false
		}
	}
	return true
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
