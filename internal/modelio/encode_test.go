package modelio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// specialFloats sit on encoding/json's formatting edges: both sides of the
// 'e'-notation cutoffs, signed zero, subnormals and the extremes.
var specialFloats = []float64{
	1e-7, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	math.Copysign(0, -1), 0, 5e-324, 1e-310, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, -123456789.125, 1e-9, 123e-10,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzBytes hands out the fuzzer's bytes as values, repeating zeros once the
// input runs out.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

// float mixes the special edge values (three times in four) with raw bit
// patterns, which reach arbitrary exponents (and, rarely, NaN payloads).
func (f *fuzzBytes) float() float64 {
	if sel := f.byte(); sel%4 != 0 {
		v := specialFloats[int(f.byte())%len(specialFloats)]
		if sel%3 == 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			v *= 1 + float64(f.byte())/256
		}
		return v
	}
	var u [8]byte
	for i := range u {
		u[i] = f.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(u[:]))
}

func (f *fuzzBytes) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f.float()
	}
	return out
}

// fuzzResponse builds a SolveResponse the way the engine does — a Result cut
// into a trajectory, optionally decimated, optionally with a recovered final
// row — and attaches a row text memo built from the same rows extended,
// truncated or left alone.
func fuzzResponse(data []byte, modelName, station string, shape uint16) *SolveResponse {
	f := &fuzzBytes{b: data}
	k := int(f.byte() % 40)
	total := k + int(f.byte()%8) // rows the memo's source solved past k
	n := make([]int, total)
	for i := range n {
		n[i] = i + 1
	}
	x, r, cycle := f.floats(total), f.floats(total), f.floats(total)
	stations := []string{station, "app/cpu"}
	if shape&1 != 0 {
		stations = nil
	}
	z := f.float()
	res := &core.Result{Algorithm: AlgoMultiServer, ModelName: modelName, ThinkTime: z, StationNames: stations}
	if k > 0 {
		util, queueLen, zeros := make([][]float64, k), make([][]float64, k), make([][]float64, k)
		for i := range util {
			util[i], queueLen[i], zeros[i] = f.floats(2), f.floats(2), make([]float64, 2)
		}
		var err error
		res, err = core.RestoreResult(AlgoMultiServer, modelName, z, []string{station, "app/cpu"},
			x[:k], r[:k], cycle[:k], queueLen, util, zeros, zeros)
		if err != nil {
			panic(err)
		}
		res.StationNames = stations
	}
	every := int(shape>>1) % 5 // 0..4: dense and decimated replies
	t := NewTrajectory(res, every)
	if shape&(1<<4) != 0 {
		// A recovered row is bit-identical to the row a dense solve stores,
		// so where the source solved it, it carries the source's values.
		row := core.RecoveredRow{
			N: k + 1 + int(f.byte()%3), X: f.float(), R: f.float(), Cycle: f.float(),
			Util: f.floats(2), QueueLen: f.floats(2),
		}
		if i := row.N - 1; i < total {
			row.X, row.R, row.Cycle = x[i], r[i], cycle[i]
		}
		t.AppendRecovered(row)
	}
	if shape&(1<<5) != 0 && t.N == nil {
		t.N, t.X, t.R, t.Cycle = []int{}, []float64{}, []float64{}, []float64{}
	}
	// The memo covers fewer rows, exactly k, or the source's extra rows too;
	// building it in two steps exercises Extend's copy of the old text.
	memoRows := total
	switch (shape >> 6) % 3 {
	case 0:
		memoRows = k / 2
	case 1:
		memoRows = k
	}
	half := memoRows / 2
	rt := (*RowText)(nil).Extend(n[:half], x[:half], r[:half], cycle[:half])
	rt = rt.Extend(n[:memoRows], x[:memoRows], r[:memoRows], cycle[:memoRows])
	if shape&(1<<8) == 0 {
		t.SetRowText(rt)
	}
	resp := &SolveResponse{Cached: shape&(1<<9) != 0, ElapsedMS: f.float(), Trajectory: t}
	if shape&(1<<10) != 0 {
		resp.Trajectory = nil
	}
	return resp
}

// FuzzAppendSolveResponse: AppendJSON must produce json.Encoder's exact
// bytes — or fail exactly when it does — for every reply shape, whether the
// row columns come from the memo or are formatted on the spot.
func FuzzAppendSolveResponse(f *testing.F) {
	f.Add([]byte{10, 3, 1, 0, 1, 4, 1, 8, 1, 12}, "vins", "db/disk", uint16(1<<7))
	f.Add([]byte{39, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8}, "a<b>&c", "line"+string(rune(0x2028))+"para"+string(rune(0x2029)), uint16(2|1<<6))
	f.Add([]byte{5, 0, 3, 20, 3, 21, 3, 22}, "\x00\x1f\b\f\n\r\t\"\\", "\xff\xfe bad utf8", uint16(1<<4|1<<7))
	f.Add([]byte{0, 0}, "", "", uint16(1|1<<5))
	f.Add([]byte{8, 2, 1, 10}, "nil trajectory", "s", uint16(1<<10))
	f.Add([]byte{16, 4, 1, 9, 1, 5, 1, 6, 1, 7}, "decimated", "s", uint16(3<<1|1<<4|2<<6))
	f.Fuzz(func(t *testing.T, data []byte, modelName, station string, shape uint16) {
		resp := fuzzResponse(data, modelName, station, shape)
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		prefix := []byte("prefix:")
		got, err := resp.AppendJSON(append([]byte(nil), prefix...))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("AppendJSON error %q, encoding/json error %q", err, wantErr)
			}
			return
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendJSON clobbered its destination: %q", got)
		}
		if got := got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want.Bytes())
		}
	})
}

// TestRowTextExtendLeavesOldMemo: extending copies — the memo readers already
// hold keeps its rows and text — and rows past a non-finite value or a gap in
// the populations are not memoized.
func TestRowTextExtendLeavesOldMemo(t *testing.T) {
	n := []int{1, 2, 3, 4, 5}
	x := []float64{0.5, 1, 1.5, math.NaN(), 2.5}
	old := (*RowText)(nil).Extend(n[:2], x[:2], x[:2], x[:2])
	oldText := string(old.cols[1])
	next := old.Extend(n, x, x, x)
	if old.Rows() != 2 || string(old.cols[1]) != oldText {
		t.Fatalf("old memo changed: %d rows, %q", old.Rows(), old.cols[1])
	}
	if next.Rows() != 3 {
		t.Fatalf("memo past a NaN row: %d rows, want 3", next.Rows())
	}
	if got := string(next.appendColumn(nil, 1, 3)); got != "[0.5,1,1.5]" {
		t.Fatalf("column text %s", got)
	}
	if same := next.Extend(n[:3], x[:3], x[:3], x[:3]); same != next {
		t.Error("an Extend that adds no row should return the memo itself")
	}
	if gap := (*RowText)(nil).Extend([]int{2, 3}, x[:2], x[:2], x[:2]); gap.Rows() != 0 {
		t.Errorf("memo of a trajectory not starting at population 1: %d rows", gap.Rows())
	}
}

// TestRowTextFootprint bounds a memo's memory per row (text plus offsets,
// capacity included) on a 400-population multiserver trajectory, the size
// the README quotes next to the entry's own row store.
func TestRowTextFootprint(t *testing.T) {
	sol, err := core.NewMultiServerSolver(apiTestModel(), core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Run(400); err != nil {
		t.Fatal(err)
	}
	res := sol.Result()
	half := (*RowText)(nil).Extend(res.N[:200], res.X[:200], res.R[:200], res.Cycle[:200])
	for name, rt := range map[string]*RowText{
		"built at once":  (*RowText)(nil).Extend(res.N, res.X, res.R, res.Cycle),
		"built in steps": half.Extend(res.N, res.X, res.R, res.Cycle),
	} {
		total := 0
		for c := range rt.cols {
			total += cap(rt.cols[c]) + 4*cap(rt.ends[c])
		}
		perRow := float64(total) / float64(rt.Rows())
		t.Logf("%s: %.1f bytes/row", name, perRow)
		if rt.Rows() != 400 || perRow > 72 {
			t.Errorf("%s: %d rows at %.1f bytes/row, want 400 rows at <= 72", name, rt.Rows(), perRow)
		}
	}
}

// TestNewTrajectoryAliasesDenseRows:a dense trajectory shares the Result's
// rows without copying them, and appending a recovered row never writes into
// the Result's spare row capacity.
func TestNewTrajectoryAliasesDenseRows(t *testing.T) {
	sol, err := core.NewExactMVASolver(apiTestModel())
	if err != nil {
		t.Fatal(err)
	}
	sol.Reserve(40)
	if err := sol.Run(20); err != nil {
		t.Fatal(err)
	}
	res := sol.Result()
	tr := NewTrajectory(res, 0)
	if &tr.X[0] != &res.X[0] {
		t.Fatal("dense trajectory copied its rows")
	}
	spare := res.X[:cap(res.X)]
	before := spare[20]
	tr.AppendRecovered(core.RecoveredRow{N: 21, X: -1, R: -1, Cycle: -1})
	if spare[20] != before || len(res.X) != 20 {
		t.Fatalf("AppendRecovered wrote into the Result: spare row %g", spare[20])
	}
}

// checkAppendString asserts appendString appends json.Marshal's bytes for s
// after whatever b already holds.
func checkAppendString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("x,")
	if got := appendString(prefix, s); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("appendString(%q) = %s, json.Marshal %s", s, got[len(prefix):], want)
	}
}

// TestAppendString covers both of appendString's paths: plain printable
// ASCII copied between quotes, and every byte encoding/json escapes or
// replaces handed to json.Marshal.
func TestAppendString(t *testing.T) {
	for _, s := range []string{
		"", "db/cpu", "VINS@N=1", " !#$%'()*+,-./0123456789:;=?@[]^_`{|}~", "mvasd-1s",
		`a"b`, `a\b`, "<script>", "a>b", "a&b", "\x00", "\x1f", "tab\there", "\n", "\x7f",
		"é", " ", " ", "a b", "\xff", "a\xc3", "\xed\xa0\x80", "�", "😀",
	} {
		checkAppendString(t, s)
	}
	for c := 0; c < 256; c++ {
		checkAppendString(t, "a"+string(rune(c))+"b")
		checkAppendString(t, string([]byte{'a', byte(c), 'b'}))
	}
}

// FuzzAppendString: for every string, appendString appends exactly
// json.Marshal's encoding.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"db/cpu", "<&>", "  ", "\xff\xfe", "\x00\x1f\x7f", `"\`} {
		f.Add(s)
	}
	f.Fuzz(checkAppendString)
}
