package promtext

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestWriterFamilies(t *testing.T) {
	var b strings.Builder
	p := NewWriter(&b)
	p.Counter("x_total", "Things counted.").Uint(7)
	p.Gauge("x_ratio", "A ratio.").Float(0.25)
	p.Gauge("x_peers", "Per-peer state.")
	p.Int(1, "peer", "a:1")
	p.Int(-2, "peer", "b:2", "zone", "z")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_total Things counted.
# TYPE x_total counter
x_total 7
# HELP x_ratio A ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_peers Per-peer state.
# TYPE x_peers gauge
x_peers{peer="a:1"} 1
x_peers{peer="b:2",zone="z"} -2
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriterEscaping(t *testing.T) {
	var b strings.Builder
	p := NewWriter(&b)
	p.Gauge("x", "Help with a \\ backslash\nand a newline, \"quotes\" kept.")
	p.Int(1, "station", "web\tcpu\x01é\u2028\"q\"\\n\nend")
	want := `# HELP x Help with a \\ backslash\nand a newline, "quotes" kept.
# TYPE x gauge
x{station="web` + "\tcpu\x01é\u2028" + `\"q\"\\n\nend"} 1
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%q\nwant:\n%q", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram(0.01, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	var b strings.Builder
	p := NewWriter(&b)
	p.Histogram("x_seconds", "Latency.")
	p.Buckets(h)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	// Buckets are cumulative; le=0.01 catches 0.005 and the boundary value
	// 0.01, and 2 falls only into the implicit +Inf bucket.
	want := `# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.01"} 2
x_seconds_bucket{le="0.1"} 3
x_seconds_bucket{le="1"} 4
x_seconds_bucket{le="+Inf"} 5
x_seconds_sum 2.565
x_seconds_count 5
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriterBuckets(t *testing.T) {
	h, err := NewHistogram(0.01, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	h.ObserveWithExemplar(0.07, "abc", 1700000000.1234)
	var b strings.Builder
	p := NewWriter(&b)
	p.Histogram("x_seconds", "Latency.")
	p.Buckets(h, "handler", "solve")
	p.Buckets(h)
	// le=0.01 catches 0.005 and the boundary value 0.01; only the bucket
	// holding the traced observation carries an exemplar.
	want := `# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{handler="solve",le="0.01"} 2
x_seconds_bucket{handler="solve",le="0.1"} 4 # {trace_id="abc"} 0.07 1700000000.123
x_seconds_bucket{handler="solve",le="1"} 5
x_seconds_bucket{handler="solve",le="+Inf"} 6
x_seconds_sum{handler="solve"} 2.635
x_seconds_count{handler="solve"} 6
x_seconds_bucket{le="0.01"} 2
x_seconds_bucket{le="0.1"} 4 # {trace_id="abc"} 0.07 1700000000.123
x_seconds_bucket{le="1"} 5
x_seconds_bucket{le="+Inf"} 6
x_seconds_sum 2.635
x_seconds_count 6
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	if _, err := NewHistogram(1, 1); err == nil {
		t.Error("duplicate bounds accepted")
	}
	if _, err := NewHistogram(2, 1); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := NewHistogram(1, math.Inf(1)); err == nil {
		t.Error("explicit +Inf accepted")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(b []byte) (int, error) {
	if f.n == 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(b), nil
}

func TestWriterKeepsFirstError(t *testing.T) {
	fw := &failWriter{n: 1}
	p := NewWriter(fw)
	p.Counter("a_total", "A.").Uint(1) // the header fits, the sample fails
	p.Counter("b_total", "B.").Uint(2)
	if err := p.Err(); err == nil || err.Error() != "disk full" {
		t.Errorf("Err() = %v, want the first write error", err)
	}
}
