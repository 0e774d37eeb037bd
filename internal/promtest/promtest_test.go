package promtest

import (
	"strings"
	"testing"
)

func TestParseAccepts(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		label      string // value of the first sample's first label, if any
	}{
		{name: "unlabelled", body: "# HELP a_total A.\n# TYPE a_total counter\na_total 3\n"},
		{name: "comments and blank lines", body: "# a comment\n\n# HELP a A.\n# TYPE a gauge\n\na 1\n"},
		{name: "family without samples", body: "# HELP a A.\n# TYPE a gauge\n# HELP b B.\n# TYPE b gauge\nb 2\n"},
		{name: "spec escapes", body: "# HELP a A.\n# TYPE a gauge\n" + `a{s="x\\y\"z\nw"} 1` + "\n", label: "x\\y\"z\nw"},
		{name: "raw UTF-8 and control runes", body: "# HELP a A.\n# TYPE a gauge\na{s=\"web\tcpu\x01é\u2028\"} 1\n", label: "web\tcpu\x01é\u2028"},
		{name: "brace inside a value", body: "# HELP a A.\n# TYPE a gauge\n" + `a{s="}{",t="u"} 1` + "\n", label: "}{"},
		{name: "histogram with exemplar", body: "# HELP h H.\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 1 # {trace_id="abc"} 0.5 1700000000.123` + "\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 3.5\nh_count 2\n", label: "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fams, err := parse(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			last := fams[len(fams)-1]
			if tc.label != "" && last.Samples[0].Labels[0].Value != tc.label {
				t.Errorf("label = %q, want %q", last.Samples[0].Labels[0].Value, tc.label)
			}
		})
	}
}

func TestParseRejects(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"Go escape \\t", "# HELP a A.\n# TYPE a gauge\n" + `a{s="web\tcpu"} 1`, "escape"},
		{"Go escape \\x01", "# HELP a A.\n# TYPE a gauge\n" + `a{s="\x01"} 1`, "escape"},
		{"Go escape \\u2028", "# HELP a A.\n# TYPE a gauge\n" + `a{s="\u2028"} 1`, "escape"},
		{"bad escape in exemplar", "# HELP h H.\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1 # {trace_id="\t"} 1` + "\nh_sum 1\nh_count 1", "escape"},
		{"invalid UTF-8", "# HELP a A.\n# TYPE a gauge\na{s=\"\xff\"} 1", "UTF-8"},
		{"unterminated value", "# HELP a A.\n# TYPE a gauge\n" + `a{s="x} 1`, "unterminated"},
		{"interleaved samples", "# HELP a A.\n# TYPE a gauge\n# HELP b B.\n# TYPE b gauge\n" +
			`a{p="1"} 1` + "\n" + `b{p="1"} 1` + "\n" + `a{p="2"} 1`, "contiguous"},
		{"headers first, samples after", "# HELP a A.\n# TYPE a gauge\n# HELP b B.\n# TYPE b gauge\na 1\nb 1", "contiguous"},
		{"header after the group ended", "# HELP a A.\n# TYPE a gauge\na 1\n# HELP b B.\n# TYPE b gauge\n# HELP a A.", "contiguous"},
		{"repeated HELP", "# HELP a A.\n# HELP a A.\n# TYPE a gauge\na 1", "repeated HELP"},
		{"repeated TYPE", "# HELP a A.\n# TYPE a gauge\n# TYPE a gauge\na 1", "repeated TYPE"},
		{"HELP without text", "# HELP a\n# TYPE a gauge\na 1", "without text"},
		{"bad value", "# HELP a A.\n# TYPE a gauge\na one", "bad value"},
		{"illegal label name", "# HELP a A.\n# TYPE a gauge\n" + `a{1x="v"} 1`, "bad label"},
		{"unterminated label set", "# HELP a A.\n# TYPE a gauge\n" + `a{s="v" 1`, "bad label"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(tc.body)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestSchema(t *testing.T) {
	body := "# HELP h Latency.\n# TYPE h histogram\n" +
		`h_bucket{handler="a",le="+Inf"} 1` + "\n" + `h_sum{handler="a"} 1` + "\n" + `h_count{handler="a"} 1` + "\n" +
		"# HELP g Gauge.\n# TYPE g gauge\ng 2\n"
	want := "h histogram {handler,le} Latency.\ng gauge {} Gauge.\n"
	if got := Schema(t, body); got != want {
		t.Errorf("Schema = %q, want %q", got, want)
	}
}
