// Package promtest is a strict little parser and linter for the Prometheus
// text exposition format — enough to lint what solverd emits. It is a test
// helper package: every entry point takes a *testing.T, and only _test files
// import it (the server, cluster and obs expositions all lint against the
// same rules instead of each package growing its own parser).
package promtest

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// Sample is one parsed exposition line: name{labels} value, optionally
// followed by an OpenMetrics exemplar (`# {trace_id="…"} value timestamp`)
// on _bucket lines.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
	Line   string
	// Exemplar holds the raw exemplar portion after " # " ("" when absent).
	Exemplar string
}

// Label returns the value of the named label, or "" when absent.
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

type Label struct{ Name, Value string }

// Family groups the HELP/TYPE metadata and samples of one metric family.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// ParseExposition parses a text exposition into its families. Histogram
// _bucket/_sum/_count series are folded into their base family. Any line the
// strict grammar rejects fails the test, as does a family whose lines are not
// one contiguous group or whose HELP or TYPE line repeats.
func ParseExposition(t *testing.T, body string) map[string]*Family {
	t.Helper()
	ordered, err := parse(body)
	if err != nil {
		t.Fatal(err)
	}
	families := make(map[string]*Family, len(ordered))
	for _, f := range ordered {
		families[f.Name] = f
	}
	return families
}

// parse returns the exposition's families in emitted order.
func parse(body string) ([]*Family, error) {
	var ordered []*Family
	seen := make(map[string]*Family)
	// family returns name's family: the current group, or a new one when
	// name has not appeared before. A name whose group already ended fails.
	family := func(name string) (*Family, error) {
		if n := len(ordered); n > 0 && ordered[n-1].Name == name {
			return ordered[n-1], nil
		}
		if _, ok := seen[name]; ok {
			return nil, fmt.Errorf("family %q is not one contiguous group", name)
		}
		f := &Family{Name: name}
		seen[name] = f
		ordered = append(ordered, f)
		return f, nil
	}
	// A histogram's _bucket/_sum/_count series belong to the base family.
	base := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok {
				if f, ok := seen[trimmed]; ok && f.Type == "histogram" {
					return trimmed
				}
			}
		}
		return name
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// "#", keyword, metric name, text; other comments are skipped.
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("%s line without text: %q", fields[1], line)
			}
			f, err := family(fields[2])
			if err != nil {
				return nil, err
			}
			field := &f.Help
			if fields[1] == "TYPE" {
				field = &f.Type
			}
			if *field != "" {
				return nil, fmt.Errorf("repeated %s line: %q", fields[1], line)
			}
			*field = fields[3]
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("unparseable sample %q: %v", line, err)
		}
		f, err := family(base(sample.Name))
		if err != nil {
			return nil, err
		}
		f.Samples = append(f.Samples, sample)
	}
	return ordered, nil
}

// Schema renders each family of the exposition in emitted order as one line:
// name, TYPE, the label names its samples use (first-seen order) and HELP
// text — what dashboards and alert rules depend on, without label or sample
// values.
func Schema(t *testing.T, body string) string {
	t.Helper()
	ordered, err := parse(body)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range ordered {
		var names []string
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if !slices.Contains(names, l.Name) {
					names = append(names, l.Name)
				}
			}
		}
		fmt.Fprintf(&b, "%s %s {%s} %s\n", f.Name, f.Type, strings.Join(names, ","), f.Help)
	}
	return b.String()
}

// RequireSchema fails unless the exposition's Schema equals the golden file,
// naming the first line that differs.
func RequireSchema(t *testing.T, body, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(Schema(t, body), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("/metrics schema differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("/metrics schema has %d lines, %s has %d", len(g), golden, len(w))
	}
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Line: line}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value separator")
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = cutLabels(rest); err != nil {
			return s, err
		}
	}
	// An exemplar rides after the value as ` # {labels} value [timestamp]`
	// (OpenMetrics); split it off and validate its shape separately.
	if value, exemplar, found := strings.Cut(rest, " # "); found {
		if err := checkExemplar(exemplar); err != nil {
			return s, err
		}
		s.Exemplar = exemplar
		rest = value
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %v", err)
	}
	s.Value = v
	return s, nil
}

// cutLabels splits a leading {name="value",...} set with legal label names
// off s.
func cutLabels(s string) (labels []Label, rest string, err error) {
	if len(s) == 0 || s[0] != '{' {
		return nil, "", fmt.Errorf("label set expected: %q", s)
	}
	s = s[1:]
	for {
		if rest, ok := strings.CutPrefix(s, "}"); ok {
			return labels, rest, nil
		}
		name, quoted, found := strings.Cut(s, "=")
		if !found || !labelNameRe.MatchString(name) {
			return nil, "", fmt.Errorf("bad label at %q", s)
		}
		value, tail, err := cutQuoted(quoted)
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, Label{Name: name, Value: value})
		s = strings.TrimPrefix(tail, ",")
	}
}

// checkExemplar validates the portion after " # ": a {label="value",...} set
// followed by a float value and an optional float timestamp.
func checkExemplar(ex string) error {
	_, rest, err := cutLabels(ex)
	if err != nil {
		return fmt.Errorf("exemplar: %v", err)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("exemplar needs a value and optional timestamp: %q", ex)
	}
	for _, f := range fields {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			return fmt.Errorf("bad exemplar number %q: %v", f, err)
		}
	}
	return nil
}

// cutQuoted splits a leading quoted label value off s and unescapes it. The
// format defines only the \\, \" and \n escapes; every other rune is raw
// UTF-8.
func cutQuoted(s string) (value, rest string, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("label value not quoted: %q", s)
	}
	var v strings.Builder
	for j := 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			if !utf8.ValidString(v.String()) {
				return "", "", fmt.Errorf("label value is not UTF-8: %q", s[:j+1])
			}
			return v.String(), s[j+1:], nil
		case c == '\\' && j+1 < len(s):
			j++
			switch s[j] {
			case '\\', '"':
				v.WriteByte(s[j])
			case 'n':
				v.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("escape \\%c is not in the exposition format: %q", s[j], s)
			}
		default:
			v.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value: %q", s)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintFamilies runs every family through the exposition rules as a subtest:
// HELP and TYPE present, legal metric/label names, non-negative counters,
// and — for histograms — cumulative bucket monotonicity with a terminal
// +Inf bucket matching _count.
func LintFamilies(t *testing.T, families map[string]*Family) {
	t.Helper()
	for name, f := range families {
		f := f
		t.Run(name, func(t *testing.T) {
			LintFamily(t, f)
		})
	}
}

// LintFamily checks one family against the exposition rules.
func LintFamily(t *testing.T, f *Family) {
	t.Helper()
	if !metricNameRe.MatchString(f.Name) {
		t.Errorf("illegal metric name %q", f.Name)
	}
	if f.Help == "" {
		t.Errorf("family %q has no HELP", f.Name)
	}
	switch f.Type {
	case "counter", "gauge", "histogram":
	default:
		t.Errorf("family %q has TYPE %q", f.Name, f.Type)
	}
	for _, s := range f.Samples {
		if f.Type == "counter" && s.Value < 0 {
			t.Errorf("negative counter: %q", s.Line)
		}
	}
	if f.Type == "histogram" {
		LintHistogram(t, f)
	}
}

// RequireFamilies fails for each named family missing from the exposition.
func RequireFamilies(t *testing.T, families map[string]*Family, names ...string) {
	t.Helper()
	for _, want := range names {
		if _, ok := families[want]; !ok {
			t.Errorf("family %q missing from the exposition", want)
		}
	}
}

// SingleValue returns the value of a family's sole sample, failing when the
// family is absent or has more than one series.
func SingleValue(t *testing.T, families map[string]*Family, name string) float64 {
	t.Helper()
	f, ok := families[name]
	if !ok || len(f.Samples) != 1 {
		t.Fatalf("family %q: %+v", name, f)
	}
	return f.Samples[0].Value
}

// HistogramCount returns the _count of the histogram series matching every
// given label (pass none for an unlabelled histogram); -1 when no _count
// sample matches.
func HistogramCount(t *testing.T, families map[string]*Family, name string, labels ...Label) float64 {
	t.Helper()
	f, ok := families[name]
	if !ok {
		t.Fatalf("histogram family %q missing", name)
	}
	for _, s := range f.Samples {
		if !strings.HasSuffix(s.Name, "_count") {
			continue
		}
		match := true
		for _, want := range labels {
			if s.Label(want.Name) != want.Value {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	return -1
}

// LintHistogram checks bucket structure: per label-set cumulative counts are
// non-decreasing, the terminal bucket is le="+Inf", and it equals _count.
func LintHistogram(t *testing.T, f *Family) {
	t.Helper()
	type series struct {
		buckets []Sample
		sum     *Sample
		count   *Sample
	}
	bySet := make(map[string]*series)
	keyOf := func(s Sample) string {
		var parts []string
		for _, l := range s.Labels {
			if l.Name == "le" {
				continue
			}
			parts = append(parts, l.Name+"="+l.Value)
		}
		return strings.Join(parts, ",")
	}
	get := func(k string) *series {
		sr, ok := bySet[k]
		if !ok {
			sr = &series{}
			bySet[k] = sr
		}
		return sr
	}
	for i := range f.Samples {
		s := f.Samples[i]
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			get(keyOf(s)).buckets = append(get(keyOf(s)).buckets, s)
		case strings.HasSuffix(s.Name, "_sum"):
			get(keyOf(s)).sum = &f.Samples[i]
		case strings.HasSuffix(s.Name, "_count"):
			get(keyOf(s)).count = &f.Samples[i]
		default:
			t.Errorf("histogram %q has stray sample %q", f.Name, s.Line)
		}
	}
	for key, sr := range bySet {
		if len(sr.buckets) == 0 || sr.sum == nil || sr.count == nil {
			t.Errorf("histogram %q{%s}: incomplete series (buckets=%d sum=%v count=%v)",
				f.Name, key, len(sr.buckets), sr.sum != nil, sr.count != nil)
			continue
		}
		prevBound, prevCount := -1.0, -1.0
		for _, b := range sr.buckets {
			le := b.Label("le")
			if le == "" {
				t.Errorf("bucket without le: %q", b.Line)
				continue
			}
			bound := 0.0
			if le == "+Inf" {
				bound = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("bad le %q in %q", le, b.Line)
					continue
				}
				bound = v
			}
			if bound <= prevBound {
				t.Errorf("histogram %q{%s}: le=%s out of order", f.Name, key, le)
			}
			if b.Value < prevCount {
				t.Errorf("histogram %q{%s}: bucket counts not cumulative at le=%s (%g < %g)",
					f.Name, key, le, b.Value, prevCount)
			}
			prevBound, prevCount = bound, b.Value
		}
		last := sr.buckets[len(sr.buckets)-1]
		if lastLe := last.Label("le"); lastLe != "+Inf" {
			t.Errorf("histogram %q{%s}: terminal bucket le=%q, want +Inf", f.Name, key, lastLe)
		}
		if last.Value != sr.count.Value {
			t.Errorf("histogram %q{%s}: +Inf bucket %g != count %g",
				f.Name, key, last.Value, sr.count.Value)
		}
	}
}
