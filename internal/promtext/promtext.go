// Package promtext writes the Prometheus text exposition format (version
// 0.0.4) and is the only code in the repository that knows it: HELP and TYPE
// lines, label sets and their escaping, integer and float samples, and
// histogram bucket lines with OpenMetrics exemplars.
//
// A Writer emits one family at a time. Counter, Gauge and Histogram write a
// family's HELP and TYPE lines; the sample methods that follow take no metric
// name and always belong to the family opened last, so each family comes out
// as one contiguous group. Label values are escaped as the format specifies
// (backslash, double quote and newline; every other rune is written raw).
package promtext

import (
	"io"
	"strconv"
)

// Writer renders families onto an io.Writer. The first write error is kept
// and returned by Err; later calls are no-ops. It is not safe for concurrent
// use.
type Writer struct {
	w    io.Writer
	name string // family the next sample belongs to
	buf  []byte
	err  error
}

// NewWriter returns a Writer rendering onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error met while writing.
func (p *Writer) Err() error { return p.err }

// Counter opens a counter family.
func (p *Writer) Counter(name, help string) *Writer { return p.family(name, "counter", help) }

// Gauge opens a gauge family.
func (p *Writer) Gauge(name, help string) *Writer { return p.family(name, "gauge", help) }

// Histogram opens a histogram family; its samples are written by Buckets.
func (p *Writer) Histogram(name, help string) *Writer { return p.family(name, "histogram", help) }

func (p *Writer) family(name, typ, help string) *Writer {
	p.name = name
	b := append(p.buf[:0], "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendEscaped(b, help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	p.end(b)
	return p
}

// Int writes one sample of the open family with an integer value. labels are
// name/value pairs; an odd count is a bug and panics.
func (p *Writer) Int(v int, labels ...string) {
	p.end(strconv.AppendInt(p.start("", labels, ""), int64(v), 10))
}

// Uint is Int for unsigned counters.
func (p *Writer) Uint(v uint64, labels ...string) {
	p.end(strconv.AppendUint(p.start("", labels, ""), v, 10))
}

// Float writes one sample of the open family in the shortest %g form.
func (p *Writer) Float(v float64, labels ...string) {
	p.end(strconv.AppendFloat(p.start("", labels, ""), v, 'g', -1, 64))
}

// Buckets writes h as the open histogram family's _bucket (cumulative, with
// each bucket's exemplar when one was recorded), _sum and _count lines.
func (p *Writer) Buckets(h *Histogram, labels ...string) {
	run := uint64(0)
	for i, c := range h.counts {
		run += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		b := strconv.AppendUint(p.start("_bucket", labels, le), run, 10)
		if i < len(h.exemplars) && h.exemplars[i].traceID != "" {
			e := h.exemplars[i]
			b = append(b, ` # {trace_id="`...)
			b = appendEscaped(b, e.traceID, true)
			b = append(b, `"} `...)
			b = strconv.AppendFloat(b, e.value, 'g', -1, 64)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, e.unixSeconds, 'f', 3, 64)
		}
		p.end(b)
	}
	p.end(strconv.AppendFloat(p.start("_sum", labels, ""), h.sum, 'g', -1, 64))
	p.end(strconv.AppendUint(p.start("_count", labels, ""), h.count, 10))
}

// start begins a sample line of the open family: its name plus suffix and the
// label set, with an le label last when le is non-empty.
func (p *Writer) start(suffix string, labels []string, le string) []byte {
	b := append(p.buf[:0], p.name...)
	b = append(b, suffix...)
	if len(labels) > 0 || le != "" {
		b = append(b, '{')
		for i := 0; i < len(labels); i += 2 {
			b = appendLabel(b, labels[i], labels[i+1])
			b = append(b, ',')
		}
		if le != "" {
			b = appendLabel(b, "le", le)
		} else {
			b = b[:len(b)-1]
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

func appendLabel(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, `="`...)
	b = appendEscaped(b, value, true)
	return append(b, '"')
}

// appendEscaped appends s with backslash and newline escaped, and double
// quotes too in a label value — the only escapes the format defines.
func appendEscaped(b []byte, s string, quote bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// end terminates the line in b and writes it.
func (p *Writer) end(b []byte) {
	b = append(b, '\n')
	p.buf = b
	if p.err != nil {
		return
	}
	_, p.err = p.w.Write(b)
}
