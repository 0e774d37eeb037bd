package obs

import (
	"io"

	"repro/internal/promtext"
)

// WriteMetrics renders the recorder's occupancy series in the Prometheus
// text exposition format. The server appends it to /metrics output. A nil
// recorder writes nothing.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Stats()
	p := promtext.NewWriter(w)
	p.Gauge("solverd_trace_store_traces", "Traces currently retained by the flight recorder.").Int(s.Traces)
	p.Gauge("solverd_trace_store_spans", "Spans currently retained by the flight recorder.").Int(s.Spans)
	p.Gauge("solverd_trace_store_bytes", "Approximate bytes retained by the flight recorder.").Int(s.Bytes)
	p.Counter("solverd_trace_store_evictions_total", "Traces evicted to stay under the recorder's caps.").Uint(s.Evictions)
	p.Counter("solverd_trace_store_kept_total", "Completed requests retained by tail-sampling.").Uint(s.Kept)
	p.Counter("solverd_trace_store_dropped_total", "Completed requests dropped by tail-sampling.").Uint(s.Dropped)
	return p.Err()
}
