package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// statusRecorder captures the response code for metrics and injects the
// trace's Server-Timing header at WriteHeader time, when every span that can
// appear in it has already ended.
type statusRecorder struct {
	http.ResponseWriter
	trace *telemetry.Trace
	code  int

	// held is a complete reply handed over by writeReply (heldBuf its pooled
	// buffer, nil for a relayed body). instrument sends it only after the
	// request is accounted for: a client that has read the whole reply (its
	// Content-Length says when) then already finds the request in the access
	// log, the metrics and the flight recorder.
	held    []byte
	heldBuf *[]byte
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if err := r.sendHeld(); err != nil {
		return 0, err
	}
	return r.ResponseWriter.Write(p)
}

// sendHeld writes the held reply, if any, and recycles its buffer.
func (r *statusRecorder) sendHeld() error {
	if r.held == nil {
		return nil
	}
	body, bp := r.held, r.heldBuf
	r.held, r.heldBuf = nil, nil
	_, err := r.ResponseWriter.Write(body)
	putReplyBuf(bp)
	return err
}

func (r *statusRecorder) WriteHeader(code int) {
	if st := r.trace.ServerTiming(); st != "" {
		r.Header().Set("Server-Timing", st)
	}
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with method enforcement, panic recovery,
// request tracing and request metrics (counter + latency histogram, labelled
// by name). The trace ID is taken from a valid X-Request-Id header (generated
// otherwise), echoed back in the response, propagated via the request
// context, and keys one structured access-log line per request.
func (s *Server) instrument(name, method string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if !telemetry.ValidID(id) {
			id = telemetry.NewID()
		}
		tr := telemetry.New(id, s.cfg.Logger)
		// A forwarded cluster hop names the caller's forward span here; the
		// root span adopts it so cross-node stitching links the fragments.
		if parent := r.Header.Get("X-Parent-Span"); telemetry.ValidID(parent) {
			tr.SetRemoteParent(parent)
		}
		root := tr.StartRoot(name)
		r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
		rec := &statusRecorder{ResponseWriter: w, trace: tr, code: http.StatusOK}
		rec.Header().Set("X-Request-Id", id)
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Logger.Error("solverd: handler panic",
					"id", id, "handler", name, "panic", p, "stack", string(debug.Stack()))
				// Best effort: if the handler already wrote, this is a no-op.
				http.Error(rec, "internal error", http.StatusInternalServerError)
			}
			elapsed := time.Since(start)
			root.SetAttr("status", rec.code)
			root.End()
			if recordableHandler(name) {
				s.cfg.Recorder.Record(tr, name, rec.code, elapsed)
			}
			s.metrics.observeRequest(name, rec.code, elapsed.Seconds(), id)
			attrs := make([]slog.Attr, 0, 8)
			attrs = append(attrs,
				slog.String("id", id),
				slog.String("handler", name),
				slog.Int("status", rec.code),
				slog.Float64("dur_ms", float64(elapsed)/float64(time.Millisecond)))
			attrs = append(attrs, tr.Attrs()...)
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
			if err := rec.sendHeld(); err != nil {
				s.cfg.Logger.Error("solverd: writing response", "id", id, "error", err)
			}
		}()
		if r.Method != method {
			rec.Header().Set("Allow", method)
			s.WriteError(rec, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed")
			return
		}
		if selfSampledHandler(name) {
			drop := new(atomic.Bool)
			r = r.WithContext(context.WithValue(r.Context(), dropFlagKey{}, drop))
			s.selfmon.RequestBegin()
			// Ends before the outer defer (LIFO), so the sample window sees
			// the handler's wall time even on a panic. A dropped sample (the
			// admission gate refused the request here or at the cluster
			// gateway) leaves the in-flight integral but records no
			// completion: a shed answered in microseconds must not dilute
			// the demand windows the gate itself decides by.
			defer func() {
				if drop.Load() {
					s.selfmon.RequestDrop()
				} else {
					s.selfmon.RequestEnd(time.Since(start))
				}
			}()
			// The admission gate sits ahead of the worker pool, after
			// RequestBegin so the decision's in-flight count includes this
			// request. Cluster-routed handlers are gated at the gateway
			// instead, where a refusal can redirect to a peer with headroom.
			if gatedHandler(name) {
				if dec := s.admission.Evaluate(); !dec.Admit {
					s.admission.RecordShed()
					drop.Store(true)
					writeShed(rec, dec, s)
					return
				}
			}
		}
		h(rec, r)
	})
}

// dropFlagKey carries the sampled request's drop flag in the context, so the
// admission gate — here or in the cluster gateway — can turn the deferred
// RequestEnd into a RequestDrop.
type dropFlagKey struct{}

// DropSample marks the current sampled request as refused: its self-model
// sample is dropped instead of completed. No-op outside a sampled handler.
func DropSample(ctx context.Context) {
	if drop, ok := ctx.Value(dropFlagKey{}).(*atomic.Bool); ok {
		drop.Store(true)
	}
}

// WriteShed is the uniform shed response: 429 with a Retry-After derived from
// the decision's predicted drain time. Exported for the cluster gateway,
// whose shed path runs outside this package.
func (s *Server) WriteShed(w http.ResponseWriter, dec admission.Decision) {
	writeShed(w, dec, s)
}

func writeShed(w http.ResponseWriter, dec admission.Decision, s *Server) {
	w.Header().Set("Retry-After", strconv.Itoa(dec.RetryAfterSeconds()))
	s.WriteError(w, http.StatusTooManyRequests, fmt.Sprintf(
		"node past predicted safe concurrency (%d in flight, max safe %d); retry after %ds",
		dec.InFlight, dec.MaxSafeN, dec.RetryAfterSeconds()))
}

// gatedHandler selects the handlers the local admission gate covers: the
// solve-shaped work of a standalone node. The cluster-routed variants are
// deliberately excluded — their gate runs in the gateway's routing layer,
// which can redirect over the ring before falling back to a shed.
func gatedHandler(name string) bool {
	switch name {
	case "solve", "sweep", "plan", "whatif":
		return true
	}
	return false
}

// selfSampledHandler selects the solve-shaped work the self-model observes:
// requests that contend for the worker pool (directly or via the cluster
// gateway's deep pipeline). Probes, scrapes and introspection reads are
// excluded — they never queue for a worker and would dilute the demand
// estimate with near-zero service times.
func selfSampledHandler(name string) bool {
	switch name {
	case "solve", "sweep", "plan", "whatif",
		"cluster-solve", "cluster-sweep", "cluster-deep":
		return true
	}
	return false
}

// recordableHandler excludes the introspection surface from the flight
// recorder: probes and metric scrapes arrive continuously and would crowd
// real solves out of the bounded store, and recording trace reads would make
// the recorder observe itself.
func recordableHandler(name string) bool {
	switch name {
	case "healthz", "metrics", "traces", "trace", "cluster-trace",
		"events", "profiles", "profile", "cluster-events":
		return false
	}
	return true
}

// Instrument is the exported form of the middleware for handlers mounted
// outside the local mux (the cluster gateway): method enforcement, panic
// recovery, X-Request-Id tracing and request metrics under name.
func (s *Server) Instrument(name, method string, h http.HandlerFunc) http.Handler {
	return s.instrument(name, method, h)
}

// replyBufs recycles reply encoding buffers. A buffer that grew past
// maxPooledReply (a large sweep) is left to the GC rather than pinned.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

func putReplyBuf(bp *[]byte) {
	if bp != nil && cap(*bp) <= maxPooledReply {
		replyBufs.Put(bp)
	}
}

// WriteJSON is the service's one JSON reply writer, shared with the cluster
// gateway. It encodes v into a pooled buffer before writing anything, so a
// value that fails to encode (a NaN or infinite float) becomes a 500 JSON
// error rather than a 200 with an empty body, and the reply goes out with a
// Content-Length in a single write. Values with an AppendJSON method
// (modelio.SolveResponse) encode through it; anything else through
// encoding/json. Either way the body is json.Encoder's bytes.
func (s *Server) WriteJSON(w http.ResponseWriter, code int, v any) {
	bp := replyBufs.Get().(*[]byte)
	b, err := appendJSON((*bp)[:0], v)
	if err != nil {
		s.cfg.Logger.Error("solverd: encoding response", "error", err)
		code = http.StatusInternalServerError
		b, _ = appendJSON(b[:0], errorBody{Error: "encoding response: " + err.Error()})
	}
	*bp = b
	s.writeReply(w, code, "application/json", b, bp)
}

// appendJSON appends v's json.Encoder encoding to b.
func appendJSON(b []byte, v any) ([]byte, error) {
	if a, ok := v.(interface{ AppendJSON([]byte) ([]byte, error) }); ok {
		return a.AppendJSON(b)
	}
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// WriteBody writes an already encoded reply with the given status code and
// Content-Type (left unset when empty) — relayed peer answers go out this
// way.
func (s *Server) WriteBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	s.writeReply(w, code, contentType, body, nil)
}

// writeReply sends one complete reply with its Content-Length. Behind
// instrument the body is held and written once the request is accounted for;
// bp, when set, is body's pooled buffer, recycled after the write.
func (s *Server) writeReply(w http.ResponseWriter, code int, contentType string, body []byte, bp *[]byte) {
	h := w.Header()
	if contentType != "" {
		h.Set("Content-Type", contentType)
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if rec, ok := w.(*statusRecorder); ok && rec.held == nil {
		rec.held, rec.heldBuf = body, bp
		return
	}
	_, err := w.Write(body)
	putReplyBuf(bp)
	if err != nil {
		s.cfg.Logger.Error("solverd: writing response", "error", err)
	}
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes a JSON error response.
func (s *Server) WriteError(w http.ResponseWriter, code int, msg string) {
	s.WriteJSON(w, code, errorBody{Error: msg})
}
