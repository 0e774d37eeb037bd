package admission

import (
	"io"

	"repro/internal/promtext"
)

// WriteMetrics renders the admission subsystem in Prometheus text format.
// Every solverd_admission_* family is emitted from the first scrape — the
// mode gauge carries one series per mode (exactly one set to 1) — so the
// exposition lint and dashboards see a stable schema. A nil receiver is
// valid and renders the same families at zero, with the default observe mode
// marked.
func (c *Controller) WriteMetrics(w io.Writer) error {
	st := c.Stats()
	p := promtext.NewWriter(w)
	p.Gauge("solverd_admission_mode", "Admission gate mode (one series per mode, the active one set to 1).")
	for _, m := range Modes {
		v := 0
		if m == st.Mode {
			v = 1
		}
		p.Int(v, "mode", m.String())
	}
	p.Counter("solverd_admission_admitted_total", "Requests the admission gate let through.").Uint(st.Admitted)
	p.Counter("solverd_admission_over_capacity_total", "Requests that arrived past the predicted safe concurrency (counted in observe mode too).").Uint(st.OverCapacity)
	p.Counter("solverd_admission_shed_total", "Requests refused with 429 + Retry-After (enforce mode).").Uint(st.Shed)
	p.Counter("solverd_admission_redirected_total", "Refused requests resolved by forwarding to a ring peer with predicted headroom.").Uint(st.Redirected)
	p.Counter("solverd_admission_coalesced_total", "Requests served off another request's coalesced solve flight.").Uint(st.Coalesced)
	p.Gauge("solverd_admission_coalesce_waiters", "Requests currently waiting on a coalesced solve flight.").Int(st.CoalesceWaiters)
	return p.Err()
}
