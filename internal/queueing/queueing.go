// Package queueing defines the closed queueing-network model types shared by
// the analytical solvers (internal/core) and the discrete-event simulator
// (internal/simulation), together with the operational laws of Section 3 of
// the paper: the Utilization Law (eq. 1), Forced Flow Law (eq. 2), Service
// Demand Law (eq. 3), Little's Law (eq. 4) and the Bottleneck Law bounds
// (eqs. 5–6), plus the classical asymptotic and balanced-job bounds that
// frame every MVA result.
package queueing

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ResourceKind classifies a queueing station by the hardware resource it
// models. The multi-tier testbed uses exactly the four kinds of Fig. 2
// (multi-core CPU, Disk, Network Tx, Network Rx) plus Delay for pure
// think-time stations.
type ResourceKind string

const (
	CPU   ResourceKind = "cpu"
	Disk  ResourceKind = "disk"
	NetTx ResourceKind = "net-tx"
	NetRx ResourceKind = "net-rx"
	Delay ResourceKind = "delay"
	Other ResourceKind = "other"
)

// Station is one queueing centre in a closed network.
type Station struct {
	// Name identifies the station, e.g. "db/disk" or "app/cpu".
	Name string `json:"name"`
	// Kind is the resource class; informational except for Delay, which
	// solvers treat as an infinite-server (no-queueing) centre.
	Kind ResourceKind `json:"kind"`
	// Servers is C_k, the number of servers at the station (cores for a
	// CPU). Must be >= 1.
	Servers int `json:"servers"`
	// Visits is V_k, the mean number of visits per system-level
	// transaction (Forced Flow Law ratio X_k/X).
	Visits float64 `json:"visits"`
	// ServiceTime is S_k, the mean service time per visit in seconds.
	ServiceTime float64 `json:"serviceTime"`
}

// Demand returns the service demand D_k = V_k · S_k (eq. 3), the total
// average service time a transaction requires at this station.
func (s Station) Demand() float64 { return s.Visits * s.ServiceTime }

// Model is a single-class closed queueing network with terminal think time.
type Model struct {
	// Name labels the model in reports.
	Name string `json:"name"`
	// Stations are the queueing centres. Order is significant: solvers
	// report per-station metrics in this order.
	Stations []Station `json:"stations"`
	// ThinkTime is Z, the mean terminal think time in seconds.
	ThinkTime float64 `json:"thinkTime"`
}

// ErrInvalidModel is wrapped by Validate for any structural problem.
var ErrInvalidModel = errors.New("queueing: invalid model")

// ErrNotFinite reports a model whose closed-network solution is not finite:
// Validate returns it when think time and demands sum to zero (X = n/0), and
// solvers of the service when a value overflows.
var ErrNotFinite = fmt.Errorf("%w: the solution is not finite (think time and demands sum to zero, or a value overflows)", ErrInvalidModel)

// Validate checks a model whose own station demands drive a closed-network
// solve: ValidateShape's structural checks, and think time plus total demand
// above zero, without which X = n/0 is not finite.
func (m *Model) Validate() error {
	if err := m.ValidateShape(); err != nil {
		return err
	}
	if m.ThinkTime+m.TotalDemand() == 0 {
		return ErrNotFinite
	}
	return nil
}

// ValidateShape checks the model for structural soundness: at least one
// station, positive server counts, non-negative visits/service times/think
// time, and unique station names. It suits models whose demands come from
// elsewhere (MVASD samples, an estimator's stream, per-class demands) or
// that are solved as open networks, where zero demands are legitimate.
func (m *Model) ValidateShape() error {
	if len(m.Stations) == 0 {
		return fmt.Errorf("%w: no stations", ErrInvalidModel)
	}
	if m.ThinkTime < 0 {
		return fmt.Errorf("%w: negative think time %g", ErrInvalidModel, m.ThinkTime)
	}
	seen := make(map[string]bool, len(m.Stations))
	for i, st := range m.Stations {
		if st.Name == "" {
			return fmt.Errorf("%w: station %d has no name", ErrInvalidModel, i)
		}
		if seen[st.Name] {
			return fmt.Errorf("%w: duplicate station name %q", ErrInvalidModel, st.Name)
		}
		seen[st.Name] = true
		if st.Servers < 1 {
			return fmt.Errorf("%w: station %q has %d servers", ErrInvalidModel, st.Name, st.Servers)
		}
		if st.Visits < 0 || math.IsNaN(st.Visits) {
			return fmt.Errorf("%w: station %q has invalid visits %g", ErrInvalidModel, st.Name, st.Visits)
		}
		if st.ServiceTime < 0 || math.IsNaN(st.ServiceTime) {
			return fmt.Errorf("%w: station %q has invalid service time %g", ErrInvalidModel, st.Name, st.ServiceTime)
		}
	}
	return nil
}

// StationIndex returns the index of the named station, or -1.
func (m *Model) StationIndex(name string) int {
	for i, st := range m.Stations {
		if st.Name == name {
			return i
		}
	}
	return -1
}

// Demands returns the per-station demand vector D_k.
func (m *Model) Demands() []float64 {
	out := make([]float64, len(m.Stations))
	for i, st := range m.Stations {
		out[i] = st.Demand()
	}
	return out
}

// TotalDemand returns ΣD_k, the zero-load response time of one transaction.
func (m *Model) TotalDemand() float64 {
	sum := 0.0
	for _, st := range m.Stations {
		sum += st.Demand()
	}
	return sum
}

// MaxDemand returns D_max = max_k D_k/C_k together with the index of the
// bottleneck station. Demands are normalised by the server count because a
// C-server station saturates at throughput C/D, not 1/D; with all C_k = 1
// this is exactly the paper's D_max = max_k D_k.
func (m *Model) MaxDemand() (dmax float64, bottleneck int) {
	bottleneck = -1
	for i, st := range m.Stations {
		if st.Kind == Delay {
			continue // infinite-server stations never bottleneck
		}
		d := st.Demand() / float64(st.Servers)
		if d > dmax {
			dmax, bottleneck = d, i
		}
	}
	return dmax, bottleneck
}

// String renders a compact human-readable summary.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %q: Z=%gs, %d stations\n", m.Name, m.ThinkTime, len(m.Stations))
	for _, st := range m.Stations {
		fmt.Fprintf(&b, "  %-20s kind=%-7s C=%-3d V=%-8.4g S=%-10.6g D=%.6g\n",
			st.Name, st.Kind, st.Servers, st.Visits, st.ServiceTime, st.Demand())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Operational laws (paper Section 3)
// ---------------------------------------------------------------------------

// Utilization applies the Utilization Law (eq. 1): U_i = X_i · S_i, where
// X_i is the station throughput and S_i the mean service time per visit.
// For a multi-server station divide by Servers to get per-server utilization.
func Utilization(stationThroughput, serviceTime float64) float64 {
	return stationThroughput * serviceTime
}

// ForcedFlow applies the Forced Flow Law (eq. 2): X_i = V_i · X.
func ForcedFlow(visits, systemThroughput float64) float64 {
	return visits * systemThroughput
}

// DemandFromUtilization applies the Service Demand Law (eq. 3) in its
// measurement form D_i = U_i / X: utilization here is the total busy
// fraction of the resource (for a multi-core CPU, the sum over cores, i.e.
// the 0–C_k scale, not the 0–1 average), and X is the system throughput.
// This is the primary way the paper extracts demands from load tests.
func DemandFromUtilization(utilization, systemThroughput float64) float64 {
	if systemThroughput <= 0 {
		return 0
	}
	return utilization / systemThroughput
}

// LittleN applies Little's Law (eq. 4): N = X · (R + Z).
func LittleN(throughput, responseTime, thinkTime float64) float64 {
	return throughput * (responseTime + thinkTime)
}

// LittleX rearranges Little's Law for throughput: X = N / (R + Z).
func LittleX(n float64, responseTime, thinkTime float64) float64 {
	den := responseTime + thinkTime
	if den <= 0 {
		return 0
	}
	return n / den
}

// ThroughputBound applies the Bottleneck Law (eq. 5): X ≤ 1/D_max, with
// D_max already normalised by server counts (see Model.MaxDemand).
func ThroughputBound(dmax float64) float64 {
	if dmax <= 0 {
		return math.Inf(1)
	}
	return 1 / dmax
}

// ResponseTimeLowerBound applies eq. 6: R ≥ N·D_max − Z (asymptotic), with
// the zero-load floor R ≥ ΣD as the other regime.
func ResponseTimeLowerBound(n float64, dmax, totalDemand, thinkTime float64) float64 {
	return math.Max(totalDemand, n*dmax-thinkTime)
}

// AsymptoticBounds bundles the classical closed-network asymptotic bounds
// for a model at population n.
type AsymptoticBounds struct {
	// XUpper is min(n/(ΣD+Z), 1/D_max).
	XUpper float64
	// XLower is the pessimistic n/(n·ΣD + Z) bound.
	XLower float64
	// RLower is max(ΣD, n·D_max − Z).
	RLower float64
	// NStar is the saturation population (ΣD + Z)/D_max where the two
	// throughput asymptotes cross.
	NStar float64
}

// Bounds computes the asymptotic bounds for the model at population n.
func Bounds(m *Model, n int) AsymptoticBounds {
	total := m.TotalDemand()
	dmax, _ := m.MaxDemand()
	fn := float64(n)
	b := AsymptoticBounds{
		XLower: fn / (fn*total + m.ThinkTime),
		RLower: ResponseTimeLowerBound(fn, dmax, total, m.ThinkTime),
	}
	b.XUpper = math.Min(fn/(total+m.ThinkTime), ThroughputBound(dmax))
	if dmax > 0 {
		b.NStar = (total + m.ThinkTime) / dmax
	} else {
		b.NStar = math.Inf(1)
	}
	return b
}

// BalancedBounds computes the balanced-job bounds (Zahorjan et al.), which
// are tighter than the asymptotic bounds: the network's throughput is
// bracketed by the throughput of "balanced" networks with all demands equal
// to the average and to the maximum, respectively.
type BalancedBounds struct {
	XLower, XUpper float64
}

// BalancedJobBounds returns balanced-job throughput bounds at population n.
// They are exact only for Z = 0 single-server networks; for Z > 0 we use the
// standard generalisation with the think time folded into the population
// term. Stations with multiple servers are approximated by C_k parallel
// single-server stations of demand D_k/C_k (optimistic, consistent with the
// upper-bound role).
func BalancedJobBounds(m *Model, n int) BalancedBounds {
	// Expand multi-server stations.
	var demands []float64
	for _, st := range m.Stations {
		if st.Kind == Delay {
			continue
		}
		per := st.Demand() / float64(st.Servers)
		for c := 0; c < st.Servers; c++ {
			demands = append(demands, per)
		}
	}
	k := float64(len(demands))
	if k == 0 {
		return BalancedBounds{XLower: 0, XUpper: math.Inf(1)}
	}
	total, dmax := 0.0, 0.0
	for _, d := range demands {
		total += d
		dmax = math.Max(dmax, d)
	}
	davg := total / k
	fn := float64(n)
	z := m.ThinkTime
	// Lower bound: balanced network with every demand = D_max.
	lower := fn / (z + total + dmax*(fn-1)/(1+z/(fn*dmax)))
	// Upper bound: balanced network with every demand = D_avg, capped by
	// the bottleneck.
	upper := fn / (z + total + davg*(fn-1)/(1+z/(fn*davg)))
	upper = math.Min(upper, 1/dmax)
	return BalancedBounds{XLower: lower, XUpper: upper}
}

// NetworkUtilization applies the paper's eq. 7: the utilization of a network
// link over a monitoring window given transmitted+received packet counts,
// packet size in bits, window length in seconds, and bandwidth in bits/s.
func NetworkUtilization(packets float64, packetSizeBits, window, bandwidth float64) float64 {
	if window <= 0 || bandwidth <= 0 {
		return 0
	}
	return packets * packetSizeBits / (window * bandwidth)
}
