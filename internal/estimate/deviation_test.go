package estimate

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/promtest"
)

func TestDeviationTrackerBounds(t *testing.T) {
	rec := obs.New(obs.Config{Node: "devtest", SampleRate: 1})
	d := NewDeviationTracker(rec)

	// Inside the paper's bounds: 2% throughput, 8% cycle time.
	if ratio, over := d.ObserveThroughput(10, 100, 102); over || ratio < 0.019 || ratio > 0.021 {
		t.Fatalf("2%% throughput deviation: ratio=%g over=%v", ratio, over)
	}
	if _, over := d.ObserveCycleTime(10, 0.5, 0.54); over {
		t.Fatal("8% cycle-time deviation flagged over the 9% bound")
	}
	if got := len(d.Violations()); got != 0 {
		t.Fatalf("%d violations recorded inside the bounds", got)
	}
	if got := rec.Stats().Traces; got != 0 {
		t.Fatalf("recorder holds %d traces before any breach", got)
	}

	// Outside: 5% throughput breaches 3%, 12% cycle time breaches 9%.
	if ratio, over := d.ObserveThroughput(20, 100, 95); !over || ratio < 0.049 {
		t.Fatalf("5%% throughput deviation: ratio=%g over=%v", ratio, over)
	}
	if _, over := d.ObserveCycleTime(20, 0.5, 0.56); !over {
		t.Fatal("12% cycle-time deviation not flagged")
	}
	viols := d.Violations()
	if len(viols) != 2 {
		t.Fatalf("violations = %d, want 2", len(viols))
	}
	for _, v := range viols {
		if v.TraceID == "" {
			t.Fatalf("violation %+v has no recorded trace", v)
		}
		frags := rec.Get(v.TraceID)
		if len(frags) != 1 || frags[0].Handler != "prediction-deviation" {
			t.Fatalf("breach trace %s not in the recorder: %+v", v.TraceID, frags)
		}
		attrs := frags[0].Spans[0].Attrs
		found := false
		for _, a := range attrs {
			if a.Key == "metric" && a.Value == v.Metric {
				found = true
			}
		}
		if !found {
			t.Fatalf("breach span missing metric attr: %+v", attrs)
		}
	}

	// Zero measurement is ignored, not a division by zero.
	if ratio, over := d.ObserveThroughput(5, 0, 10); ratio != 0 || over {
		t.Fatal("zero measurement must be a no-op")
	}
}

func TestDeviationTrackerMetrics(t *testing.T) {
	d := NewDeviationTracker(nil) // nil recorder: gauges still work
	d.ObserveThroughput(10, 100, 102)
	d.ObserveThroughput(20, 100, 110)
	d.ObserveCycleTime(10, 1, 1.05)

	var sb strings.Builder
	if err := d.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	families := promtest.ParseExposition(t, sb.String())
	promtest.RequireFamilies(t, families,
		"solverd_prediction_deviation_ratio",
		"solverd_prediction_deviation_ratio_mean",
		"solverd_prediction_deviation_exceeded_total",
		"solverd_monitor_deviation_breaches_total")
	promtest.LintFamilies(t, families)

	get := func(family, metric string) float64 {
		t.Helper()
		for _, s := range families[family].Samples {
			if s.Label("metric") == metric {
				return s.Value
			}
		}
		t.Fatalf("no %s{metric=%q}", family, metric)
		return 0
	}
	if v := get("solverd_prediction_deviation_ratio", "throughput"); v < 0.099 || v > 0.101 {
		t.Errorf("latest throughput deviation = %g, want 0.10", v)
	}
	if v := get("solverd_prediction_deviation_ratio_mean", "throughput"); v < 0.059 || v > 0.061 {
		t.Errorf("mean throughput deviation = %g, want 0.06", v)
	}
	if v := get("solverd_prediction_deviation_exceeded_total", "throughput"); v != 1 {
		t.Errorf("throughput breaches = %g, want 1 (10%% > 3%%)", v)
	}
	if v := get("solverd_prediction_deviation_exceeded_total", "cycle_time"); v != 0 {
		t.Errorf("cycle-time breaches = %g, want 0 (5%% < 9%%)", v)
	}
	// The alertable breach counter mirrors the same counts keyed by bound,
	// with both bound series present even at zero.
	breaches := families["solverd_monitor_deviation_breaches_total"].Samples
	if len(breaches) != 2 {
		t.Fatalf("breach counter has %d series, want both bounds: %+v", len(breaches), breaches)
	}
	byBound := map[string]float64{}
	for _, s := range breaches {
		byBound[s.Label("bound")] = s.Value
	}
	if byBound["throughput"] != 1 || byBound["cycle_time"] != 0 {
		t.Errorf("breaches by bound = %v, want throughput=1 cycle_time=0", byBound)
	}
}
