package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/numeric"
	"repro/internal/report"
	"repro/internal/testbed"
)

func init() {
	register(Experiment{
		ID:         "table3",
		Title:      "Utilization % observed during load testing of the JPetStore application",
		PaperClaim: "DB CPU and disk reach saturation around 140 users (CPU-heavy application)",
		Run:        runTable3,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "MVASD vs multi-server MVA (constant demands) vs measured, JPetStore",
		PaperClaim: "MVASD tracks measured values incl. the knee between 140 and 168 users; " +
			"MVA 28/70/140/210 spread widely",
		Run: runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "MVASD multi-server vs MVASD:Single-Server (normalized demands), JPetStore",
		PaperClaim: "normalising multi-core CPUs into single servers deteriorates prediction, " +
			"especially with a CPU bottleneck",
		Run: runFig8,
	})
	register(Experiment{
		ID:         "fig9",
		Title:      "Measured vs MVASD-predicted DB server utilization, JPetStore",
		PaperClaim: "predicted CPU/disk utilization curves follow measured values to saturation",
		Run:        runFig9,
	})
	register(Experiment{
		ID:         "table5",
		Title:      "Mean deviation in modeling the JPetStore application",
		PaperClaim: "MVASD: X 2.83%, R+Z 1.2%; MVASD:Single-Server ≈19%/4.6%; MVA i up to ≈32%",
		Run:        runTable5,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Service demands interpolated against throughput (Section 7), JPetStore",
		PaperClaim: "demand-vs-throughput models predict with higher deviation " +
			"(≈6.7% X, ≈6.9% R+Z) than demand-vs-concurrency",
		Run: runFig11,
	})
	register(Experiment{
		ID:         "fig12",
		Title:      "Demand splines from 3 / 5 / 7 samples, JPetStore DB server",
		PaperClaim: "3 equi-chosen samples produce visibly worse interpolation than 5 or 7",
		Run:        runFig12,
	})
}

func runTable3(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	matrix, err := monitor.BuildUtilizationMatrix(cam.SampleResults)
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	headers := append([]string{"Users", "X (pages/s)"}, matrix.Stations...)
	tab := report.NewTable("Table 3 — JPetStore utilization % (CPU columns are per-core averages)", headers...)
	for i, n := range matrix.Concurrency {
		cells := []string{fmt.Sprint(n), report.F(matrix.Throughput[i], 1)}
		for _, v := range matrix.Pct[i] {
			cells = append(cells, report.Pct(v))
		}
		tab.AddRow(cells...)
	}
	o.Tables = append(o.Tables, tab)
	hot, pct := matrix.HottestStation()
	o.metric("bottleneck_util_pct", pct)
	o.metric("db_cpu_util_pct_at_max", matrix.Station("db/cpu")[len(matrix.Concurrency)-1])
	o.metric("db_disk_util_pct_at_max", matrix.Station("db/disk")[len(matrix.Concurrency)-1])
	o.Notes = append(o.Notes, fmt.Sprintf("measured bottleneck: %s at %.1f%%", hot, pct))
	return o, nil
}

// jpetMVAiLevels are the paper's JPetStore constant-demand baselines.
var jpetMVAiLevels = []int{28, 70, 140, 210}

func runFig7(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	grid := report.IntsToFloats(cam.EvalConcurrencies)
	xChart := &report.Chart{Title: "Fig 7 — JPetStore throughput: measured vs MVASD vs MVA i", XLabel: "concurrent users", YLabel: "pages/s"}
	cChart := &report.Chart{Title: "Fig 7 — JPetStore cycle time: measured vs MVASD vs MVA i", XLabel: "concurrent users", YLabel: "R+Z (s)"}
	xChart.Add("measured", grid, cam.MeasuredX())
	cChart.Add("measured", grid, cam.MeasuredCycle())
	sd, err := cam.MVASDResult()
	if err != nil {
		return nil, err
	}
	px, pc := PredictionsAt(sd, cam.EvalConcurrencies)
	xChart.Add("MVASD", grid, px)
	cChart.Add("MVASD", grid, pc)
	xDev, _ := metrics.MeanDeviationPct(px, cam.MeasuredX())
	o.metric("mvasd_throughput_dev_pct", xDev)
	for _, i := range jpetMVAiLevels {
		res, err := cam.MVAiResult(i)
		if err != nil {
			return nil, err
		}
		mx, mc := PredictionsAt(res, cam.EvalConcurrencies)
		xChart.Add(res.Algorithm, grid, mx)
		cChart.Add(res.Algorithm, grid, mc)
		dev, _ := metrics.MeanDeviationPct(mx, cam.MeasuredX())
		o.metric(fmt.Sprintf("mva%d_throughput_dev_pct", i), dev)
	}
	o.Charts = append(o.Charts, xChart, cChart)
	return o, nil
}

// mvasdSingleServer solves the Fig.-8 baseline on a campaign.
func mvasdSingleServer(cam *Campaign) (*core.Result, error) {
	samples, err := cam.DemandSamples()
	if err != nil {
		return nil, err
	}
	dm, err := core.NewCurveDemands(interp.CubicNotAKnot, samples, interp.Options{})
	if err != nil {
		return nil, err
	}
	return core.MVASDSingleServer(cam.Profile.Model(1), cam.Profile.MaxUsers, dm, core.MVASDOptions{})
}

func runFig8(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	grid := report.IntsToFloats(cam.EvalConcurrencies)
	xChart := &report.Chart{Title: "Fig 8 — JPetStore throughput: multi-server vs single-server MVASD", XLabel: "concurrent users", YLabel: "pages/s"}
	cChart := &report.Chart{Title: "Fig 8 — JPetStore cycle time: multi-server vs single-server MVASD", XLabel: "concurrent users", YLabel: "R+Z (s)"}
	xChart.Add("measured", grid, cam.MeasuredX())
	cChart.Add("measured", grid, cam.MeasuredCycle())
	multi, err := cam.MVASDResult()
	if err != nil {
		return nil, err
	}
	single, err := mvasdSingleServer(cam)
	if err != nil {
		return nil, err
	}
	mx, mc := PredictionsAt(multi, cam.EvalConcurrencies)
	sx, sc := PredictionsAt(single, cam.EvalConcurrencies)
	xChart.Add("MVASD", grid, mx)
	xChart.Add("MVASD single-server", grid, sx)
	cChart.Add("MVASD", grid, mc)
	cChart.Add("MVASD single-server", grid, sc)
	o.Charts = append(o.Charts, xChart, cChart)
	mDev, _ := metrics.MeanDeviationPct(mx, cam.MeasuredX())
	sDev, _ := metrics.MeanDeviationPct(sx, cam.MeasuredX())
	o.metric("mvasd_throughput_dev_pct", mDev)
	o.metric("single_server_throughput_dev_pct", sDev)
	mcDev, _ := metrics.MeanDeviationPct(mc, cam.MeasuredCycle())
	scDev, _ := metrics.MeanDeviationPct(sc, cam.MeasuredCycle())
	o.metric("mvasd_cycle_dev_pct", mcDev)
	o.metric("single_server_cycle_dev_pct", scDev)
	return o, nil
}

func runFig9(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	sd, err := cam.MVASDResult()
	if err != nil {
		return nil, err
	}
	grid := report.IntsToFloats(cam.EvalConcurrencies)
	chart := &report.Chart{
		Title:  "Fig 9 — JPetStore DB server utilization: measured vs MVASD",
		XLabel: "concurrent users", YLabel: "utilization (%)",
	}
	matrix, err := monitor.BuildUtilizationMatrix(cam.EvalResults)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"db/cpu", "db/disk"} {
		k := sd.StationIndex(name)
		pred := make([]float64, len(cam.EvalConcurrencies))
		for i, n := range cam.EvalConcurrencies {
			pred[i] = sd.UtilRow(n - 1)[k] * 100
		}
		meas := matrix.Station(name)
		chart.Add(name+" measured", grid, meas)
		chart.Add(name+" MVASD", grid, pred)
		dev, _ := metrics.MeanDeviationPct(pred, meas)
		o.metric("util_dev_pct_"+name[3:], dev)
	}
	o.Charts = append(o.Charts, chart)
	return o, nil
}

func runTable5(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	tab := report.NewTable("Table 5 — Mean deviation in modeling JPetStore (eq. 15, %)",
		"Metric", "Model", "Deviation (%)")
	type entry struct {
		name     string
		x, cycle []float64
	}
	var entries []entry
	single, err := mvasdSingleServer(cam)
	if err != nil {
		return nil, err
	}
	sx, sc := PredictionsAt(single, cam.EvalConcurrencies)
	entries = append(entries, entry{"MVASD: Single-Server", sx, sc})
	multi, err := cam.MVASDResult()
	if err != nil {
		return nil, err
	}
	mx, mc := PredictionsAt(multi, cam.EvalConcurrencies)
	entries = append(entries, entry{"MVASD", mx, mc})
	for _, i := range jpetMVAiLevels {
		res, err := cam.MVAiResult(i)
		if err != nil {
			return nil, err
		}
		x, c := PredictionsAt(res, cam.EvalConcurrencies)
		entries = append(entries, entry{res.Algorithm, x, c})
	}
	for _, e := range entries {
		dev, _ := metrics.MeanDeviationPct(e.x, cam.MeasuredX())
		tab.AddRow("Throughput", e.name, report.F(dev, 2))
		o.metric(metricKey(e.name)+"_throughput_dev_pct", dev)
	}
	for _, e := range entries {
		dev, _ := metrics.MeanDeviationPct(e.cycle, cam.MeasuredCycle())
		tab.AddRow("Cycle Time", e.name, report.F(dev, 2))
		o.metric(metricKey(e.name)+"_cycle_dev_pct", dev)
	}
	o.Tables = append(o.Tables, tab)
	return o, nil
}

// metricKey converts a model label to a snake_case metric prefix.
func metricKey(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	return string(out)
}

func runFig11(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	samplesX, err := monitor.ExtractDemandSamplesVsThroughput(cam.SampleResults)
	if err != nil {
		return nil, err
	}
	// Demand-vs-throughput splines for the DB server (the figure).
	chart := &report.Chart{
		Title:  "Fig 11 — JPetStore DB demands interpolated against throughput",
		XLabel: "throughput (pages/s)", YLabel: "demand (s)",
	}
	model := cam.Profile.Model(1)
	for _, name := range []string{"db/cpu", "db/disk"} {
		k := model.StationIndex(name)
		c, err := newSplineCurve(samplesX[k])
		if err != nil {
			return nil, err
		}
		lo, hi := c.Domain()
		dense := numeric.Linspace(lo, hi, 100)
		ys := make([]float64, len(dense))
		for i, x := range dense {
			ys[i] = c.Eval(x)
		}
		chart.Add(name, dense, ys)
	}
	o.Charts = append(o.Charts, chart)
	// MVASD with demands as a function of throughput (fixed point per step).
	dm, err := core.NewThroughputDemands(interp.CubicNotAKnot, samplesX, interp.Options{})
	if err != nil {
		return nil, err
	}
	res, err := core.MVASD(cam.Profile.Model(1), cam.Profile.MaxUsers, dm, core.MVASDOptions{})
	if err != nil {
		return nil, err
	}
	px, pc := PredictionsAt(res, cam.EvalConcurrencies)
	xDev, _ := metrics.MeanDeviationPct(px, cam.MeasuredX())
	cDev, _ := metrics.MeanDeviationPct(pc, cam.MeasuredCycle())
	o.metric("vs_throughput_x_dev_pct", xDev)
	o.metric("vs_throughput_cycle_dev_pct", cDev)
	// Reference: the concurrency-indexed MVASD on the same data.
	sd, err := cam.MVASDResult()
	if err != nil {
		return nil, err
	}
	bx, bc := PredictionsAt(sd, cam.EvalConcurrencies)
	bxDev, _ := metrics.MeanDeviationPct(bx, cam.MeasuredX())
	bcDev, _ := metrics.MeanDeviationPct(bc, cam.MeasuredCycle())
	o.metric("vs_concurrency_x_dev_pct", bxDev)
	o.metric("vs_concurrency_cycle_dev_pct", bcDev)
	return o, nil
}

func runFig12(ctx *Context) (*Outcome, error) {
	cam, err := ctx.campaign(testbed.JPetStore())
	if err != nil {
		return nil, err
	}
	samples, err := cam.DemandSamples()
	if err != nil {
		return nil, err
	}
	model := cam.Profile.Model(1)
	k := model.StationIndex("db/cpu")
	full := samples[k]
	o := &Outcome{}
	chart := &report.Chart{
		Title:  "Fig 12 — JPetStore db/cpu demand splines from 3 / 5 / 7 samples",
		XLabel: "concurrent users", YLabel: "demand (s)",
	}
	subsets := map[string][]float64{
		"3 samples": {1, 14, 28},
		"5 samples": {1, 14, 28, 70, 140},
		"7 samples": {1, 14, 28, 70, 140, 168, 210},
	}
	dense := numeric.Linspace(1, 280, 120)
	curves := map[string][]float64{}
	for label, keep := range subsets {
		sub := subsetSamples(full, keep)
		c, err := newSplineCurve(sub)
		if err != nil {
			return nil, err
		}
		ys := make([]float64, len(dense))
		for i, x := range dense {
			ys[i] = c.Eval(x)
		}
		curves[label] = ys
		chart.Add(label, dense, ys)
	}
	o.Charts = append(o.Charts, chart)
	// Divergence of the sparse interpolations from the 7-sample reference.
	for _, label := range []string{"3 samples", "5 samples"} {
		dev, _ := metrics.MeanDeviationPct(curves[label], curves["7 samples"])
		o.metric(metricKey(label)+"_vs_7_dev_pct", dev)
	}
	return o, nil
}

// subsetSamples keeps the sample points whose abscissa is in keep.
func subsetSamples(s core.DemandSamples, keep []float64) core.DemandSamples {
	want := map[float64]bool{}
	for _, v := range keep {
		want[v] = true
	}
	var out core.DemandSamples
	for i, a := range s.At {
		if want[a] {
			out.At = append(out.At, a)
			out.Demands = append(out.Demands, s.Demands[i])
		}
	}
	return out
}
