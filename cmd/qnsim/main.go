// Command qnsim runs the discrete-event simulator on a queueing model and
// compares the measurement against the analytical MVA solutions — the
// validation loop that grounds the simulator (and, run the other way, lets a
// user check an analytical model against a stochastic reference).
//
// Usage:
//
//	qnsim -model model.json -n 100 -measure 2000
//	qnsim -profile jpetstore -n 140
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/simulation"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qnsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qnsim", flag.ContinueOnError)
	modelPath := fs.String("model", "", "queueing model JSON file")
	profileName := fs.String("profile", "", "testbed profile (vins, jpetstore); demands frozen at -n")
	n := fs.Int("n", 50, "population (virtual users)")
	warmup := fs.Float64("warmup", 200, "warm-up time (virtual s)")
	measure := fs.Float64("measure", 2000, "measured window (virtual s)")
	seed := fs.Int64("seed", 1, "random seed")
	dist := fs.String("service", "exponential", "service distribution: exponential | deterministic | erlang2 | uniform")
	lambda := fs.Float64("open", 0, "open-network mode: Poisson arrival rate (customers/s); overrides -n semantics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var model *queueing.Model
	switch {
	case *modelPath != "":
		m, err := modelio.LoadModel(*modelPath)
		if err != nil {
			return err
		}
		model = m
	case *profileName != "":
		p, ok := testbed.Profiles()[strings.ToLower(*profileName)]
		if !ok {
			return fmt.Errorf("unknown profile %q", *profileName)
		}
		model = p.Model(*n)
	default:
		return fmt.Errorf("one of -model or -profile is required")
	}
	sd, err := parseDist(*dist)
	if err != nil {
		return err
	}
	if *lambda > 0 {
		return runOpen(out, model, *lambda, *warmup, *measure, *seed, sd)
	}
	stats, err := simulation.Run(simulation.Config{
		Model:       model,
		Population:  *n,
		Seed:        *seed,
		WarmupTime:  *warmup,
		MeasureTime: *measure,
		ServiceDist: sd,
	})
	if err != nil {
		return err
	}
	ld, err := core.LoadDependentMVA(model, *n, nil)
	if err != nil {
		return err
	}
	ms, _, err := core.ExactMVAMultiServer(model, *n, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		return err
	}
	tab := report.NewTable(
		fmt.Sprintf("simulation vs analysis — %s at N=%d (%s service)", model.Name, *n, sd),
		"metric", "simulated", "exact LD-MVA", "Algorithm 2", "sim vs LD %")
	addRow := func(name string, sim, ldv, msv float64) {
		tab.AddRow(name, report.F(sim, 4), report.F(ldv, 4), report.F(msv, 4),
			report.F(metrics.RelErr(sim, ldv)*100, 2))
	}
	addRow("throughput", stats.Throughput, ld.X[*n-1], ms.X[*n-1])
	addRow("response time", stats.ResponseTime, ld.R[*n-1], ms.R[*n-1])
	addRow("cycle time", stats.CycleTime, ld.Cycle[*n-1], ms.Cycle[*n-1])
	if err := tab.Render(out); err != nil {
		return err
	}
	ut := report.NewTable("station utilization (fraction of servers busy)",
		"station", "simulated", "LD-MVA")
	util := ld.UtilRow(*n - 1)
	for k, st := range model.Stations {
		ut.AddRow(st.Name, report.F(stats.Utilization[k], 4), report.F(util[k], 4))
	}
	return ut.Render(out)
}

// runOpen simulates Poisson arrivals and compares against the Jackson
// open-network solver.
func runOpen(out io.Writer, model *queueing.Model, lambda, warmup, measure float64, seed int64, sd simulation.Distribution) error {
	analytic, err := core.OpenNetwork(model, lambda)
	if err != nil {
		return err
	}
	if !analytic.Stable {
		fmt.Fprintf(out, "WARNING: λ=%g exceeds the saturation rate %.3f — the analytic metrics are infinite\n",
			lambda, core.SaturationRate(model))
	}
	stats, err := simulation.RunOpen(simulation.OpenConfig{
		Model:       model,
		Lambda:      lambda,
		Seed:        seed,
		WarmupTime:  warmup,
		MeasureTime: measure,
		ServiceDist: sd,
	})
	if err != nil {
		return err
	}
	tab := report.NewTable(
		fmt.Sprintf("open network at λ=%g — %s (%s service)", lambda, model.Name, sd),
		"metric", "simulated", "M/M/C analysis", "dev %")
	addRow := func(name string, sim, an float64) {
		tab.AddRow(name, report.F(sim, 4), report.F(an, 4),
			report.F(metrics.RelErr(sim, an)*100, 2))
	}
	addRow("response time", stats.ResponseTime, analytic.ResponseTime)
	addRow("population", stats.Population, analytic.Population)
	addRow("departure rate", stats.ThroughputOut, lambda)
	if err := tab.Render(out); err != nil {
		return err
	}
	ut := report.NewTable("station utilization", "station", "simulated", "analytic")
	for k, st := range model.Stations {
		ut.AddRow(st.Name, report.F(stats.Utilization[k], 4), report.F(analytic.Util[k], 4))
	}
	return ut.Render(out)
}

func parseDist(s string) (simulation.Distribution, error) {
	switch strings.ToLower(s) {
	case "exponential", "exp":
		return simulation.Exponential, nil
	case "deterministic", "det":
		return simulation.Deterministic, nil
	case "erlang2", "erlang-2":
		return simulation.Erlang2, nil
	case "uniform":
		return simulation.Uniform, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q", s)
	}
}
