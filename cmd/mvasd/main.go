// Command mvasd solves a closed queueing-network model with any of the
// library's Mean Value Analysis algorithms and prints the X(n) / R(n)
// trajectory.
//
// Usage:
//
//	mvasd -model model.json -n 500 [-algorithm multiserver] [-every 25]
//	mvasd -model model.json -n 500 -algorithm mvasd -samples samples.json
//	mvasd -profile vins -n 1500 -algorithm mvasd-oracle
//
// Algorithms:
//
//	exact        exact single-server MVA (paper Algorithm 1)
//	schweitzer   Bard–Schweitzer approximate MVA (paper eq. 9)
//	multiserver  exact MVA with multi-server queues (paper Algorithm 2)
//	amva-ms      approximate MVA with the multi-server correction
//	seidmann     exact MVA after Seidmann's multi-server transform
//	ld           exact load-dependent MVA (reference)
//	mvasd        Algorithm 3 with a spline-interpolated demand array
//	             (requires -samples)
//	mvasd-1s     the MVASD:Single-Server baseline (requires -samples)
//	mvasd-oracle MVASD fed a testbed profile's true demand curves
//	             (requires -profile)
//
// A model can come from -model (JSON, see internal/modelio) or -profile
// (a built-in testbed profile evaluated at the single-user point).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/modelio"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mvasd:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("mvasd", flag.ContinueOnError)
	modelPath := fs.String("model", "", "queueing model JSON file")
	profileName := fs.String("profile", "", "built-in testbed profile (vins, jpetstore)")
	profileFile := fs.String("profile-file", "", "custom profile JSON (see internal/testbed.Config)")
	algo := fs.String("algorithm", "multiserver",
		"exact | schweitzer | multiserver | amva-ms | seidmann | ld | mvasd | mvasd-1s | mvasd-oracle")
	n := fs.Int("n", 100, "maximum population")
	samplesPath := fs.String("samples", "", "demand samples JSON (for mvasd / mvasd-1s)")
	method := fs.String("interp", string(interp.CubicNotAKnot), "interpolation method for mvasd")
	every := fs.Int("every", 0, "print every k-th population (default: ~20 rows)")
	csvPath := fs.String("csv", "", "also write the full trajectory as CSV")
	jsonPath := fs.String("json", "", "also write the complete Result (per-station series included) as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		model   *queueing.Model
		profile *testbed.Profile
	)
	switch {
	case *modelPath != "":
		m, err := modelio.LoadModel(*modelPath)
		if err != nil {
			return err
		}
		model = m
	case *profileFile != "":
		p, err := testbed.LoadProfile(*profileFile)
		if err != nil {
			return err
		}
		profile = p
		model = p.Model(1)
	case *profileName != "":
		p, ok := testbed.Profiles()[strings.ToLower(*profileName)]
		if !ok {
			return fmt.Errorf("unknown profile %q (have vins, jpetstore)", *profileName)
		}
		profile = p
		model = p.Model(1)
	default:
		return fmt.Errorf("one of -model, -profile or -profile-file is required")
	}
	res, err := solve(model, profile, *algo, *n, *samplesPath, interp.Method(*method))
	if err != nil {
		return err
	}
	if err := res.CheckInvariants(); err != nil {
		return fmt.Errorf("result failed self-check: %w", err)
	}
	step := *every
	if step <= 0 {
		step = *n / 20
		if step < 1 {
			step = 1
		}
	}
	tab := report.NewTable(
		fmt.Sprintf("%s — %s (Z=%gs)", res.Algorithm, res.ModelName, res.ThinkTime),
		"N", "X (tx/s)", "R (s)", "R+Z (s)", "bottleneck U%")
	// Identify the bottleneck from the solved result itself (algorithms
	// like seidmann transform the station list).
	bIdx := 0
	final := res.FinalUtilization()
	for k := range final {
		if final[k] > final[bIdx] {
			bIdx = k
		}
	}
	for i := 0; i < len(res.N); i++ {
		nn := res.N[i]
		if nn != 1 && nn != *n && nn%step != 0 {
			continue
		}
		tab.AddRow(fmt.Sprint(nn), report.F(res.X[i], 3), report.F(res.R[i], 4),
			report.F(res.Cycle[i], 4), report.Pct(res.UtilRow(i)[bIdx]*100))
	}
	if err := tab.Render(out); err != nil {
		return err
	}
	xMax, at := res.MaxThroughput()
	fmt.Fprintf(out, "\nmax throughput %.3f at N=%d; bottleneck station %s\n",
		xMax, at, res.StationNames[bIdx])
	if *csvPath != "" {
		full := report.NewTable("", "n", "x", "r", "cycle")
		for i := range res.N {
			full.AddRow(fmt.Sprint(res.N[i]), report.F(res.X[i], 6),
				report.F(res.R[i], 6), report.F(res.Cycle[i], 6))
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := full.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "trajectory written to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		fmt.Fprintf(out, "full result written to %s\n", *jsonPath)
	}
	return nil
}

func solve(model *queueing.Model, profile *testbed.Profile, algo string, n int, samplesPath string, method interp.Method) (*core.Result, error) {
	switch algo {
	case "exact":
		return core.ExactMVA(model, n)
	case "schweitzer":
		return core.Schweitzer(model, n, core.SchweitzerOptions{})
	case "multiserver":
		res, _, err := core.ExactMVAMultiServer(model, n, core.MultiServerOptions{TraceStation: -1})
		return res, err
	case "amva-ms":
		return core.SchweitzerMultiServer(model, n, core.SchweitzerOptions{})
	case "seidmann":
		return core.SeidmannMVA(model, n)
	case "ld":
		return core.LoadDependentMVA(model, n, nil)
	case "mvasd", "mvasd-1s":
		if samplesPath == "" {
			return nil, fmt.Errorf("%s requires -samples", algo)
		}
		file, err := modelio.LoadSamples(samplesPath)
		if err != nil {
			return nil, err
		}
		arrays, err := file.ToDemandSamples(model)
		if err != nil {
			return nil, err
		}
		dm, err := core.NewCurveDemands(method, arrays, interp.Options{})
		if err != nil {
			return nil, err
		}
		if algo == "mvasd-1s" {
			return core.MVASDSingleServer(model, n, dm, core.MVASDOptions{})
		}
		return core.MVASD(model, n, dm, core.MVASDOptions{})
	case "mvasd-oracle":
		if profile == nil {
			return nil, fmt.Errorf("mvasd-oracle requires -profile")
		}
		return core.MVASD(model, n, profile.TrueDemandModel(), core.MVASDOptions{})
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}
