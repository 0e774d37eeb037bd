package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain compares two sets of runs (results files written with
// -results): per workload and end-to-end metric it prints each side's median
// and quartiles, the change of the medians and the metric's bound. A metric
// whose B median is worse than A's by more than the bound is REGRESSED (any
// increase, for error_rate) and makes the exit status 1; one whose
// run-to-run spread on either side exceeds its bound is unresolved.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(out, "usage: solverbench compare A.json B.json")
		return 2
	}
	a, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(out, "solverbench compare:", err)
		return 2
	}
	b, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(out, "solverbench compare:", err)
		return 2
	}
	regressed := false
	for _, w := range workloadsIn(a, b) {
		fmt.Fprintf(out, "\n%s: A %s (%d runs) vs B %s (%d runs)\n", w, args[0], len(a.Runs), args[1], len(b.Runs))
		fmt.Fprintf(out, "  %-22s %-32s %-32s %9s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
		for _, d := range append(append([]metricDef(nil), e2eMetrics...), errorRate) {
			av, bv := metricValues(a, w, d.name), metricValues(b, w, d.name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(out, "  %-22s missing on one side  REGRESSED\n", d.name)
				regressed = true
				continue
			}
			verdict, change := judge(d, av, bv)
			if verdict == "REGRESSED" {
				regressed = true
			}
			bound := "no rise"
			if d.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.bound)
			}
			fmt.Fprintf(out, "  %-22s %-32s %-32s %8.2f%% %7s  %s\n", d.name, describe(av), describe(bv), 100*change, bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// judge compares B's runs of one metric against A's, returning the verdict
// and the relative change of the medians (positive means B is worse).
func judge(d metricDef, av, bv []float64) (string, float64) {
	_, am, _ := quartiles(av)
	_, bm, _ := quartiles(bv)
	change := 0.0
	if am != 0 {
		change = (bm - am) / math.Abs(am)
	}
	if d.better == "higher" {
		change = -change
	}
	switch {
	case d.bound == 0 && bm > am, d.bound > 0 && change > d.bound:
		return "REGRESSED", change
	case d.bound > 0 && (spread(av) > d.bound || spread(bv) > d.bound):
		return "unresolved", change
	}
	return "ok", change
}

func describe(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func metricValues(f *resultsFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if wr, ok := r.Workloads[workload]; ok {
			if v, ok := wr.Metrics[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func loadRecords(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// workloadsIn lists the workloads any run in the files measured, in
// benchmark order.
func workloadsIn(files ...*resultsFile) []string {
	seen := make(map[string]bool)
	for _, f := range files {
		for _, r := range f.Runs {
			for w := range r.Workloads {
				seen[w] = true
			}
		}
	}
	var out []string
	for _, w := range workloadNames {
		if seen[w] {
			out = append(out, w)
		}
	}
	return out
}
