// Command benchdiff compares two BENCH_solver.json perf baselines (written by
// the repo's `go test -bench=Solver .` run, see bench_solver_test.go) and
// fails when any benchmark regressed past the tolerance. CI runs it against
// the committed baseline so the perf trajectory is enforced, not just
// recorded.
//
// Usage:
//
//	benchdiff [-tolerance 0.25] old.json new.json
//
// Beyond ns/op, two stricter gates apply where the baseline records them:
//
//   - allocs/op: a benchmark whose baseline allocates zero per op must stay
//     at zero — any growth fails regardless of -tolerance (the repo's hot
//     steppers are allocation-free by design, and an alloc creeping in is a
//     correctness-of-design bug, not a perf wobble). A non-zero allocs/op
//     baseline (the cluster-forward hop, the prefix-hit round trip) is gated
//     by the -tolerance rule:
//     allocation growth past it fails even when ns/op happens to stay flat;
//   - deep benchmarks (extra_key "ns_per_pop") additionally report their
//     per-population cost, the depth-scaling figure the README publishes,
//     and that figure is gated by the same -tolerance rule as ns/op — the
//     per-population cost is the contract a deep solve scales by, so it must
//     not drift even when a smaller iteration count masks it in ns/op.
//
// A benchmark present in old but missing from new is an error (the suite
// shrank silently); new-only benchmarks are listed but do not fail the run.
// Exit status 1 on any regression past -tolerance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// benchEntry mirrors one record of the shape bench_solver_test.go writes.
type benchEntry struct {
	Name        string   `json:"name"`
	N           int      `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	ExtraKey    string   `json:"extra_key"`
	Extra       float64  `json:"extra"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

type benchFile struct {
	Benchmarks []benchEntry `json:"benchmarks"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	tolerance := fs.Float64("tolerance", 0.25, "allowed ns/op growth before a benchmark counts as regressed (0.25 = +25%)")
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: benchdiff [-tolerance 0.25] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("want exactly two baseline files, got %d", fs.NArg())
	}
	if *tolerance < 0 {
		return fmt.Errorf("negative -tolerance %g", *tolerance)
	}
	old, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(out, "%-40s %14s %14s %8s\n", "BENCHMARK", "OLD ns/op", "NEW ns/op", "DELTA")
	var regressed, missing, allocGrew, extraRegressed []string
	for _, name := range names {
		o := old[name]
		n, ok := cur[name]
		if !ok {
			missing = append(missing, name)
			fmt.Fprintf(out, "%-40s %14.1f %14s %8s\n", name, o.NsPerOp, "missing", "-")
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = n.NsPerOp/o.NsPerOp - 1
		}
		verdict := ""
		if delta > *tolerance {
			verdict = "  REGRESSED"
			regressed = append(regressed, name)
		}
		if o.AllocsPerOp != nil && n.AllocsPerOp != nil {
			switch {
			case *o.AllocsPerOp == 0 && *n.AllocsPerOp > 0:
				// Zero-alloc baselines are strict: any allocation fails.
				verdict += "  ALLOCS"
				allocGrew = append(allocGrew, name)
			case *o.AllocsPerOp > 0 && *n.AllocsPerOp / *o.AllocsPerOp - 1 > *tolerance:
				verdict += "  ALLOCS"
				allocGrew = append(allocGrew, name)
			}
		}
		fmt.Fprintf(out, "%-40s %14.1f %14.1f %+7.1f%%%s\n", name, o.NsPerOp, n.NsPerOp, 100*delta, verdict)
		if o.ExtraKey == "ns_per_pop" && n.ExtraKey == "ns_per_pop" {
			extraDelta := 0.0
			if o.Extra > 0 {
				extraDelta = n.Extra/o.Extra - 1
			}
			extraVerdict := ""
			if extraDelta > *tolerance {
				extraVerdict = "  REGRESSED"
				extraRegressed = append(extraRegressed, name)
			}
			fmt.Fprintf(out, "%-40s %14.2f %14.2f %+7.1f%%%s\n", "  └ ns/population", o.Extra, n.Extra, 100*extraDelta, extraVerdict)
		}
	}
	var added []string
	for name := range cur {
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(out, "%-40s %14s %14.1f %8s\n", name, "(new)", cur[name].NsPerOp, "-")
	}

	if len(missing) > 0 {
		return fmt.Errorf("%d benchmark(s) missing from the new baseline: %v", len(missing), missing)
	}
	if len(allocGrew) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed allocs/op (zero-alloc baselines are strict, others gate at +%.0f%%): %v",
			len(allocGrew), 100**tolerance, allocGrew)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past +%.0f%%: %v", len(regressed), 100**tolerance, regressed)
	}
	if len(extraRegressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past +%.0f%% in ns/population: %v", len(extraRegressed), 100**tolerance, extraRegressed)
	}
	fmt.Fprintf(out, "\nok: %d benchmark(s) within +%.0f%%\n", len(names), 100**tolerance)
	return nil
}

// load reads one baseline into a name → record map.
func load(path string) (map[string]benchEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	m := make(map[string]benchEntry, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		if b.Name == "" || b.NsPerOp < 0 {
			return nil, fmt.Errorf("%s: bad record %+v", path, b)
		}
		m[b.Name] = b
	}
	return m, nil
}
