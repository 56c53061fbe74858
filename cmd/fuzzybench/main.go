// Command fuzzybench regenerates the paper's evaluation figures as text
// tables. Each experiment id names one figure panel (fig11a … fig15b) or the
// §5 cost-model validation (sec5).
//
// Examples:
//
//	fuzzybench -list
//	fuzzybench -experiment fig11a
//	fuzzybench -experiment sec5,fig11a -json BENCH.json
//	fuzzybench -experiment all -scale paper   # Table 2 scale; slow
//
// With -json, the tables are additionally written to the given path in the
// machine-readable fuzzybench/v1 format (see internal/bench.Report) — the
// format of the repository's BENCH_*.json perf-trajectory files and of the
// CI bench artifact. -note attaches one free-form context line per use
// (repeat the flag for several), e.g. baseline numbers the run is
// compared to.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"fuzzyknn/internal/bench"
)

// noteList collects repeated -note flags.
type noteList []string

func (n *noteList) String() string { return strings.Join(*n, "; ") }

func (n *noteList) Set(v string) error {
	*n = append(*n, v)
	return nil
}

func main() {
	var notes noteList
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids (figNNx, sec5) or 'all'")
		scaleName  = flag.String("scale", "small", "workload scale: small | paper")
		jsonPath   = flag.String("json", "", "also write results as machine-readable JSON to this path")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Var(&notes, "note", "context note to embed in the -json report (repeatable)")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale bench.Scale
	switch *scaleName {
	case "small":
		scale = bench.ScaleSmall
	case "paper":
		scale = bench.ScalePaper
		fmt.Fprintln(os.Stderr, "fuzzybench: paper scale selected; dataset generation and index builds will take a while")
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}

	var exps []bench.Experiment
	if *experiment == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}

	// RunToReport writes the -json report even when an experiment fails
	// mid-run: completed tables are never discarded by a late failure.
	report, err := bench.RunToReport(exps, bench.RunOptions{
		Scale:     scale,
		ScaleName: *scaleName,
		Notes:     notes,
		Stdout:    os.Stdout,
		JSONPath:  *jsonPath,
	})
	// The "wrote" line must not claim an artifact that never hit the disk:
	// ErrReportWrite tags exactly that failure.
	if *jsonPath != "" && report != nil && !errors.Is(err, bench.ErrReportWrite) {
		fmt.Fprintf(os.Stderr, "fuzzybench: wrote %s (%d experiment(s))\n", *jsonPath, len(report.Experiments))
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzybench:", err)
	os.Exit(1)
}
