package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// suiteEntry is one run as benchmark/suite.sh records it: the result object
// fuzzyload printed, tagged with what was run.
type suiteEntry struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// medians reduces a suite file to one value per (workload, metric): the
// median over however many runs of that workload the file holds.
func medians(entries []suiteEntry) (map[string]map[string]float64, map[string]int) {
	all := make(map[string]map[string][]float64)
	failed := make(map[string]int)
	for _, e := range entries {
		if all[e.Workload] == nil {
			all[e.Workload] = make(map[string][]float64)
		}
		failed[e.Workload] += e.Result.Failed
		for name, m := range e.Result.Metrics {
			all[e.Workload][name] = append(all[e.Workload][name], m.Value)
		}
	}
	out := make(map[string]map[string]float64)
	for w, ms := range all {
		out[w] = make(map[string]float64)
		for name, vs := range ms {
			sort.Float64s(vs)
			out[w][name] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
	}
	return out, failed
}

// compareMain implements `fuzzyload compare A.json B.json`: every metric ×
// workload cell of B against A, end-to-end cells against the regression
// bound BENCHMARK.json fixes for them. It returns 1 when a bound is broken
// or B failed requests A did not, else 0.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fuzzyload compare [--benchmark BENCHMARK.json] A.json B.json")
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var bench benchmarkFile
	var a, b []suiteEntry
	for _, in := range []struct {
		path string
		v    any
	}{{*benchPath, &bench}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "fuzzyload compare:", err)
			return 2
		}
	}
	ma, failedA := medians(a)
	mb, failedB := medians(b)
	breaches := 0
	// worse is the relative change in the direction that hurts.
	worse := func(better string, va, vb float64) float64 {
		if va == 0 {
			return 0
		}
		if better == "higher" {
			return (va - vb) / va
		}
		return (vb - va) / va
	}
	fmt.Printf("%-22s %-30s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, okA := ma[w.Name][m.Name]
			vb, okB := mb[w.Name][m.Name]
			if !okA || !okB {
				continue
			}
			change := worse(m.Better, va, vb)
			verdict := ""
			if change > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-30s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				w.Name, m.Name, va, vb, 100*change, 100*m.Bound, verdict)
		}
		for _, m := range bench.PerLayer {
			va, okA := ma[w.Name][m.Name]
			vb, okB := mb[w.Name][m.Name]
			if okA && okB && (va != 0 || vb != 0) {
				fmt.Printf("%-22s %-30s %14.4f %14.4f %+8.1f%%\n", w.Name, m.Name, va, vb, 100*worse(m.Better, va, vb))
			}
		}
		if failedB[w.Name] > failedA[w.Name] {
			fmt.Printf("%-22s failed requests: %d, was %d  BREACH\n", w.Name, failedB[w.Name], failedA[w.Name])
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Printf("%d cell(s) outside their bound\n", breaches)
		return 1
	}
	fmt.Println("every end-to-end cell within its bound")
	return 0
}
