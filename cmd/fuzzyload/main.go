// Command fuzzyload is the end-to-end and per-layer benchmark of
// fuzzyserve (see benchmark/README.md). One invocation generates a seeded
// dataset, starts the real cmd/fuzzyserve binary in one of four deployment
// shapes, drives it over loopback HTTP with two connections, checks the
// answers against an oracle and prints every metric by name and unit; the
// last line of standard output is the result object BENCHMARK.json
// describes.
//
//	fuzzyload --workload aknn_inline_mem --seed 1 --seconds 12 --trace 0
//	fuzzyload compare A.json B.json
//
// It is normally started through benchmark/run.sh, which builds both
// binaries first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name     = flag.String("workload", "", "one of the workloads in BENCHMARK.json")
		seed     = flag.Uint64("seed", 1, "seed of the dataset and the request streams")
		seconds  = flag.Float64("seconds", 12, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters, the span ladder and the probes")
		serveBin = flag.String("fuzzyserve", "", "path of the cmd/fuzzyserve binary to drive")
		outDir   = flag.String("out", "", "directory for server logs, trace.json and temporary data files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *serveBin == "" || *outDir == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: fuzzyload --workload NAME --seed N --seconds S --trace 0|1 --fuzzyserve BIN --out DIR")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	// An interrupt cancels the run; its deferred clean-up then kills the
	// server and removes the data files before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, sc: fullScale,
		serveBin: *serveBin, outDir: filepath.Join(*outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzyload:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzyload:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
