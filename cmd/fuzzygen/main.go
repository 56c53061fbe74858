// Command fuzzygen generates a fuzzy-object dataset and writes it to a
// store file that cmd/fuzzyquery and fuzzyknn.OpenIndex can serve.
//
// Usage:
//
//	fuzzygen -out objects.fzs -kind synthetic -n 50000 -points 1000
//
// Kinds: synthetic (Gaussian-membership circles, §6.1), cells (simulated
// probabilistic-segmentation cells, the paper's "real" data substitute) and
// ideal (Definition 8 spheres for the §5 cost model).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

func main() {
	var (
		out      = flag.String("out", "objects.fzs", "output store file")
		kind     = flag.String("kind", "synthetic", "dataset kind: synthetic | cells | ideal")
		n        = flag.Int("n", 10000, "number of objects")
		points   = flag.Int("points", 1000, "points per object")
		space    = flag.Float64("space", 100, "edge of the square data space")
		radius   = flag.Float64("radius", 0.5, "object radius")
		sigma    = flag.Float64("sigma", 0.5, "membership Gaussian sigma (synthetic)")
		quantize = flag.Int("quantize", 0, "membership quantization levels (0 = continuous)")
		seed     = flag.Uint64("seed", 1, "generation seed")
		pageFile = flag.String("pagefile", "", "also write a paged R-tree file here (serve with fuzzyserve -pagefile)")
	)
	flag.Parse()

	p := dataset.Default(dataset.Kind(*kind))
	p.N = *n
	p.PointsPerObject = *points
	p.Space = *space
	p.Radius = *radius
	p.Sigma = *sigma
	p.Quantize = *quantize
	p.Seed = *seed
	if err := p.Validate(); err != nil {
		fatal(err)
	}

	started := time.Now()
	fmt.Printf("generating %d %s objects (%d points each, space %.0f, seed %d)...\n",
		p.N, p.Kind, p.PointsPerObject, p.Space, p.Seed)
	objs, err := dataset.Generate(p)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated in %v; writing %s...\n", time.Since(started).Round(time.Millisecond), *out)

	w, err := store.Create(*out, 2)
	if err != nil {
		fatal(err)
	}
	for _, o := range objs {
		if err := w.Append(o); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("done: %d objects, %.1f MiB, total %v\n",
		p.N, float64(info.Size())/(1<<20), time.Since(started).Round(time.Millisecond))

	if *pageFile != "" {
		ds, err := store.Open(*out)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		ix, err := query.Build(ds, query.Options{})
		if err != nil {
			fatal(err)
		}
		if err := ix.SavePaged(*pageFile); err != nil {
			fatal(err)
		}
		fmt.Printf("paged R-tree written to %s\n", *pageFile)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzygen:", err)
	os.Exit(1)
}
