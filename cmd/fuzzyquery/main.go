// Command fuzzyquery runs a single AKNN or RKNN query against a store file
// written by fuzzygen (or fuzzyknn.SaveObjects) and prints the results with
// their cost statistics.
//
// Examples:
//
//	fuzzyquery -store objects.fzs -mode aknn -k 10 -alpha 0.5 -algo lb-lp-ub -query-id 7
//	fuzzyquery -store objects.fzs -mode rknn -k 5 -alpha-start 0.4 -alpha-end 0.6
//
// The query object is either a stored object (-query-id) or a synthetic
// object generated on the fly (-query-seed, placed uniformly in -space).
package main

import (
	"flag"
	"fmt"
	"os"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
)

func main() {
	var (
		storePath  = flag.String("store", "objects.fzs", "store file to query")
		mode       = flag.String("mode", "aknn", "query mode: aknn | rknn")
		k          = flag.Int("k", 10, "number of neighbors")
		alpha      = flag.Float64("alpha", 0.5, "probability threshold (aknn)")
		alphaStart = flag.Float64("alpha-start", 0.4, "range start (rknn)")
		alphaEnd   = flag.Float64("alpha-end", 0.6, "range end (rknn)")
		algoName   = flag.String("algo", "", "algorithm: aknn: basic|lb|lb-lp|lb-lp-ub (default lb-lp-ub); rknn: naive|basic|rss|rss-icr (default rss-icr)")
		queryID    = flag.Int64("query-id", -1, "use this stored object as the query")
		querySeed  = flag.Uint64("query-seed", 7, "seed for a generated query object")
		space      = flag.Float64("space", 100, "data space edge for generated queries")
		points     = flag.Int("points", 1000, "points in a generated query object")
		cacheSize  = flag.Int("cache", 0, "LRU object cache size (0 = none)")
		pageFile   = flag.String("pagefile", "", "paged R-tree file written by fuzzygen -pagefile (skips the store scan on open)")
	)
	flag.Parse()

	cfg := &fuzzyknn.Config{CacheSize: *cacheSize}
	var idx *fuzzyknn.Index
	var err error
	if *pageFile != "" {
		idx, err = fuzzyknn.OpenPagedIndex(*storePath, *pageFile, 0, cfg)
	} else {
		idx, err = fuzzyknn.OpenIndex(*storePath, cfg)
	}
	if err != nil {
		fatal(err)
	}
	defer idx.Close()
	fmt.Printf("index: %d objects, %d dims\n", idx.Len(), idx.Dims())

	q, err := loadQuery(idx, *queryID, *querySeed, *space, *points)
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "aknn":
		algo, err := fuzzyknn.ParseAKNNAlgorithm(*algoName)
		if err != nil {
			fatal(err)
		}
		res, stats, err := idx.AKNN(q, *k, *alpha, algo)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nAKNN k=%d α=%v algorithm=%v\n", *k, *alpha, algo)
		for i, r := range res {
			exact := ""
			if !r.Exact {
				exact = fmt.Sprintf("  (bounds [%.4f, %.4f], not probed)", r.Lower, r.Upper)
			}
			fmt.Printf("%3d. object %-8d d_α = %.4f%s\n", i+1, r.ID, r.Dist, exact)
		}
		printStats(stats)

	case "rknn":
		algo, err := fuzzyknn.ParseRKNNAlgorithm(*algoName)
		if err != nil {
			fatal(err)
		}
		res, stats, err := idx.RKNN(q, *k, *alphaStart, *alphaEnd, algo)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nRKNN k=%d range=[%v, %v] algorithm=%v\n", *k, *alphaStart, *alphaEnd, algo)
		for _, r := range res {
			fmt.Printf("  object %-8d qualifies on %v\n", r.ID, r.Qualifying)
		}
		printStats(stats)

	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func loadQuery(idx *fuzzyknn.Index, queryID int64, seed uint64, space float64, points int) (*fuzzyknn.Object, error) {
	if queryID >= 0 {
		fmt.Printf("query: stored object %d (it will match itself at distance 0)\n", queryID)
		return idx.Object(uint64(queryID))
	}
	p := dataset.Default(dataset.Synthetic)
	p.Space = space
	p.PointsPerObject = points
	p.Seed = seed
	q, err := dataset.GenerateQuery(p, 0)
	if err != nil {
		return nil, err
	}
	fmt.Printf("query: generated synthetic object (seed %d)\n", seed)
	return q, nil
}

func printStats(st fuzzyknn.Stats) {
	fmt.Printf("\nstats: %d object accesses, %d node accesses, %d distance evals",
		st.ObjectAccesses, st.NodeAccesses, st.DistanceEvals)
	if st.ProfilesBuilt > 0 {
		fmt.Printf(", %d profiles", st.ProfilesBuilt)
	}
	if st.AKNNCalls > 0 {
		fmt.Printf(", %d AKNN sub-calls", st.AKNNCalls)
	}
	if st.Candidates > 0 {
		fmt.Printf(", %d candidates", st.Candidates)
	}
	fmt.Printf(", %v\n", st.Duration.Round(10_000))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzyquery:", err)
	os.Exit(1)
}
