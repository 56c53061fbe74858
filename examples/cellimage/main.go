// Cell-image analysis: the paper's motivating scenario (§1). A microscope
// frame is segmented into probabilistic masks — every pixel carries the
// probability of belonging to a cell — and cells become fuzzy objects. A
// biologist picks a cell and asks for its nearest neighbors at different
// confidence levels: a high threshold ranks cells by their clearly
// identified cores (kernels); a low threshold lets the blurry fringes count
// too, which can change the answer.
//
// The microscope data is simulated with the probabilistic-segmentation
// pipeline in internal/segment (see DESIGN.md for the substitution
// rationale); querying goes through the public fuzzyknn API.
//
// Run with:
//
//	go run ./examples/cellimage
package main

import (
	"fmt"
	"log"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
)

func main() {
	// A "slide" of 400 simulated cells: irregular supports, 8-bit
	// membership levels, scattered over a 30×30 field.
	params := dataset.Default(dataset.Cells)
	params.N = 400
	params.PointsPerObject = 256
	params.Space = 30
	params.Seed = 2024

	cells, err := dataset.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := fuzzyknn.NewIndex(cells, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	// The "selected cell" under the microscope crosshair.
	probe, err := dataset.GenerateQuery(params, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slide with %d segmented cells; probing neighbors of the selected cell\n\n", idx.Len())

	// Compare the 5 nearest cells at three confidence levels. α = 0.9
	// trusts only near-certain pixels (cell cores); α = 0.3 includes the
	// fuzzy halo that probabilistic segmentation is unsure about.
	for _, alpha := range []float64{0.9, 0.6, 0.3} {
		res, stats, err := idx.AKNN(probe, 5, alpha, fuzzyknn.LBLPUB)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("5 nearest cells at confidence α=%.1f "+
			"(%d cells read from disk out of %d):\n", alpha, stats.ObjectAccesses, idx.Len())
		for i, r := range res {
			marker := ""
			if r.Dist == 0 {
				marker = "  ← overlapping halos"
			}
			fmt.Printf("  %d. cell %-4d d_α=%.4f%s\n", i+1, r.ID, r.Dist, marker)
		}
		fmt.Println()
	}

	// Which cells are 3NN at *some* confidence in [0.3, 0.9]? The
	// qualifying ranges expose results an analyst would miss by checking a
	// single threshold — exactly the paper's argument for the RKNN query.
	ranged, stats, err := idx.RKNN(probe, 3, 0.3, 0.9, fuzzyknn.RSSICR)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cells in the 3NN set for some α ∈ [0.3, 0.9] "+
		"(%d candidates after pruning, %d disk reads):\n", stats.Candidates, stats.ObjectAccesses)
	for _, r := range ranged {
		fmt.Printf("  cell %-4d qualifies on %v\n", r.ID, r.Qualifying)
	}
}
