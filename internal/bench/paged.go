package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/query"
)

// The paged experiment measures what serving from disk costs: AKNN latency
// and block-cache hit ratio against the cache budget, expressed as a
// fraction of the page file. At 100% the working set fits and the warm
// cache should sit within small factors of the in-memory baseline (the
// first traversal faults everything in, then pages stay resident); at 5%
// the cache thrashes and every query pays real page decodes, which is the
// larger-than-RAM operating point the paged layout exists for.

// pagedCacheFractions swept by the experiment.
var pagedCacheFractions = []float64{1.0, 0.25, 0.05}

func pagedExp(s Scale) (*Table, error) {
	w := defaultWorkload(s, dataset.Ideal)
	e, err := Setup(w)
	if err != nil {
		return nil, err
	}

	memLatency, _, err := measureSerialAKNN(e.Index, e.QueryObj, DefaultK, DefaultAlpha)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "fuzzyknn-paged")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.fzp")
	if err := e.Index.SavePaged(path); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fileSize := info.Size()

	xs := make([]string, len(pagedCacheFractions))
	latency := make([]float64, len(pagedCacheFractions))
	hitRatio := make([]float64, len(pagedCacheFractions))
	baseline := make([]float64, len(pagedCacheFractions))
	for i, frac := range pagedCacheFractions {
		xs[i] = fmt.Sprintf("cache=%g%%", frac*100)
		baseline[i] = memLatency

		px, err := query.OpenPagedIndex(e.Index.Store(), path, int64(float64(fileSize)*frac), -1, query.Options{})
		if err != nil {
			return nil, err
		}
		// One warm pass so the 100% point measures the resident steady
		// state, not the first faulting traversal.
		if _, _, err := px.AKNN(e.QueryObj[0], DefaultK, DefaultAlpha, query.LBLPUB); err != nil {
			px.Close()
			return nil, err
		}
		before, _ := px.CacheStats()
		if latency[i], _, err = measureSerialAKNN(px, e.QueryObj, DefaultK, DefaultAlpha); err != nil {
			px.Close()
			return nil, err
		}
		after, _ := px.CacheStats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		if total := hits + misses; total > 0 {
			hitRatio[i] = float64(hits) / float64(total)
		}
		px.Close()
	}

	return &Table{
		ID: "paged",
		Title: fmt.Sprintf("Paged index vs cache budget — ideal objects, N=%d, k=%d, α=%g, page file %d KiB",
			w.N, DefaultK, DefaultAlpha, fileSize>>10),
		XLabel: "cache size as fraction of page file",
		X:      xs,
		YLabel: "ms/query · hit ratio",
		Series: []Series{
			{Label: "paged AKNN latency [ms/query]", Y: latency},
			{Label: "in-memory baseline [ms/query]", Y: baseline},
			{Label: "block-cache hit ratio", Y: hitRatio},
		},
	}, nil
}
