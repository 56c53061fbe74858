package query

import (
	"math/rand/v2"
	"sync"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// TestConcurrentQueriesOnSharedIndex verifies the Index is safe for
// concurrent readers: many goroutines fire mixed AKNN/RKNN/range queries at
// one shared index and every answer must match the single-threaded result.
func TestConcurrentQueriesOnSharedIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(401, 1))
	objs := makeObjects(rng, 80, 12, 12, 8)
	ix := buildIndex(t, objs, Options{})
	queries := make([]*queryCase, 12)
	for i := range queries {
		queries[i] = &queryCase{
			q:     makeQuery(rng, 12, 12, 8),
			k:     1 + rng.IntN(8),
			alpha: 0.2 + 0.6*rng.Float64(),
		}
	}
	// Single-threaded reference answers.
	for _, qc := range queries {
		res, _, err := ix.AKNN(qc.q, qc.k, qc.alpha, LB)
		if err != nil {
			t.Fatal(err)
		}
		qc.wantAKNN = res
		ranged, _, err := ix.RKNN(qc.q, qc.k, 0.3, 0.7, RSSICR)
		if err != nil {
			t.Fatal(err)
		}
		qc.wantRKNN = ranged
		rg, _, err := ix.RangeSearch(qc.q, qc.alpha, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		qc.wantRange = rg
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				qc := queries[(worker+round)%len(queries)]
				switch round % 3 {
				case 0:
					res, _, err := ix.AKNN(qc.q, qc.k, qc.alpha, LB)
					if err != nil {
						errCh <- err
						return
					}
					if len(res) != len(qc.wantAKNN) {
						errCh <- errMismatch("aknn count")
						return
					}
					for i := range res {
						if res[i].ID != qc.wantAKNN[i].ID || res[i].Dist != qc.wantAKNN[i].Dist {
							errCh <- errMismatch("aknn result")
							return
						}
					}
				case 1:
					ranged, _, err := ix.RKNN(qc.q, qc.k, 0.3, 0.7, RSSICR)
					if err != nil {
						errCh <- err
						return
					}
					if len(ranged) != len(qc.wantRKNN) {
						errCh <- errMismatch("rknn count")
						return
					}
					for i := range ranged {
						if ranged[i].ID != qc.wantRKNN[i].ID ||
							!ranged[i].Qualifying.Equal(qc.wantRKNN[i].Qualifying) {
							errCh <- errMismatch("rknn range")
							return
						}
					}
				default:
					rg, _, err := ix.RangeSearch(qc.q, qc.alpha, 2.0)
					if err != nil {
						errCh <- err
						return
					}
					if len(rg) != len(qc.wantRange) {
						errCh <- errMismatch("range count")
						return
					}
					for i := range rg {
						if rg[i].ID != qc.wantRange[i].ID || rg[i].Dist != qc.wantRange[i].Dist {
							errCh <- errMismatch("range result")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type queryCase struct {
	q         *fuzzy.Object
	k         int
	alpha     float64
	wantAKNN  []Result
	wantRKNN  []RangedResult
	wantRange []Result
}

// TestConcurrentLazyProbeVariants exercises the read path the basic test
// does not: LBLPUB (whose upper bound samples the query's α-cut via
// SampleCut) plus Refine, concurrently against one shared index. Both must
// be pure reads — any hidden memoization would trip -race here.
func TestConcurrentLazyProbeVariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(402, 1))
	objs := makeObjects(rng, 80, 12, 12, 8)
	ix := buildIndex(t, objs, Options{})
	queries := make([]*fuzzy.Object, 8)
	for i := range queries {
		queries[i] = makeQuery(rng, 12, 12, 8)
	}
	type refAnswer struct {
		lazy    []Result
		refined []Result
	}
	want := make([]refAnswer, len(queries))
	for i, q := range queries {
		lazy, _, err := ix.AKNN(q, 4, 0.5, LBLPUB)
		if err != nil {
			t.Fatal(err)
		}
		refined, _, err := ix.Refine(q, 0.5, lazy)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = refAnswer{lazy: lazy, refined: refined}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (worker + round) % len(queries)
				lazy, _, err := ix.AKNN(queries[i], 4, 0.5, LBLPUB)
				if err != nil {
					errCh <- err
					return
				}
				refined, _, err := ix.Refine(queries[i], 0.5, lazy)
				if err != nil {
					errCh <- err
					return
				}
				if len(lazy) != len(want[i].lazy) || len(refined) != len(want[i].refined) {
					errCh <- errMismatch("result count")
					return
				}
				for j := range lazy {
					if lazy[j] != want[i].lazy[j] {
						errCh <- errMismatch("lazy result")
						return
					}
				}
				for j := range refined {
					if refined[j] != want[i].refined[j] {
						errCh <- errMismatch("refined result")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type errMismatch string

func (e errMismatch) Error() string { return "concurrent result mismatch: " + string(e) }
