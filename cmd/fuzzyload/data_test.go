package main

import "testing"

func streamsOf(t *testing.T, w *workload, seed uint64) (string, []string) {
	t.Helper()
	d, err := generateData(w, 200, seed, 64)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for phase := 0; phase < 3; phase++ {
		digests = append(digests, streamDigest(genStream(w, d, seed, phase, 300, d.fresh[phase*16:(phase+1)*16])))
	}
	return d.digest(), digests
}

// The same seed must give byte-identical inputs, another seed other ones:
// that is what lets two commits be measured on the same requests.
func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		data1, streams1 := streamsOf(t, w, 7)
		data2, streams2 := streamsOf(t, w, 7)
		data3, streams3 := streamsOf(t, w, 8)
		if data1 != data2 {
			t.Errorf("%s: same seed, different dataset digest", w.name)
		}
		if data1 == data3 {
			t.Errorf("%s: different seeds, same dataset digest", w.name)
		}
		for p := range streams1 {
			if streams1[p] != streams2[p] {
				t.Errorf("%s phase %d: same seed, different stream", w.name, p)
			}
			if streams1[p] == streams3[p] {
				t.Errorf("%s phase %d: different seeds, same stream", w.name, p)
			}
			if p > 0 && streams1[p] == streams1[0] {
				t.Errorf("%s: phases %d and 0 share a stream", w.name, p)
			}
		}
	}
}

// The ingest stream alternates inserts and deletes and never inserts an
// object twice, so the population stays within one object of its start.
func TestIngestStreamBalanced(t *testing.T) {
	w, err := findWorkload("ingest_query_log")
	if err != nil {
		t.Fatal(err)
	}
	d, err := generateData(w, 200, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	live, seen := 0, map[uint64]bool{}
	counts := map[kind]int{}
	for _, r := range genStream(w, d, 3, phasePaced, 1000, d.fresh) {
		counts[r.kind]++
		switch r.kind {
		case kInsert:
			if seen[r.obj.ID()] {
				t.Fatalf("object %d inserted twice", r.obj.ID())
			}
			seen[r.obj.ID()] = true
			live++
		case kDelete:
			live--
		}
		if live < 0 || live > 1 {
			t.Fatalf("population drifted by %d", live)
		}
	}
	if counts[kInsert] < 60 || counts[kAKNN] < 700 {
		t.Errorf("mix off: %v", counts)
	}
}
