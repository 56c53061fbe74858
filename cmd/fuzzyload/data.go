package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/server"
)

// data is the harness's own copy of everything the server is given: the
// base objects (ids 1..n), the inline query objects and the pool of fresh
// objects the ingest stream inserts. The oracle works on this copy only.
type data struct {
	params  dataset.Params
	base    []*fuzzy.Object
	queries []*fuzzy.Object
	fresh   []*fuzzy.Object
	byID    map[uint64]*fuzzy.Object
}

// freshBase is the first query index used for the insert pool, far above
// the inline query objects so the two never share an id.
const freshBase = 1 << 20

// generateData builds the §6.1 synthetic dataset for one workload from the
// seed. fresh is how many insertable objects the ingest stream may need.
func generateData(w *workload, n int, seed uint64, fresh int) (*data, error) {
	p := dataset.Default(dataset.Synthetic)
	p.N = n
	p.PointsPerObject = pointsPerObject
	p.Space = space(n)
	p.Seed = seed
	base, err := dataset.Generate(p)
	if err != nil {
		return nil, err
	}
	d := &data{params: p, base: base, byID: make(map[uint64]*fuzzy.Object, n+fresh)}
	for _, o := range base {
		d.byID[o.ID()] = o
	}
	if w.inline {
		d.queries = make([]*fuzzy.Object, inlineQueries)
		for i := range d.queries {
			if d.queries[i], err = dataset.GenerateQuery(p, i); err != nil {
				return nil, err
			}
		}
	}
	d.fresh = make([]*fuzzy.Object, fresh)
	for i := range d.fresh {
		if d.fresh[i], err = dataset.GenerateQuery(p, freshBase+i); err != nil {
			return nil, err
		}
		d.byID[d.fresh[i].ID()] = d.fresh[i]
	}
	return d, nil
}

// digest hashes every generated object bit for bit, so two runs can show
// they measured the same inputs.
func (d *data) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, set := range [][]*fuzzy.Object{d.base, d.queries, d.fresh} {
		for _, o := range set {
			put(o.ID())
			for i := 0; i < o.Len(); i++ {
				p, mu := o.At(i)
				for _, c := range p {
					put(math.Float64bits(c))
				}
				put(math.Float64bits(mu))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func objectJSON(o *fuzzy.Object) *server.ObjectJSON {
	oj := &server.ObjectJSON{ID: o.ID(), Points: make([]server.PointJSON, o.Len())}
	for i := range oj.Points {
		p, mu := o.At(i)
		oj.Points[i] = server.PointJSON{P: p, Mu: mu}
	}
	return oj
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types of plain numbers and strings cannot fail
	}
	return b
}

// loadBodies encodes the bulk-load requests (groups of loadGroup objects)
// ahead of time, so set-up times the server and not the client's encoder.
func (d *data) loadBodies() [][]byte {
	var out [][]byte
	for lo := 0; lo < len(d.base); lo += loadGroup {
		hi := min(lo+loadGroup, len(d.base))
		req := server.BatchMutateRequest{Objects: make([]*server.ObjectJSON, 0, hi-lo)}
		for _, o := range d.base[lo:hi] {
			req.Objects = append(req.Objects, objectJSON(o))
		}
		out = append(out, mustJSON(req))
	}
	return out
}

// request is one element of a traffic stream: the bytes to send plus the
// parameters the oracle needs to judge the answer.
type request struct {
	kind   kind
	method string
	path   string
	body   []byte
	query  *fuzzy.Object // query object (inline or the base object named by id)
	k      int
	obj    *fuzzy.Object // insert payload
	// Delete targets are bound when the request is sent, to the oldest
	// acknowledged insert, so a delete can never overtake its insert.
}

// Stream phases. Each draws from its own generator and its own slice of
// the insert pool, so the paced stream does not depend on how far the
// closed-loop phases got.
const (
	phaseWarmup = iota
	phaseSaturate
	phasePaced
	phaseTraceHTTP
	phaseTraceServe
	phaseTraceEngine
	phaseTraceIndex
	phaseTracePlain
	numPhases
)

// genStream draws count requests of the workload's mix; inserts take their
// objects from pool in order. The same (workload, data, seed, phase, count)
// gives byte-identical requests.
func genStream(w *workload, d *data, seed uint64, phase, count int, pool []*fuzzy.Object) []request {
	rng := rand.New(rand.NewPCG(seed, 0x57E4A000+uint64(phase)))
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	queryIDs := len(d.base)
	if w.restart {
		queryIDs -= deletable
	}
	bodies := make(map[int][]byte) // inline bodies, encoded once per query object
	out := make([]request, count)
	nextInsert, writes := 0, 0
	for i := range out {
		pick := rng.IntN(total)
		k := w.mix[0].kind
		for _, m := range w.mix {
			if pick < m.weight {
				k = m.kind
				break
			}
			pick -= m.weight
		}
		// Query parameters are drawn for every request so the sequence of
		// draws does not depend on the kind chosen.
		qi := rng.IntN(inlineQueries)
		qid := uint64(rng.IntN(queryIDs) + 1)
		r := request{kind: k, method: "POST"}
		idField := &qid
		if k <= kRange {
			r.query = d.byID[qid]
			if w.inline {
				r.query, idField = d.queries[qi], nil
			}
		}
		switch k {
		case kAKNN:
			r.path, r.k = "/aknn", w.aknnK
			if !w.inline {
				r.body = mustJSON(server.AKNNRequest{QueryID: idField, K: r.k, Alpha: aknnAlpha})
				break
			}
			if bodies[qi] == nil {
				inline := objectJSON(r.query)
				inline.ID = 0
				bodies[qi] = mustJSON(server.AKNNRequest{Query: inline, K: r.k, Alpha: aknnAlpha})
			}
			r.body = bodies[qi]
		case kRKNN:
			r.path, r.k = "/rknn", rknnK
			r.body = mustJSON(server.RKNNRequest{QueryID: idField, K: r.k, AlphaStart: rknnStart, AlphaEnd: rknnEnd})
		case kRange:
			r.path = "/range"
			r.body = mustJSON(server.RangeRequest{QueryID: idField, Alpha: rangeAlpha, Radius: rangeRadius})
		case kInsert:
			// Writes alternate insert, delete, insert, … so the live count
			// stays within one of where it started.
			switch {
			case writes%2 == 1:
				r.kind, r.method = kDelete, "DELETE"
				writes++
			case nextInsert < len(pool):
				r.path, r.obj = "/objects", pool[nextInsert]
				r.body = mustJSON(server.InsertRequest{Object: objectJSON(r.obj)})
				nextInsert++
				writes++
			default: // pool spent: keep the stream going with a read
				r.kind, r.path, r.k, r.query = kAKNN, "/aknn", w.aknnK, d.byID[qid]
				r.body = mustJSON(server.AKNNRequest{QueryID: &qid, K: r.k, Alpha: aknnAlpha})
			}
		}
		out[i] = r
	}
	return out
}

// streamDigest hashes what a stream sends, for the determinism test.
func streamDigest(rs []request) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s %s %d\n", r.method, r.path, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
