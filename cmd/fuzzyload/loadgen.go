package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is what the generator keeps of one request. Times are offsets
// from the phase start.
type sample struct {
	due, sent, done time.Duration
	free            time.Duration // when a connection was free to take the request
	status          int           // 0 = transport error
	body            []byte
	deleted         uint64 // id a delete was bound to
}

// latency is measured from the instant the request was due, so time spent
// waiting for a free connection behind a stalled server is charged to it.
func (s *sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator itself was: the request left this long
// after it was both due and had a connection to leave on. Waiting for a
// connection is the server's doing and is in latency, not here.
func (s *sample) lag() time.Duration { return s.sent - max(s.due, s.free) }

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

// ackQueue holds the ids the stream may delete: acknowledged inserts,
// oldest first.
type ackQueue struct {
	mu  sync.Mutex
	ids []uint64
}

func (q *ackQueue) push(id uint64) {
	q.mu.Lock()
	q.ids = append(q.ids, id)
	q.mu.Unlock()
}

func (q *ackQueue) pop() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ids) == 0 {
		return 0, false
	}
	id := q.ids[0]
	q.ids = q.ids[1:]
	return id, true
}

// generator sends request streams to one server over a fixed number of
// keep-alive connections, one in-flight request per connection.
type generator struct {
	client *http.Client
	url    string
	acks   *ackQueue
}

func newGenerator(url string, acks *ackQueue) *generator {
	tr := &http.Transport{
		MaxIdleConnsPerHost: connections,
		MaxConnsPerHost:     connections,
		DisableCompression:  true,
	}
	return &generator{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url, acks: acks}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// send performs one request and fills in status, body and the write-side
// bookkeeping. It never returns an error: failures are samples too.
func (g *generator) send(r *request, s *sample) {
	path := r.path
	if r.kind == kDelete {
		id, ok := g.acks.pop()
		if !ok {
			return // nothing acknowledged to delete: counted as failed
		}
		s.deleted = id
		path = "/objects/" + strconv.FormatUint(id, 10)
	}
	req, err := http.NewRequest(r.method, g.url+path, bytes.NewReader(r.body))
	if err != nil {
		return
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	s.status, s.body = resp.StatusCode, body
	if r.kind == kInsert && s.ok() {
		g.acks.push(r.obj.ID())
	}
}

// closedLoop has every connection send its next request as soon as the
// previous one completes, until the stream or the time is used up (or ctx
// is cancelled; the caller then discards the phase).
func (g *generator) closedLoop(ctx context.Context, stream []request, limit time.Duration) ([]sample, time.Duration) {
	samples := make([]sample, len(stream))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) || ctx.Err() != nil || (limit > 0 && time.Since(start) >= limit) {
					return
				}
				s := &samples[i]
				s.due = time.Since(start)
				s.sent = s.due
				g.send(&stream[i], s)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := min(int(next.Load()), len(stream))
	for n > 0 && samples[n-1].done == 0 {
		n-- // indexes claimed after the time ran out were never sent
	}
	return samples[:n], elapsed
}

// openLoop sends request i at start + i/rate whether or not earlier ones
// have completed, over at most `connections` connections. A request whose
// turn comes while every connection is busy goes out late, and that wait
// is part of its latency.
func (g *generator) openLoop(ctx context.Context, stream []request, rate float64) ([]sample, time.Duration) {
	samples := make([]sample, len(stream))
	interval := float64(time.Second) / rate
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) || ctx.Err() != nil {
					return
				}
				s := &samples[i]
				s.free = time.Since(start)
				s.due = time.Duration(float64(i) * interval)
				if wait := s.due - time.Since(start); wait > 0 {
					sleepPrecisely(wait)
				}
				s.sent = time.Since(start)
				g.send(&stream[i], s)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// sleepPrecisely blocks for d in nanosleep(2). time.Sleep parks the
// goroutine on the runtime's timers, which an idle process services from
// epoll_wait with a millisecond timeout: wake-ups come up to 1 ms late,
// which at these rates is most of a request. The kernel timer is good to
// tens of microseconds.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		err := syscall.Nanosleep(&ts, &ts) // on EINTR ts holds what is left
		if err != syscall.EINTR {
			return
		}
	}
}

// recorder collects durations and answers percentile questions exactly:
// the q-quantile is the smallest recorded value with at least q of the
// samples at or below it (nearest rank).
type recorder struct {
	v      []time.Duration
	sorted bool
}

func (r *recorder) add(d time.Duration) {
	r.v = append(r.v, d)
	r.sorted = false
}

func (r *recorder) count() int { return len(r.v) }

func (r *recorder) quantile(q float64) time.Duration {
	if len(r.v) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.v, func(i, j int) bool { return r.v[i] < r.v[j] })
		r.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(r.v))))
	return r.v[max(rank, 1)-1]
}

func (r *recorder) ms(q float64) float64 { return float64(r.quantile(q)) / float64(time.Millisecond) }
func (r *recorder) us(q float64) float64 { return float64(r.quantile(q)) / float64(time.Microsecond) }

// windowQuantiles splits the phase into `windows` equal spans of due time
// and returns the q-quantile of the kept samples' latency in each.
func windowQuantiles(samples []sample, keep func(int) bool, span time.Duration, windows int, q float64) []time.Duration {
	recs := make([]recorder, windows)
	for i := range samples {
		if keep(i) {
			w := int(int64(samples[i].due) * int64(windows) / int64(span))
			recs[min(max(w, 0), windows-1)].add(samples[i].latency())
		}
	}
	var out []time.Duration
	for i := range recs {
		if recs[i].count() > 0 {
			out = append(out, recs[i].quantile(q))
		}
	}
	return out
}

// windowRates counts the kept samples completed in each of `windows` equal
// spans of the phase, as completions per second.
func windowRates(samples []sample, keep func(int) bool, span time.Duration, windows int) []float64 {
	out := make([]float64, windows)
	for i := range samples {
		if keep(i) {
			w := int(int64(samples[i].done) * int64(windows) / int64(span))
			out[min(max(w, 0), windows-1)]++
		}
	}
	for i := range out {
		out[i] /= span.Seconds() / float64(windows)
	}
	return out
}

func describe(name string, r *recorder) string {
	return fmt.Sprintf("%s n=%d p50=%.3fms p99=%.3fms max=%.3fms", name, r.count(), r.ms(0.5), r.ms(0.99), r.ms(1))
}
