package main

import (
	"context"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls must be charged for every request that was due while
// it stalled, not only for the ones that happened to be in flight: the
// open loop times each request from its due time (no coordinated omission).
func TestOpenLoopChargesStallToRequestsDueDuringIt(t *testing.T) {
	const (
		rate      = 200.0
		stallAt   = 20 // request that stalls
		stall     = 200 * time.Millisecond
		total     = 100
		interval  = time.Second / rate
		tolerance = 25 * time.Millisecond
	)
	// The whole server stalls: from the moment request stallAt arrives,
	// nothing is answered for 200 ms, on either connection.
	var served, stallUntil atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			stallUntil.Store(time.Now().Add(stall).UnixNano())
		}
		if wait := time.Until(time.Unix(0, stallUntil.Load())); wait > 0 {
			time.Sleep(wait)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	stream := make([]request, total)
	for i := range stream {
		stream[i] = request{kind: kAKNN, method: "POST", path: "/aknn", body: []byte("{}")}
	}
	g := newGenerator(ts.URL, &ackQueue{})
	defer g.close()
	samples, _ := g.openLoop(context.Background(), stream, rate)

	stallStart := samples[stallAt].sent
	stallEnd := stallStart + stall
	charged := 0
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			t.Fatalf("request %d failed", i)
		}
		if s.due != time.Duration(i)*interval {
			t.Fatalf("request %d due at %v, want %v", i, s.due, time.Duration(i)*interval)
		}
		if s.due > stallStart && s.due < stallEnd {
			charged++
			if want := stallEnd - s.due; s.latency() < want-tolerance {
				t.Errorf("request %d was due %v into the stall but is charged only %v (want >= %v)",
					i, s.due-stallStart, s.latency(), want)
			}
			if s.lag() > tolerance {
				t.Errorf("request %d: generator lag %v, but the wait was the server's", i, s.lag())
			}
		}
	}
	if want := int(stall / interval); charged < want-2 {
		t.Errorf("%d requests fell into the stall, want about %d", charged, want)
	}
	// Long after the stall the backlog has drained and latency is small again.
	if last := samples[total-1].latency(); last > stall/2 {
		t.Errorf("last request still slow: %v", last)
	}
}

func TestRecorderMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 10, 99, 100, 101, 1000, 4321} {
		var r recorder
		vals := make([]time.Duration, n)
		for i := range vals {
			vals[i] = time.Duration(rng.Int64N(1e9))
			r.add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.001, 0.5, 0.9, 0.99, 0.999, 1} {
			// Oracle: the smallest value with at least q·n samples at or below it.
			want := vals[0]
			for i, v := range vals {
				if float64(i+1) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := r.quantile(q); got != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
	var empty recorder
	if empty.quantile(0.5) != 0 {
		t.Error("empty recorder should answer 0")
	}
}
