package oracle

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Window holds reads made beside writes to the committed-prefix contract.
// Each layout under check counts its commits on a clock, and a read is
// sighted as the commits its layout had finished when it began (lo) and
// those begun when it ended (hi). Its answer must equal the reference after
// some prefix of the history in [lo, hi]: a read can neither see a
// population no commit produced nor miss a commit finished before it began.
type Window struct {
	layouts []string
	reads   []Read
	want    func(read, ops int) string
	clocks  []clock
	wants   map[wantKey]string
}

// Read names one read of a window. Reads with one Key share their reference
// answer; an empty Key is the Name.
type Read struct{ Name, Key string }

type wantKey struct {
	key string
	ops int
}

// clock counts one layout's mutation calls: begun and done count the calls
// begun and finished, and prefix[c] is how many ops of the history the
// first c calls landed.
type clock struct {
	begun, done atomic.Int64
	prefix      []int
}

// Skip, answered by a Race's run, says that a layout does not take a read:
// the pair is passed over.
var Skip = errors.New("oracle: read skipped")

// Sighting is one read as it ran.
type Sighting struct {
	Layout, Read int
	Lo, Hi       int64
	Got          string
	Err          error
}

// NewWindow opens a window over the named layouts and reads; want is the
// reference answer of a read over the population after some ops of the
// history, asked once per key and prefix.
func NewWindow(layouts []string, reads []Read, want func(read, ops int) string) *Window {
	w := &Window{layouts: layouts, reads: reads, want: want, clocks: make([]clock, len(layouts)), wants: map[wantKey]string{}}
	for i := range w.clocks {
		w.clocks[i].prefix = []int{0}
	}
	return w
}

// Commit runs call, one mutation call on a layout that lands ops ops of the
// history, as one commit on the layout's clock. On a nil window it only
// runs call.
func (w *Window) Commit(layout, ops int, call func() error) error {
	if w == nil {
		return call()
	}
	c := &w.clocks[layout]
	c.begun.Add(1)
	err := call()
	c.prefix = append(c.prefix, c.prefix[len(c.prefix)-1]+ops)
	c.done.Add(1)
	return err
}

// Race runs write while readers goroutines run every read on every layout
// through run (which may answer Skip), each reader at least one pass over
// every (layout, read) pair. write starts once every reader has finished
// its first pass, so every pair is read before the first commit, and the
// readers go on reading until write returns. Afterwards every answer is
// matched, and Race returns a line for the test log: how many reads ran,
// how many of them beside a commit, over how many ops.
func (w *Window) Race(readers int, run func(layout, read int) (string, error), write func()) (string, error) {
	pass := len(w.layouts) * len(w.reads)
	seen := make([][]Sighting, readers)
	var reading, wg sync.WaitGroup
	var written atomic.Bool
	reading.Add(readers)
	wg.Add(readers)
	for g := range readers {
		go func() {
			defer wg.Done()
			for i := 0; i < pass || !written.Load(); i++ {
				j := g*pass/readers + i
				li, ri := j%len(w.layouts), j/len(w.layouts)%len(w.reads)
				c := &w.clocks[li]
				lo := c.done.Load()
				got, err := run(li, ri)
				if err != Skip {
					seen[g] = append(seen[g], Sighting{li, ri, lo, c.begun.Load(), got, err})
				}
				if i == pass-1 {
					reading.Done()
				}
			}
		}()
	}
	// stop ends the readers, also when write fails its test.
	stop := func() {
		written.Store(true)
		wg.Wait()
	}
	defer stop()
	reading.Wait()
	write()
	stop()
	reads, beside := 0, 0
	for _, ss := range seen {
		for _, s := range ss {
			if err := w.Match(s); err != nil {
				return "", err
			}
			reads++
			if s.Lo < s.Hi {
				beside++
			}
		}
	}
	p := w.clocks[0].prefix
	return fmt.Sprintf("%d reads, %d of them beside a commit, over %d ops", reads, beside, p[len(p)-1]), nil
}

// Match accepts s when its answer equals the reference after some prefix in
// [Lo, Hi]; otherwise its error prints every candidate.
func (w *Window) Match(s Sighting) error {
	rd, c := w.reads[s.Read], &w.clocks[s.Layout]
	at := w.layouts[s.Layout] + ": " + rd.Name
	if s.Err != nil {
		return fmt.Errorf("%s: %w", at, s.Err)
	}
	var cands []string
	for k := s.Lo; k <= s.Hi; k++ {
		key := wantKey{cmp.Or(rd.Key, rd.Name), c.prefix[k]}
		want, ok := w.wants[key]
		if !ok {
			want = w.want(s.Read, key.ops)
			w.wants[key] = want
		}
		if s.Got == want {
			return nil
		}
		cands = append(cands, fmt.Sprintf("  after %d commits (%d ops): %s", k, key.ops, want))
	}
	return fmt.Errorf("%s, read between %d and %d commits, answers\n  %s\nno prefix in that window answers that:\n%s",
		at, s.Lo, s.Hi, s.Got, strings.Join(cands, "\n"))
}
