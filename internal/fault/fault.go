// Package fault implements deterministic failpoint injection.
//
// A failpoint is a named Point compiled into production code at a place
// where the real world can fail: a write, an fsync, a rename, a network
// fetch. Disabled — the permanent state outside tests and chaos runs — a
// point costs exactly one atomic pointer load. Armed, it fires according
// to a deterministic trigger (the Nth call, every Kth call, or a seeded
// per-call probability) and performs one of four actions:
//
//	error  — the operation does nothing and returns an injected error
//	short  — a write persists only a prefix of its bytes, then errors
//	torn   — a write persists all bytes with a corrupted tail, then errors
//	stall  — the operation sleeps, then proceeds normally
//
// Points are registered lazily by name via P. Tests arm them with Enable
// (which returns a disarm func for defer) and sweep them with List/Reset.
// Smoke scripts arm them without code changes through the
// FUZZYKNN_FAILPOINTS environment variable, parsed at process init:
//
//	FUZZYKNN_FAILPOINTS="store.log.sync=error:nth=3;replica.fetch=torn:every=5"
//
// All triggers are deterministic given their spec (the probability trigger
// uses a splitmix64 stream from its seed), so a chaos run with a fixed
// spec reproduces byte-identical fault schedules.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by fired failpoints. Tests
// that need a specific errno (ENOSPC, EIO) set Spec.Err instead.
var ErrInjected = errors.New("fault: injected error")

// Action selects what a fired point does to its operation.
type Action uint8

const (
	// ActError fails the operation without side effects.
	ActError Action = iota
	// ActShort persists a strict prefix of the bytes, then errors.
	ActShort
	// ActTorn persists every byte but corrupts the tail, then errors.
	ActTorn
	// ActStall delays the operation, then lets it proceed normally.
	ActStall
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActShort:
		return "short"
	case ActTorn:
		return "torn"
	case ActStall:
		return "stall"
	}
	return fmt.Sprintf("action(%d)", a)
}

// Spec describes when an armed point fires and what it does. Exactly one
// trigger should be set; when none is, the point fires on every call.
type Spec struct {
	Action Action

	// Nth fires on the Nth call only (1-based), once.
	Nth uint64
	// Every fires on every Every-th call (call numbers K, 2K, 3K, ...).
	Every uint64
	// Prob fires each call with probability Prob, drawn from a
	// deterministic splitmix64 stream seeded by Seed.
	Prob float64
	// Seed seeds the probability stream. Zero is a valid seed.
	Seed uint64

	// Err overrides ErrInjected as the returned error (e.g. syscall.ENOSPC).
	Err error
	// Stall is how long ActStall sleeps. Defaults to 10ms.
	Stall time.Duration
	// Until, when set, replaces ActStall's sleep: the stalled operation
	// waits for Until to return, on the goroutine that fired the point — a
	// handshake with whatever must happen while the operation is held.
	Until func()
}

func (s Spec) err() error {
	if s.Err != nil {
		return s.Err
	}
	return ErrInjected
}

// InjectedErr returns the error an armed spec injects (Err if set, else
// ErrInjected) — for seams that implement their own action handling
// instead of going through WrapFile or Point.Err.
func (s Spec) InjectedErr() error { return s.err() }

// Pause realizes ActStall: it runs Until when set, else sleeps Stall.
func (s Spec) Pause() {
	switch {
	case s.Until != nil:
		s.Until()
	case s.Stall > 0:
		time.Sleep(s.Stall)
	default:
		time.Sleep(10 * time.Millisecond)
	}
}

// armed is the hot-swapped per-point state. The calls counter lives here,
// not on the Point, so re-arming restarts the schedule from call one.
type armed struct {
	spec  Spec
	calls atomic.Uint64
	rng   atomic.Uint64 // splitmix64 state for the Prob trigger
}

// Point is a named injection site. The zero disabled state is the fast
// path: Eval is a single atomic load returning (Spec{}, false).
type Point struct {
	name  string
	armed atomic.Pointer[armed]
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Eval advances the point's call schedule and reports whether it fires on
// this call. Disabled points cost one atomic load.
func (p *Point) Eval() (Spec, bool) {
	a := p.armed.Load()
	if a == nil {
		return Spec{}, false
	}
	n := a.calls.Add(1)
	s := a.spec
	fire := false
	switch {
	case s.Nth > 0:
		fire = n == s.Nth
	case s.Every > 0:
		fire = n%s.Every == 0
	case s.Prob > 0:
		fire = a.nextFloat() < s.Prob
	default:
		fire = true
	}
	return s, fire
}

// Err is the convenience form for call sites with no bytes to corrupt
// (renames, directory syncs, lock acquisitions): stall sleeps and
// proceeds; every other action returns the injected error.
func (p *Point) Err() error {
	s, fire := p.Eval()
	if !fire {
		return nil
	}
	if s.Action == ActStall {
		s.Pause()
		return nil
	}
	return s.err()
}

// nextFloat draws the next [0,1) variate from the seeded stream.
func (a *armed) nextFloat() float64 {
	for {
		old := a.rng.Load()
		next := old + 0x9e3779b97f4a7c15
		if a.rng.CompareAndSwap(old, next) {
			return float64(mix64(next)>>11) / (1 << 53)
		}
	}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var (
	regMu  sync.Mutex
	points = map[string]*Point{}
)

// P returns the point registered under name, creating it disabled on
// first use. Call it once at setup (open/wrap time), not per operation.
func P(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	p, ok := points[name]
	if !ok {
		p = &Point{name: name}
		points[name] = p
		if spec, ok := envSpecs[name]; ok {
			p.arm(spec)
		}
	}
	return p
}

func (p *Point) arm(s Spec) {
	a := &armed{spec: s}
	a.rng.Store(s.Seed)
	p.armed.Store(a)
}

// Enable arms the named point with spec and returns a func that disarms
// it again — defer it for per-test scoping.
func Enable(name string, spec Spec) func() {
	p := P(name)
	p.arm(spec)
	return func() { p.armed.Store(nil) }
}

// Reset disarms every registered point. Call from test cleanup when a
// sweep arms points dynamically.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range points {
		p.armed.Store(nil)
	}
}

// List returns the names of all registered points, sorted. The torture
// sweep iterates this to prove every seam point has a recovery story.
func List() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EnvVar is the environment variable smoke scripts use to arm points.
const EnvVar = "FUZZYKNN_FAILPOINTS"

// envSpecs holds specs parsed from FUZZYKNN_FAILPOINTS; points arm
// themselves against it at registration. It is a variable initializer, not
// an init func, so it is ready before any package-level P call — this
// package's own included.
var envSpecs = func() map[string]Spec {
	specs, err := ParseEnv(os.Getenv(EnvVar))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault: ignoring malformed %s: %v\n", EnvVar, err)
		return nil
	}
	return specs
}()

// ParseEnv parses a semicolon-separated list of name=spec activations,
// e.g. "store.log.sync=error:nth=3;replica.fetch=torn:every=5".
func ParseEnv(v string) (map[string]Spec, error) {
	out := map[string]Spec{}
	for _, part := range strings.Split(v, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, specStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("missing '=' in %q", part)
		}
		spec, err := ParseSpec(specStr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[strings.TrimSpace(name)] = spec
	}
	return out, nil
}

// ParseSpec parses "action[:key=val[,key=val...]]" where action is one of
// error|short|torn|stall and keys are nth, every, prob, seed, and
// stallms. With no trigger key the point fires on every call.
func ParseSpec(s string) (Spec, error) {
	action, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	var spec Spec
	switch action {
	case "error":
		spec.Action = ActError
	case "short":
		spec.Action = ActShort
	case "torn":
		spec.Action = ActTorn
	case "stall":
		spec.Action = ActStall
	default:
		return Spec{}, fmt.Errorf("unknown action %q", action)
	}
	if rest == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("malformed option %q", kv)
		}
		switch k {
		case "nth":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return Spec{}, fmt.Errorf("bad nth %q", v)
			}
			spec.Nth = n
		case "every":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return Spec{}, fmt.Errorf("bad every %q", v)
			}
			spec.Every = n
		case "prob":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1 {
				return Spec{}, fmt.Errorf("bad prob %q", v)
			}
			spec.Prob = f
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("bad seed %q", v)
			}
			spec.Seed = n
		case "stallms":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return Spec{}, fmt.Errorf("bad stallms %q", v)
			}
			spec.Stall = time.Duration(n) * time.Millisecond
		default:
			return Spec{}, fmt.Errorf("unknown option %q", k)
		}
	}
	return spec, nil
}
