package fault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestDisabledPointDoesNotFire(t *testing.T) {
	p := P("test.disabled")
	for i := 0; i < 1000; i++ {
		if _, fire := p.Eval(); fire {
			t.Fatal("disabled point fired")
		}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("disabled Err: %v", err)
	}
}

func TestNthTrigger(t *testing.T) {
	defer Enable("test.nth", Spec{Action: ActError, Nth: 3})()
	p := P("test.nth")
	var fired []int
	for i := 1; i <= 6; i++ {
		if _, fire := p.Eval(); fire {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("nth=3 fired at %v, want [3]", fired)
	}
}

func TestEveryTrigger(t *testing.T) {
	defer Enable("test.every", Spec{Action: ActError, Every: 2})()
	p := P("test.every")
	var fired []int
	for i := 1; i <= 6; i++ {
		if _, fire := p.Eval(); fire {
			fired = append(fired, i)
		}
	}
	want := []int{2, 4, 6}
	if len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("every=2 fired at %v, want %v", fired, want)
	}
}

func TestProbTriggerDeterministic(t *testing.T) {
	run := func() []bool {
		done := Enable("test.prob", Spec{Action: ActError, Prob: 0.5, Seed: 42})
		defer done()
		p := P("test.prob")
		out := make([]bool, 64)
		for i := range out {
			_, out[i] = p.Eval()
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times — not probabilistic", fires, len(a))
	}
}

func TestReArmRestartsSchedule(t *testing.T) {
	name := "test.rearm"
	done := Enable(name, Spec{Action: ActError, Nth: 1})
	p := P(name)
	if _, fire := p.Eval(); !fire {
		t.Fatal("nth=1 did not fire on first call")
	}
	done()
	defer Enable(name, Spec{Action: ActError, Nth: 1})()
	if _, fire := p.Eval(); !fire {
		t.Fatal("re-armed nth=1 did not restart its schedule")
	}
}

func TestCustomError(t *testing.T) {
	sentinel := errors.New("enospc-ish")
	defer Enable("test.err", Spec{Action: ActError, Err: sentinel})()
	if err := P("test.err").Err(); !errors.Is(err, sentinel) {
		t.Fatalf("Err() = %v, want %v", err, sentinel)
	}
}

func TestStallProceeds(t *testing.T) {
	defer Enable("test.stall", Spec{Action: ActStall, Stall: time.Millisecond})()
	start := time.Now()
	if err := P("test.stall").Err(); err != nil {
		t.Fatalf("stall returned error: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("stall did not sleep")
	}
}

// TestStallUntil: a stall with Until holds the operation until Until
// returns, on the goroutine that fired the point, and then lets it proceed
// — a write that sees what Until did before it.
func TestStallUntil(t *testing.T) {
	f := WrapFile(openTemp(t), "test.until")
	var held []string
	defer Enable("test.until.write", Spec{Action: ActStall, Nth: 1, Stall: time.Hour, Until: func() { held = append(held, "until") }})()
	if n, err := f.Write([]byte("ab")); err != nil || n != 2 {
		t.Fatalf("stalled Write = (%d, %v), want (2, nil)", n, err)
	}
	held = append(held, "wrote")
	if _, err := f.Write([]byte("cd")); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(held) != "[until wrote]" {
		t.Fatalf("Until ran %v, want once, before the first write returned", held)
	}
}

func TestParseEnv(t *testing.T) {
	specs, err := ParseEnv("store.log.sync=error:nth=3; replica.fetch=torn:every=5,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if s := specs["store.log.sync"]; s.Action != ActError || s.Nth != 3 {
		t.Fatalf("store.log.sync = %+v", s)
	}
	if s := specs["replica.fetch"]; s.Action != ActTorn || s.Every != 5 || s.Seed != 9 {
		t.Fatalf("replica.fetch = %+v", s)
	}
	for _, bad := range []string{"x", "a=explode", "a=error:nth=0", "a=error:prob=2", "a=error:zz=1"} {
		if _, err := ParseEnv(bad); err == nil {
			t.Errorf("ParseEnv(%q) accepted", bad)
		}
	}
}

func TestEnvSpecArmsLateRegisteredPoint(t *testing.T) {
	envSpecs["test.envlate"] = Spec{Action: ActError, Nth: 1}
	defer delete(envSpecs, "test.envlate")
	p := P("test.envlate")
	defer p.armed.Store(nil)
	if _, fire := p.Eval(); !fire {
		t.Fatal("env-activated point did not fire")
	}
}

func openTemp(t *testing.T) File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestWrapFileActions(t *testing.T) {
	data := []byte("0123456789abcdef")

	t.Run("error-write", func(t *testing.T) {
		f := WrapFile(openTemp(t), "test.wf1")
		defer Enable("test.wf1.write", Spec{Action: ActError, Nth: 1})()
		if n, err := f.WriteAt(data, 0); err == nil || n != 0 {
			t.Fatalf("WriteAt = (%d, %v), want (0, injected)", n, err)
		}
		if fi, _ := f.Stat(); fi.Size() != 0 {
			t.Fatalf("error action persisted %d bytes", fi.Size())
		}
	})

	t.Run("short-write", func(t *testing.T) {
		f := WrapFile(openTemp(t), "test.wf2")
		defer Enable("test.wf2.write", Spec{Action: ActShort, Nth: 1})()
		n, err := f.WriteAt(data, 0)
		if err == nil {
			t.Fatal("short write returned nil error")
		}
		if n != len(data)/2 {
			t.Fatalf("short write persisted %d bytes, want %d", n, len(data)/2)
		}
		if fi, _ := f.Stat(); int(fi.Size()) != len(data)/2 {
			t.Fatalf("file holds %d bytes, want %d", fi.Size(), len(data)/2)
		}
	})

	t.Run("torn-write", func(t *testing.T) {
		f := WrapFile(openTemp(t), "test.wf3")
		defer Enable("test.wf3.write", Spec{Action: ActTorn, Nth: 1})()
		if _, err := f.WriteAt(data, 0); err == nil {
			t.Fatal("torn write returned nil error")
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if string(got[:len(data)/2]) != string(data[:len(data)/2]) {
			t.Fatal("torn write corrupted the prefix")
		}
		if string(got[len(data)/2:]) == string(data[len(data)/2:]) {
			t.Fatal("torn write did not corrupt the tail")
		}
	})

	t.Run("sync-error", func(t *testing.T) {
		f := WrapFile(openTemp(t), "test.wf4")
		defer Enable("test.wf4.sync", Spec{Action: ActError, Nth: 1})()
		if err := f.Sync(); err == nil {
			t.Fatal("sync failpoint did not fire")
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("nth=1 sync kept failing: %v", err)
		}
	})

	t.Run("torn-read", func(t *testing.T) {
		inner := openTemp(t)
		if _, err := inner.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f := WrapFile(inner, "test.wf5")
		defer Enable("test.wf5.read", Spec{Action: ActTorn, Nth: 1})()
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("torn read should succeed silently: %v", err)
		}
		if string(got) == string(data) {
			t.Fatal("torn read did not corrupt")
		}
	})
}

func TestListAndReset(t *testing.T) {
	Enable("test.sweep.a", Spec{Action: ActError})
	found := false
	for _, n := range List() {
		if n == "test.sweep.a" {
			found = true
		}
	}
	if !found {
		t.Fatal("List missing registered point")
	}
	Reset()
	if _, fire := P("test.sweep.a").Eval(); fire {
		t.Fatal("Reset left a point armed")
	}
}

// TestPublishRegimes walks the atomic publish through its three outcomes:
// success, a failure before the rename (clean abort: destination untouched,
// no temp left, committed=false) at every step that can fail there, and a
// failed directory fsync after the rename (committed=true with the error,
// new content in place).
func TestPublishRegimes(t *testing.T) {
	defer Reset()
	path := filepath.Join(t.TempDir(), "artifact")
	rename := P("test.publish.rename")
	publish := func(content string) (bool, error) {
		return Publish(path, "test.publish", rename, func(f File) error {
			_, err := f.Write([]byte(content))
			return err
		})
	}
	expect := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("destination holds %q (%v), want %q", got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}

	if committed, err := publish("v1"); !committed || err != nil {
		t.Fatalf("clean publish: committed=%v err=%v", committed, err)
	}
	expect("v1")

	for _, point := range []string{"test.publish.write", "test.publish.sync", "test.publish.rename"} {
		Enable(point, Spec{Action: ActError, Nth: 1})
		committed, err := publish("v2")
		Reset()
		if committed || !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: committed=%v err=%v, want a clean abort", point, committed, err)
		}
		expect("v1")
	}

	Enable("store.dirsync", Spec{Action: ActError, Nth: 1})
	committed, err := publish("v3")
	Reset()
	if !committed || !errors.Is(err, ErrInjected) {
		t.Fatalf("dirsync failure: committed=%v err=%v, want committed with the error", committed, err)
	}
	expect("v3")

	// A Temp is also usable piecemeal, published under another name; Abort
	// after a failed Commit is harmless.
	tmp, err := CreateTemp(path, "test.publish")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("v4")); err != nil {
		t.Fatal(err)
	}
	Enable("test.publish.rename", Spec{Action: ActError, Nth: 1})
	if committed, err := tmp.Commit(path+".g2", rename); committed || err == nil {
		t.Fatalf("commit behind a failed rename: committed=%v err=%v", committed, err)
	}
	tmp.Abort()
	expect("v3")
	if _, err := os.Stat(path + ".g2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted commit left its destination: %v", err)
	}
}
