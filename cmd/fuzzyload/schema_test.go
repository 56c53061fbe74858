package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// toyScale runs the real code paths on 300 objects with 1-second phases.
var toyScale = scale{n: 300, setups: 1, warmupReqs: 40, traceReqs: 40, oracleSamples: 100, probeObjs: 200}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// Every name in BENCHMARK.json must be emitted exactly once per workload
// with a finite value and its unit, and nothing unlisted may appear: the
// driver refuses a result whose metrics differ from the file's.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fuzzyserve eight times")
	}
	var bench benchmarkJSON
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "fuzzyserve")
	if out, err := exec.Command("go", "build", "-o", bin, "fuzzyknn/cmd/fuzzyserve").CombinedOutput(); err != nil {
		t.Fatalf("building fuzzyserve: %v\n%s", err, out)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bench.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, bw := range bench.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range bench.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bench.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var log bytes.Buffer
			outDir := t.TempDir()
			res, err := run(context.Background(), runConfig{
				w: w, seed: 1, seconds: 1, trace: trace, sc: toyScale,
				serveBin: bin, outDir: outDir, log: &log,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, got.Value)
				}
				if n := strings.Count(log.String(), "metric "+name+" "); n != 1 {
					t.Errorf("%s trace=%v: %s printed %d times", w.name, trace, name, n)
				}
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace.json")); trace && err != nil {
				t.Errorf("%s: traced run wrote no trace.json: %v", w.name, err)
			}
			if left, _ := filepath.Glob(filepath.Join(outDir, "*data*")); len(left) > 0 {
				t.Errorf("%s trace=%v: data files left behind: %v", w.name, trace, left)
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: unlisted metric %s", w.name, trace, name)
				}
				if !nameOK.MatchString(name) {
					t.Errorf("metric name %q breaks the naming rule", name)
				}
			}
		}
	}
}

func TestCompareFlagsABreach(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		entries := []suiteEntry{{Workload: "aknn_inline_mem", Seed: 1, Result: result{
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"aknn_p50_ms": {p50, "ms"}, "throughput_rps": {1000, "1/s"}},
		}}}
		if err := os.WriteFile(path, mustJSON(entries), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1.0, 0)
	args := func(b string) []string { return []string{"--benchmark", "../../BENCHMARK.json", a, b} }
	if code := compareMain(args(write("same.json", 1.02, 0))); code != 0 {
		t.Errorf("2%% worse: exit %d, want 0", code)
	}
	if code := compareMain(args(write("slow.json", 2.0, 0))); code != 1 {
		t.Errorf("100%% worse: exit %d, want 1", code)
	}
	if code := compareMain(args(write("fast.json", 0.5, 0))); code != 0 {
		t.Errorf("faster: exit %d, want 0", code)
	}
	if code := compareMain(args(write("wrong.json", 1.0, 3))); code != 1 {
		t.Errorf("new failures: exit %d, want 1", code)
	}
}
