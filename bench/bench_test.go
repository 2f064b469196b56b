package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark's children:
// the smoke test's parent re-executes this binary with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		layer  string
		class  string
	}{
		{
			name: "stdlib map code under a span frame is charged to span",
			frames: []string{
				"internal/runtime/maps.(*Map).getWithKey",
				"runtime.mapaccess2_fast64",
				"ecgrid/internal/protocols/span.(*Protocol).handleHello",
				"ecgrid/internal/radio.(*Channel).endTransmission",
				"ecgrid/internal/sim.(*Engine).Run",
				"ecgrid/internal/runner.Run",
				"main.main",
				"runtime.main",
			},
			layer: "span", class: classMaps,
		},
		{
			name:   "GC worker with no repository frame",
			frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"},
			layer:  layerRuntime, class: classGC,
		},
		{
			name:   "GC assist inside a layer stays with the layer",
			frames: []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "ecgrid/internal/core.(*Protocol).sendHello"},
			layer:  "core", class: classGC,
		},
		{
			name:   "nested protocols/gaf closure",
			frames: []string{"ecgrid/internal/protocols/gaf.(*Protocol).onDiscovery.func2", "ecgrid/internal/sim.(*Engine).step"},
			layer:  "gaf",
		},
		{
			name:   "generic receiver with a shape type argument",
			frames: []string{"ecgrid/internal/spatial.(*Index[go.shape.*uint8]).coord", "ecgrid/internal/radio.(*Channel).startTransmission"},
			layer:  "spatial",
		},
		{
			name:   "main root around a repository call",
			frames: []string{"runtime.mallocgc", "ecgrid/internal/store.(*Store).Get", "main.simdBody.func1", "main.main"},
			layer:  "store", class: classAlloc,
		},
		{
			name:   "main root with no repository frame is the benchmark",
			frames: []string{"runtime.mallocgc", "main.runSetups", "main.childMain", "main.main", "runtime.main"},
			layer:  layerBench, class: classAlloc,
		},
		{
			name:   "testing root with no repository frame is the benchmark",
			frames: []string{"ecgrid/bench.median", "testing.tRunner", "runtime.goexit"},
			layer:  layerBench,
		},
		{
			name:   "testing root around a repository call",
			frames: []string{"ecgrid/internal/radio.(*Channel).admitReception", "ecgrid/bench.toyBody", "testing.tRunner"},
			layer:  "radio",
		},
		{
			name:   "repository package without its own layer",
			frames: []string{"ecgrid/internal/geom.Point.Dist", "ecgrid/internal/runner.Run"},
			layer:  layerOther,
		},
		{
			name:   "empty stack",
			frames: nil,
			layer:  layerRuntime,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := layerOf(c.frames); got != c.layer {
				t.Errorf("layerOf = %q, want %q", got, c.layer)
			}
			if got := runtimeClass(c.frames); got != c.class {
				t.Errorf("runtimeClass = %q, want %q", got, c.class)
			}
		})
	}
}

func TestRuntimeMapsIsNotARepoLayer(t *testing.T) {
	for _, fn := range []string{
		"internal/runtime/maps.(*Map).getWithKey",
		"internal/runtime/maps.ctrlGroup.matchH2",
		"internal/runtime/syscall.Syscall6",
	} {
		if l := repoLayer(fn); l != "" {
			t.Errorf("repoLayer(%q) = %q, want no layer", fn, l)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was not refused")
	}
	if got, err := percentile(seq(1000), 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := percentile(seq(2400), 0.99); err != nil || got != 2376 {
		t.Errorf("p99 of 1..2400 = %v, %v; want 2376", got, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.0, 5.5, 4.4, 1.2}, 1.6, 4.95},
		{[]float64{7, 1}, -0.5, 8.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var n, ns int64
	found := false
	for _, s := range stacks {
		n += s.count
		ns += s.nanos
		for _, f := range s.frames {
			found = found || f == "ecgrid/bench.TestDecodeProfile"
		}
	}
	if n == 0 {
		t.Skip("no samples in 300 ms of spinning")
	}
	if ns <= 0 || !found {
		t.Errorf("decoded %d samples, %d ns; test frame found: %v (x=%g)", n, ns, found, x)
	}
}

func TestSimdPlan(t *testing.T) {
	cfgs, order, err := simdPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != simdModels+2*simdVariants || len(order) != simdRequests {
		t.Fatalf("%d configs, %d requests", len(cfgs), len(order))
	}
	first := make(map[int]int)
	for p, c := range order {
		if _, ok := first[c]; !ok {
			first[c] = p
		}
	}
	if len(first) != len(cfgs) {
		t.Errorf("%d of %d configs requested", len(first), len(cfgs))
	}
	models := make(map[int]bool)
	for v := simdModels; v < len(cfgs); v++ {
		m := cfgs[v].model
		if first[v] < first[m] {
			t.Errorf("variant %d requested at %d, before its model %d at %d", v, first[v], m, first[m])
		}
		if models[m] {
			t.Errorf("model %d has two variants", m)
		}
		models[m] = true
	}
	_, again, err := simdPlan(7)
	if err != nil || !slices.Equal(order, again) {
		t.Error("the same seed planned a different request order")
	}
}

// TestSmoke runs the benchmark end to end on the toy workload, untraced and
// traced, and checks that it prints every metric BENCHMARK.json declares,
// with its unit, and a correct result.
func TestSmoke(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "toy", "--seed", "3", "--seconds", "1", "--trace", c.trace,
			"-root", "..", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", c.trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", c.trace, err)
		}
		if !res.Correct || res.Attempted < minReps || res.Failed != 0 {
			t.Errorf("trace %s: correct %v, attempted %d, failed %d", c.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("trace %s: %d metrics printed, BENCHMARK.json declares %d", c.trace, len(res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s: printed %+v (present %v), want unit %s", c.trace, m.Name, got, ok, m.Unit)
			}
		}
		if c.trace == "0" {
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v; must be positive", m.Name, v)
				}
			}
		}
	}
}
