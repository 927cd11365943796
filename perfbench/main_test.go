package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/experiments"
)

func TestTailUsesHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	cases := []struct {
		n    int
		want float64
	}{
		{2000, 1979}, // the real p99 leaves 20 beyond it
		{1011, 999},  // the real p99 leaves 11 beyond it
		{500, 489},   // p99 would leave 5 beyond: lowered to leave 10
		{11, 0},      // exactly 10 beyond the lowest sample
		{10, 4},      // no percentile leaves 10 beyond: the median
	}
	for _, c := range cases {
		if got := tail(seq(c.n), 0.99); got != c.want {
			t.Errorf("tail(%d samples, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := quantile(seq(101), 0.5); got != 50 {
		t.Errorf("quantile(101 samples, 0.5) = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 3 {
		t.Errorf("median = %v, want the upper middle 3", got)
	}
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name, "x", "lower")
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name, m.Unit, m.Better)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.better() || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	all := perLayerAll()
	if len(spec.PerLayer) != len(all) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(all))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name, m.Unit, m.Better)
		if want := all[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.better() {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"encoding/json.Marshal", "github.com/argonne-first/first/internal/gateway.(*Server).handleChat", "net/http.HandlerFunc.ServeHTTP"}, "gateway"},
		{[]string{"runtime.mallocgc", "github.com/argonne-first/first/internal/sim.(*Kernel).calInsertRing", "github.com/argonne-first/first/internal/desmodel.(*Federation).route"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"main.federateTraced.func2", "github.com/argonne-first/first/internal/sim.(*Kernel).Run"}, "bench"},
		{[]string{"syscall.Syscall", "runtime.goexit"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	rep := &report{}
	p := startProfile(true, rep)
	// Spin in this package long enough for the 100 Hz profiler to sample.
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	shares := p.stop(rep)
	if len(rep.problems) > 0 {
		t.Fatal(rep.problems)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 || shares["bench"] < 0.5 {
		t.Errorf("shares %v (sum %v, x %d): want the spin loop charged to bench", shares, sum, x)
	}
}

// smokeOpts are the scaled-down shapes each workload's smoke test uses.
func smokeOpts(t *testing.T) opts {
	return opts{seed: 7, window: 300 * time.Millisecond, smoke: true, setupN: 2, logf: t.Logf}
}

// TestWorkloadsSmoke runs every workload untraced and traced, at reduced
// size, through the same path the command uses, and checks the result line.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, _ := measure(w, smokeOpts(t), traced)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("traced=%v: correct %v attempted %d failed %d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayerAll()
				}
				var names []string
				for name := range res.Metrics {
					names = append(names, name)
				}
				sort.Strings(names)
				if len(names) != len(defs) {
					t.Fatalf("traced=%v: reported %v", traced, names)
				}
				if !traced {
					for name, v := range res.Metrics {
						if v.Value == 0 {
							t.Errorf("end-to-end %s is 0", name)
						}
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
				}
			}
		})
	}
}

// TestStormMatchesLiveFedFamily pins the rebuilt storm to the livefed
// family's own RunLiveFedCell: the same cell and seed give the same census.
func TestStormMatchesLiveFedFamily(t *testing.T) {
	const seed = 11
	run, s, _, err := storm(smokeStormCell, seed, false)
	if s != nil {
		s.sys.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	row := experiments.RunLiveFedCell(seed, smokeStormCell)
	want := stormCensus{OK: row.OK, FailoverOK: row.FailoverOK, Shed: row.Shed, TypedErr: row.TypedErr, Untyped: row.Untyped}
	if run.census != want {
		t.Fatalf("storm census %+v, livefed family %+v", run.census, want)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "des-federate", "--trace", "2"},
		{"--workload", "des-federate", "--seconds", "0"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad arguments printed a result: %s", out.String())
	}
}
