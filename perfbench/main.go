// Command perfbench is the FIRST reproduction's end-to-end benchmark. It
// drives four workloads through the program's public Go API — two on the
// discrete-event federation twin, two on the live gateway stack — checks
// every run's outputs, and reports the metrics named in BENCHMARK.json at
// the repository root:
//
//	bash perfbench/run.sh --workload des-federate --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object holding
// every end-to-end metric; with --trace 1 it holds every per-layer metric,
// measured by a second, instrumented pass, plus what that instrumentation
// costs. A provenance line precedes it. The exit code is 0 only when every
// correctness check passed. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// opts configure one pass of a workload.
type opts struct {
	seed   int64
	window time.Duration // measured time
	traced bool          // instrumented pass: fill report.layer
	smoke  bool          // scaled-down shapes for the package's own tests
	setupN int           // live installations booted for setup_s
	logf   func(format string, args ...any)
}

// report is one pass's outcome.
type report struct {
	attempted int
	failed    int
	problems  []string           // failed correctness checks
	e2e       map[string]float64 // every endToEnd and userMetrics metric that applies
	layer     map[string]float64 // traced passes: every perLayer metric
	// simDigest fingerprints the pass's simulated outputs (DES workloads),
	// which must not depend on whether the pass was traced.
	simDigest string
	// clockScale is the live clock's speed-up (0 for the DES workloads).
	clockScale int64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	why  string
	run  func(o opts) *report
}

var workloads = []workloadDef{
	{"des-federate", "open-loop Poisson, 4 clusters, 10^6 requests, walltime churn: the densest kernel, engine and routing work", runDESFederate},
	{"des-webui", "closed-loop WebUI sessions with chat history and 30 s think time on 4 clusters: same layers, other queue shape", runDESWebUI},
	{"live-chat", "open-loop chat completions through client, gateway, auth, router, hub, endpoint and engine on a 20000x clock", runLiveChat},
	{"live-storm", "closed-loop live storm with chaosnet faults, endpoint fault windows, kills and GPU claims; breakers and failover on", runLiveStorm},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing cost")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...) }
	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), setupN: 15, logf: logf}

	res, last := measure(w, o, *trace == 1)
	prov := provenance(w.name, *seed, last.clockScale, *trace)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(line))
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs w and assembles the result. An untraced run reports the
// end-to-end metrics. A traced run spends half its window untraced and half
// traced, reports the traced pass's per-layer metrics and the untraced
// pass's user metrics, and charges the difference between the passes'
// end-to-end metrics to tracing.
func measure(w workloadDef, o opts, traced bool) (result, *report) {
	var reps []*report
	var metrics map[string]float64
	var defs []metricDef
	if !traced {
		r := w.run(o)
		reps = []*report{r}
		metrics, defs = r.e2e, endToEnd
	} else {
		o.window /= 2
		base := w.run(o)
		o.traced = true
		tr := w.run(o)
		reps = []*report{base, tr}
		metrics, defs = map[string]float64{}, perLayerAll()
		for k, v := range tr.layer {
			metrics[k] = v
		}
		for _, m := range userMetrics {
			metrics[userPrefix+m.Name] = base.e2e[m.Name] // 0 where it does not apply
		}
		for _, m := range endToEnd {
			if tracesCost(m) {
				metrics[traceCostPrefix+m.Name] = tr.e2e[m.Name] - base.e2e[m.Name]
			}
		}
		if base.simDigest != tr.simDigest {
			tr.problem("traced simulated outputs differ from the untraced ones: %s vs %s", tr.simDigest, base.simDigest)
		}
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			o.logf("%s: correctness: %s", w.name, p)
			res.Correct = false
		}
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.logf("%s: metric %s was not measured (%v)", w.name, d.Name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	return res, reps[len(reps)-1]
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
