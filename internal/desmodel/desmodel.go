// Package desmodel wires the serving engine and the calibrated overhead
// models into deterministic discrete-event scenarios that regenerate the
// paper's evaluation (Figures 3-5, Table 1, the batch-mode numbers, and the
// three optimization ablations) in virtual time.
//
// Three request paths are modeled (§5.2.3):
//
//   - FIRST: client → gateway (worker window, processing overhead, optional
//     per-request auth introspection) → Globus-Compute hub (submit latency,
//     serialized dispatch/relay lanes) → endpoint pickup → least-loaded
//     engine instance → result relay back (optionally observed on a polling
//     grid — Optimization 1's ablation).
//   - Direct: client → vLLM's own API front-end (single-threaded admission,
//     the §5.3.1 bottleneck) → engine.
//   - ExtAPI: client → rate/concurrency-limited external cloud API (Fig. 5).
//
// All scenarios consume workload traces from internal/workload and report
// the paper's §5.1 metrics.
package desmodel

import (
	"math/bits"
	"sort"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// Req is one request flowing through a scenario.
type Req struct {
	ID        int
	PromptTok int
	OutputTok int
	// Session tags the closed-loop session that issued the request (drivers
	// previously tracked this in a side map, a per-request map churn on the
	// Table-1 hot path).
	Session int
	// Model indexes the requested model in a multi-model scenario's model
	// list (Federation); single-model scenarios leave it zero.
	Model int
	// Migrations counts how many times the federation layer re-routed the
	// request after its first placement died (drain or walltime hard-kill).
	Migrations int

	ArrivalAt   sim.Time // client send time
	GatewayAt   sim.Time // admitted into the gateway window
	EngineAt    sim.Time // submitted to an engine
	CompletedAt sim.Time // engine finished + results relayed
	ObservedAt  sim.Time // client saw the result (poll grid)

	Failed bool
}

// Latency returns the client-observed end-to-end latency.
func (r *Req) Latency() time.Duration { return r.ObservedAt - r.ArrivalAt }

// Metrics are the paper's §5.1 evaluation metrics for one run.
type Metrics struct {
	Requests      int
	Completed     int
	Failed        int
	DurationS     float64 // benchmark duration: first arrival → last observed
	ReqPerSec     float64 // request throughput
	TokPerSec     float64 // output token throughput
	MedianLatS    float64 // median end-to-end latency
	MeanLatS      float64
	P99LatS       float64
	OutputTokens  int64
	PeakObservedB int // peak engine batch across instances
}

// Collect computes metrics over finished requests.
func Collect(reqs []*Req) Metrics {
	var m Metrics
	m.Requests = len(reqs)
	latencies := make([]float64, 0, len(reqs))
	var last sim.Time
	var sumLat float64
	for _, r := range reqs {
		if r.Failed || r.ObservedAt == 0 {
			m.Failed++
			continue
		}
		m.Completed++
		m.OutputTokens += int64(r.OutputTok)
		lat := sim.Sec(r.Latency())
		latencies = append(latencies, lat)
		sumLat += lat
		if r.ObservedAt > last {
			last = r.ObservedAt
		}
	}
	if m.Completed == 0 {
		return m
	}
	m.DurationS = sim.Sec(last)
	if m.DurationS > 0 {
		m.ReqPerSec = float64(m.Completed) / m.DurationS
		m.TokPerSec = float64(m.OutputTokens) / m.DurationS
	}
	m.MeanLatS = sumLat / float64(len(latencies))
	p99 := int(0.99 * float64(len(latencies)))
	if p99 >= len(latencies) {
		p99 = len(latencies) - 1
	}
	// p99 first: selection leaves the p99+1 smallest in the prefix, and the
	// median (index n/2 ≤ p99) is among them.
	m.P99LatS = SelectNth(latencies, p99)
	m.MedianLatS = SelectNth(latencies[:p99+1], len(latencies)/2)
	return m
}

// SelectNth returns the k-th smallest element of xs (0-based) — the value
// sort.Float64s would leave at xs[k] — by Hoare's FIND on median-of-three
// pivots, in expected linear time. It reorders xs in place so that
// xs[:k] ≤ xs[k] ≤ xs[k+1:]. A partition run that fails to shrink the range
// geometrically falls back to sorting what is left, bounding the worst case
// at O(n log n). xs must be non-empty, NaN-free, and 0 ≤ k < len(xs).
func SelectNth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo:j+1] ≤ pivot ≤ xs[i:hi+1], and anything strictly
		// between j and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// lane is a serialized single-server queue: every item charges `cost`
// before delivery. It models the hub's routing and relay lanes and the
// direct path's single-threaded API admission.
//
// The service loop runs on two closures bound once at construction
// (serveFn, doneFn) with the in-service item parked on the struct, so a
// lane schedules no fresh closure per item — at hub saturation the lanes
// are the kernel's densest event source. The queue pops by head index
// (reset when drained) so its backing array is recycled instead of
// re-sliced away.
type lane struct {
	k    *sim.Kernel
	cost time.Duration
	busy bool

	queue []func()
	head  int

	inService func()
	serveFn   func()
	doneFn    func()

	// depth diagnostics
	maxDepth int
}

func newLane(k *sim.Kernel, cost time.Duration) *lane {
	l := &lane{k: k, cost: cost}
	l.serveFn = l.serve
	l.doneFn = l.done
	return l
}

func (l *lane) enqueue(fn func()) {
	l.queue = append(l.queue, fn)
	if d := len(l.queue) - l.head; d > l.maxDepth {
		l.maxDepth = d
	}
	if !l.busy {
		l.busy = true
		l.k.Schedule(0, l.serveFn)
	}
}

func (l *lane) serve() {
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
		l.busy = false
		return
	}
	l.inService = l.queue[l.head]
	l.queue[l.head] = nil
	l.head++
	l.k.Schedule(l.cost, l.doneFn)
}

func (l *lane) done() {
	fn := l.inService
	l.inService = nil
	fn()
	l.serve()
}

// Depth returns the current queue length (excluding the in-service item).
func (l *lane) Depth() int { return len(l.queue) - l.head }
