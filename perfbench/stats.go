package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// with fewer, a "p99" is one or two outliers, not a percentile.
const minTail = 10

// quantile returns the q-quantile of an ascending slice (the lower nearest
// rank); 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// tail returns the q-quantile of an ascending slice, lowered to the highest
// percentile that still leaves at least minTail samples beyond it. With
// minTail or fewer samples there is no such percentile and it returns the
// median.
func tail(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n <= minTail {
		return quantile(sorted, 0.5)
	}
	i := int(q * float64(n-1))
	if maxI := n - 1 - minTail; i > maxI {
		i = maxI
	}
	return sorted[i]
}

// median of unsorted values (the upper middle for an even count, so every
// reported median is a value that was measured).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// durations is a sample of spans that converts to sorted float units.
type durations []time.Duration

func (d durations) sorted(unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies are one slice of a run's latency samples on the wall clock:
// time to first token of the streaming requests (a non-streaming client
// holds its first token only when the whole response arrives) and end to
// end of every request.
type latencies struct{ ttft, e2e durations }

// latencyMetrics reports each latency family's median and tail percentile
// as the median over the run's slices: every slice's percentile weighs the
// same, so a host stall inside one slice moves one vote, not the figure.
// It returns the median over the slices of their mean end-to-end latency,
// in ns.
func latencyMetrics(slices []latencies, m map[string]float64) (meanE2ENs float64) {
	var ttft50, ttft99, e2e50, e2e99, means []float64
	for _, s := range slices {
		if len(s.ttft) > 0 {
			ttft := s.ttft.sorted(time.Millisecond)
			ttft50, ttft99 = append(ttft50, quantile(ttft, 0.5)), append(ttft99, tail(ttft, 0.99))
		}
		if len(s.e2e) > 0 {
			e2e := s.e2e.sorted(time.Millisecond)
			e2e50, e2e99 = append(e2e50, quantile(e2e, 0.5)), append(e2e99, tail(e2e, 0.99))
			var sum time.Duration
			for _, d := range s.e2e {
				sum += d
			}
			means = append(means, float64(sum)/float64(len(s.e2e)))
		}
	}
	m["ttft_ms_p50"], m["ttft_ms_p99"] = median(ttft50), median(ttft99)
	m["e2e_ms_p50"], m["e2e_ms_p99"] = median(e2e50), median(e2e99)
	return median(means)
}

// timeSetups times n runs of setup with the collector paused (a GC cycle
// landing in one build would be noise, not set-up cost) and returns the
// durations in seconds.
func timeSetups(n int, setup func()) []float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		setup()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
