package desmodel

import (
	"math/rand"
	"sort"
	"testing"
)

// selectInputs returns the named input shapes SelectNth is checked on, each
// of length n: uniform random, heavy ties (four distinct values), a single
// repeated value, sorted, reversed, and organ-pipe (ascending then
// descending — a classic median-of-three stressor).
func selectInputs(rng *rand.Rand, n int) map[string][]float64 {
	in := map[string][]float64{}
	mk := func(name string, f func(i int) float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		in[name] = xs
	}
	mk("random", func(int) float64 { return rng.Float64() })
	mk("ties", func(int) float64 { return float64(rng.Intn(4)) })
	mk("equal", func(int) float64 { return 7 })
	mk("sorted", func(i int) float64 { return float64(i) })
	mk("reversed", func(i int) float64 { return float64(n - i) })
	mk("organ", func(i int) float64 {
		if i < n/2 {
			return float64(i)
		}
		return float64(n - i)
	})
	return in
}

// TestSelectNthMatchesSort checks SelectNth against sort.Float64s for every
// k on sizes 1..128 and a spread of sizes past 500, over random, tied,
// constant, sorted, reversed, and organ-pipe inputs — plus the partition
// contract (nothing before k is larger, nothing after is smaller).
func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sizes []int
	for n := 1; n <= 128; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 199, 256, 257, 333, 500, 511, 512, 640)
	for _, n := range sizes {
		for name, xs := range selectInputs(rng, n) {
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			work := make([]float64, n)
			for k := 0; k < n; k++ {
				copy(work, xs)
				if got := SelectNth(work, k); got != want[k] {
					t.Fatalf("%s n=%d k=%d: SelectNth = %v, sorted[k] = %v", name, n, k, got, want[k])
				}
				for i, x := range work {
					if (i < k && x > want[k]) || (i > k && x < want[k]) {
						t.Fatalf("%s n=%d k=%d: work[%d] = %v breaks the partition around %v", name, n, k, i, x, want[k])
					}
				}
			}
		}
	}
}

// TestSelectNthCollectSequence replays Collect's two selections — p99 on
// the whole slice, then the median on the [:p99+1] prefix the first call
// left behind — and checks both against the sorted order.
func TestSelectNthCollectSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 2000; n += 1 + n/16 {
		for name, xs := range selectInputs(rng, n) {
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			p99 := int(0.99 * float64(n))
			if p99 >= n {
				p99 = n - 1
			}
			work := append([]float64(nil), xs...)
			gotP99 := SelectNth(work, p99)
			gotP50 := SelectNth(work[:p99+1], n/2)
			if gotP99 != want[p99] || gotP50 != want[n/2] {
				t.Fatalf("%s n=%d: p99/p50 = %v/%v, sorted gives %v/%v", name, n, gotP99, gotP50, want[p99], want[n/2])
			}
		}
	}
}
