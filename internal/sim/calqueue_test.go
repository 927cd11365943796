package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// chainStamp is one dispatched event of chainRun.
type chainStamp struct {
	at Time
	id int
}

// chainRun drives k with a small live population and a high throughput:
// chains self-rescheduling chains (exponential gaps, mean gapMean per chain)
// behind one sentinel parked three hours ahead, until events have been
// dispatched. It returns the (time, id) dispatch order and the bytes the
// process allocated during Run.
func chainRun(k *Kernel, chains, events int, gapMean time.Duration) ([]chainStamp, uint64) {
	rng := NewRNG(42)
	fired := make([]chainStamp, 0, events+chains+1)
	for c := 0; c < chains; c++ {
		id := c
		var fn func()
		fn = func() {
			fired = append(fired, chainStamp{k.Now(), id})
			if len(fired) < events {
				k.Schedule(time.Duration(rng.Exp(float64(gapMean))), fn)
			}
		}
		k.Schedule(time.Duration(rng.Exp(float64(gapMean))), fn)
	}
	k.Schedule(3*time.Hour, func() { fired = append(fired, chainStamp{k.Now(), -1}) })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Run(0)
	runtime.ReadMemStats(&after)
	return fired, after.TotalAlloc - before.TotalAlloc
}

// TestKernelMemoryTracksPopulation is the regression test for a calendar
// queue whose memory grew with throughput: chains behind a far-future
// sentinel used to settle into one wide bucket the cursor never left, whose
// consumed prefix was freed only when the bucket emptied — 200k dispatches
// allocated about 26 MB for 17 live events. Run's allocation must now stay
// bounded by the live population, and the dispatch order must still match
// the heap reference exactly.
//
// The 8-chain shape pins the dequeue-driven narrowing: with fewer pending
// events than the width sample holds, the sentinel enters the sample and
// the first re-tune lands wide, so only the dispatch count of the cursor's
// slot can narrow the width again. The zero-gap shape pins the prefix
// reclaim on its own: chains rescheduling at the same instant share one
// slot that no width can split.
func TestKernelMemoryTracksPopulation(t *testing.T) {
	const events = 200_000
	// A few dozen live events need well under a kilobyte of bucket space;
	// the budget leaves room for the ring and the rehash scratch (measured
	// 23–104 KB across 4–32 chains, against 26 MB before the fix).
	const budget = 256 << 10
	for _, tc := range []struct {
		chains     int
		gap        time.Duration
		wantNarrow bool
	}{
		{chains: 16, gap: 80 * time.Millisecond},
		{chains: 8, gap: 80 * time.Millisecond, wantNarrow: true},
		{chains: 16, gap: 0},
	} {
		k := NewKernelWith(QueueCalendar)
		cal, calBytes := chainRun(k, tc.chains, events, tc.gap)
		heap, _ := chainRun(NewKernelWith(QueueHeap), tc.chains, events, tc.gap)

		name := fmt.Sprintf("%d chains, gap %v", tc.chains, tc.gap)
		if len(cal) != len(heap) || len(cal) < events {
			t.Fatalf("%s: dispatched calendar=%d heap=%d, want equal and ≥ %d",
				name, len(cal), len(heap), events)
		}
		for i := range cal {
			if cal[i] != heap[i] {
				t.Fatalf("%s: dispatch diverges at event %d: calendar %+v, heap %+v",
					name, i, cal[i], heap[i])
			}
		}
		if calBytes > budget {
			t.Errorf("%s: Run allocated %d bytes for %d live events over %d dispatches, want ≤ %d",
				name, calBytes, tc.chains+1, events, budget)
		}
		st := k.Stats()
		if st.Compactions == 0 {
			t.Errorf("%s: no bucket prefix was reclaimed: %+v", name, st)
		}
		if tc.wantNarrow && st.NarrowRehashes == 0 {
			t.Errorf("%s: dispatch counts never narrowed the width: %+v", name, st)
		}
	}
}

// TestKernelRehashWidthFromEarliestEvents pins Brown's sample: a grow
// rehash measures the width from the earliest pending events, so a
// far-future timer parked in the overflow cannot stretch it. Measured over
// the global span, the 3 h timer would set a 2³⁸ ns (≈275 s) width for
// events 1 ms apart.
func TestKernelRehashWidthFromEarliestEvents(t *testing.T) {
	k := NewKernel()
	noop := func() {}
	k.Schedule(3*time.Hour, noop)
	for i := 0; i < 200; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, noop)
	}
	if st := k.Stats(); st.GrowRehashes == 0 {
		t.Fatalf("200 pending events never grew the ring: %+v", st)
	}
	if w := Time(1) << k.cal.shift; w > 4*time.Millisecond {
		t.Errorf("bucket width %v after the grow, want ≤ 4ms for events 1ms apart", w)
	}
	k.Run(0)
	if k.Now() != 3*time.Hour || k.Processed != 201 {
		t.Errorf("run ended at %v after %d events, want 3h and 201", k.Now(), k.Processed)
	}
}
