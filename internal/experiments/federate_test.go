package experiments

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// The federate determinism suite runs at two scales: the short family per
// PR, and the full beyond-paper family (10⁶ open-loop requests + 10⁴ WebUI
// sessions) in the nightly CI job — set FIRST_FEDERATE_FULL=1 (or run `make
// federate-night`) to enable it locally.

// federateFullEnabled reports whether the full-scale suite should run.
func federateFullEnabled() bool { return os.Getenv("FIRST_FEDERATE_FULL") != "" }

// TestFederateDifferentialWorkers pins the federate family byte-identical
// across fleet worker counts: the parallel run must reproduce the
// sequential reference exactly.
func TestFederateDifferentialWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	seq := RunFederateCellsOn(Sequential, DefaultSeed, FederateCellsShort)
	par := RunFederateCellsOn(Parallel, DefaultSeed, FederateCellsShort)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("federate diverges across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFederateDifferentialQueue pins the family byte-identical across the
// calendar-queue kernel and the 4-ary heap reference.
func TestFederateDifferentialQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cal := RunFederateCellsOn(Sequential, DefaultSeed, FederateCellsShort)
	heap := RunFederateCellsOn(heapRef, DefaultSeed, FederateCellsShort)
	if !reflect.DeepEqual(cal, heap) {
		t.Errorf("federate diverges between calendar and heap kernels:\ncal:  %+v\nheap: %+v", cal, heap)
	}
}

// TestFederateCellAllocBudget is the per-cell allocation budget: the c4
// open-loop cell at 20k requests must allocate at most 350 bytes of heap
// per simulated request, counting the arena, the federation build, the
// requests and everything the run allocates. The calendar queue used to
// hold its hot bucket's consumed prefix until the bucket emptied, which it
// never did, and the cell allocated 784 B/req. It now allocates 248 B/req;
// the budget leaves 40% headroom and sits below half the old figure. The
// kernel's own counters must show why: prefixes reclaimed and the width
// narrowed from dispatch counts.
func TestFederateCellAllocBudget(t *testing.T) {
	const budget = 350 // bytes per request
	c := FederateCell{Clusters: 4, OpenLoopReqs: 20_000, RatePerSec: 200}
	a := desmodel.NewArena(sim.QueueCalendar)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row := federateOpen(a, c, DefaultSeed)
	runtime.ReadMemStats(&after)

	if row.M.Completed != c.OpenLoopReqs {
		t.Fatalf("completed %d of %d requests", row.M.Completed, c.OpenLoopReqs)
	}
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.OpenLoopReqs)
	if perReq > budget {
		t.Errorf("c4 open-loop cell allocated %.0f B/req, budget %d", perReq, budget)
	}
	st := a.Kernel().Stats()
	if st.Compactions == 0 || st.NarrowRehashes == 0 {
		t.Errorf("kernel stats %+v: want bucket compactions and narrowing rehashes", st)
	}
	t.Logf("%.0f B/req, %.2f mallocs/req; kernel %+v", perReq,
		float64(after.Mallocs-before.Mallocs)/float64(c.OpenLoopReqs), st)
}

// assertFederateChurn checks the scenario family actually exercised what it
// claims: completions, every priority rung, migration, drains, cold
// restarts, and at least one hard kill.
func assertFederateChurn(t *testing.T, rows []FederateRow) {
	t.Helper()
	var rungs [3]int64
	var migrations int64
	var drains, kills, colds int
	for _, r := range rows {
		if (r.Mode == "open" || r.Mode == "cordon") && r.M.Completed != r.Offered {
			t.Errorf("%s c%d: completed %d of %d open-loop requests", r.Mode, r.Clusters, r.M.Completed, r.Offered)
		}
		if r.M.Failed != 0 {
			t.Errorf("%s c%d: %d failed requests", r.Mode, r.Clusters, r.M.Failed)
		}
		rungs[0] += r.Rungs.Active
		rungs[1] += r.Rungs.Capacity
		rungs[2] += r.Rungs.FirstConf
		migrations += r.Migrations
		drains += r.Drains
		kills += r.HardKills
		colds += r.ColdStarts
	}
	if rungs[0] == 0 || rungs[1] == 0 || rungs[2] == 0 {
		t.Errorf("priority ladder not hit on all rungs: active=%d capacity=%d first-conf=%d", rungs[0], rungs[1], rungs[2])
	}
	if migrations == 0 {
		t.Error("no requests migrated between clusters")
	}
	if drains == 0 {
		t.Error("no walltime drains")
	}
	if kills == 0 {
		t.Error("no walltime hard kills")
	}
	if colds <= len(rows) {
		t.Errorf("cold starts = %d; churn should force restarts beyond the initial ones", colds)
	}
}

// TestFederateChurnShort asserts the short family hits the full churn
// surface (the per-PR guard that a refactor didn't quietly de-fang it).
func TestFederateChurnShort(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	assertFederateChurn(t, RunFederateCellsOn(Parallel, DefaultSeed, FederateCellsShort))
}

// TestFederateFullScale is the nightly gate: the full beyond-paper family,
// byte-identical across worker counts and queue kinds, with the churn
// surface fully exercised. ~10s sequential per run — too slow for per-PR CI.
func TestFederateFullScale(t *testing.T) {
	if !federateFullEnabled() {
		t.Skip("set FIRST_FEDERATE_FULL=1 for the full 10⁶-request suite (nightly CI)")
	}
	cal := RunFederateOn(Parallel, DefaultSeed)
	assertFederateChurn(t, cal)
	seq := RunFederateOn(Sequential, DefaultSeed)
	if !reflect.DeepEqual(cal, seq) {
		t.Error("full-scale federate diverges across worker counts")
	}
	heap := RunFederateOn(Fleet{Queue: sim.QueueHeap}, DefaultSeed)
	if !reflect.DeepEqual(cal, heap) {
		t.Error("full-scale federate diverges between calendar and heap kernels")
	}
	for _, r := range cal {
		if r.Mode == "open" && r.Clusters == 4 && r.Offered != 1_000_000 {
			t.Errorf("headline open-loop cell offered %d requests, want 10⁶", r.Offered)
		}
		if r.Mode == "webui" && r.Offered < 10_000 {
			t.Errorf("WebUI cell issued %d turns, want ≥ the 10⁴ sessions' first turns", r.Offered)
		}
	}
	// The drain-aware twin must pay for its cordons on the identical trace:
	// routing away from incarnations about to drain has to catch fewer
	// in-flight requests in migrations AND leave the caught ones cheaper.
	var open, cordon *FederateRow
	for i := range cal {
		if r := &cal[i]; r.Clusters == 8 {
			switch r.Mode {
			case "open":
				open = r
			case "cordon":
				cordon = r
			}
		}
	}
	if open == nil || cordon == nil {
		t.Fatal("full family lost the c8 open/cordon twin pair")
	}
	if cordon.Migrations >= open.Migrations {
		t.Errorf("cordon twin migrated %d requests, not below the drain-blind %d", cordon.Migrations, open.Migrations)
	}
	if cordon.MigratedMedianS >= open.MigratedMedianS {
		t.Errorf("cordon twin migrated-latency median %.2fs not below the drain-blind %.2fs",
			cordon.MigratedMedianS, open.MigratedMedianS)
	}
}

// TestFederateFullScalePar is the nightly parallel gate: the full family on
// the sharded conservative-window kernel, byte-identical across window
// executor counts and queue kinds. Par=1 (zero goroutines) is the reference;
// any divergence at higher counts isolates a synchronization bug.
func TestFederateFullScalePar(t *testing.T) {
	if !federateFullEnabled() {
		t.Skip("set FIRST_FEDERATE_FULL=1 for the full 10⁶-request suite (nightly CI)")
	}
	ref := RunFederateOn(Fleet{Par: 1}, DefaultSeed)
	assertFederateChurn(t, ref)
	for _, f := range []Fleet{
		{Par: 1, Queue: sim.QueueHeap},
		{Par: 4},
		{Par: 8, Queue: sim.QueueHeap},
	} {
		if got := RunFederateOn(f, DefaultSeed); !reflect.DeepEqual(got, ref) {
			t.Errorf("full-scale federate diverges at par=%d queue=%v", f.Par, f.Queue)
		}
	}
}
