package desmodel

import (
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// fedTestParams shrinks the scenario for unit tests: fast churn, no
// background jobs unless a test wants them.
func fedTestParams(clusters int) FederationParams {
	p := DefaultFederationParams(clusters)
	p.ServeWalltime = 60 * time.Second
	p.DrainGrace = 20 * time.Second
	p.BGPeriod = 0 // no background churn unless the test opts in
	return p
}

func fedReq(id, model, prompt, output int) *Req {
	return &Req{ID: id, Model: model, PromptTok: prompt, OutputTok: output}
}

// TestFederationColdStartLifecycle pushes one request through the full
// Queued→Starting→Running lifecycle: the cold start must charge prologue +
// weights load before the request is served.
func TestFederationColdStartLifecycle(t *testing.T) {
	k := sim.NewKernel()
	var got []*Req
	f := NewFederation(k, fedTestParams(2), func(r *Req) { got = append(got, r) })
	r := fedReq(1, 0, 32, 8)
	k.Schedule(0, func() { f.Arrive(r) })
	k.Run(0)
	if len(got) != 1 || got[0] != r {
		t.Fatalf("completed %d requests, want the 1 submitted", len(got))
	}
	p := f.p
	minLatency := p.Prologue + p.Models[0].LoadTime(p.GPU)
	if r.Latency() < minLatency {
		t.Errorf("cold-start latency %v < prologue+load %v", r.Latency(), minLatency)
	}
	if rungs := f.Rungs(); rungs.Capacity != 1 || rungs.Active != 0 {
		t.Errorf("cold start rungs = %+v, want exactly one capacity decision", rungs)
	}
	stats := f.ClusterStats()
	if stats[0].ColdStarts+stats[1].ColdStarts != 1 {
		t.Errorf("cold starts = %+v, want 1 across clusters", stats)
	}
}

// TestFederationActiveRouting verifies the ladder's first rung: once a model
// is active somewhere, later requests join it instead of cold-starting
// another cluster.
func TestFederationActiveRouting(t *testing.T) {
	k := sim.NewKernel()
	done := 0
	f := NewFederation(k, fedTestParams(4), func(*Req) { done++ })
	for i := 0; i < 50; i++ {
		r := fedReq(i+1, 0, 32, 8)
		k.Schedule(time.Duration(i)*time.Second, func() { f.Arrive(r) })
	}
	k.Run(0)
	if done != 50 {
		t.Fatalf("completed %d/50", done)
	}
	rungs := f.Rungs()
	if rungs.Capacity != 1 {
		t.Errorf("capacity decisions = %d, want 1 (only the first cold start)", rungs.Capacity)
	}
	if rungs.Active != 49 {
		t.Errorf("active decisions = %d, want 49", rungs.Active)
	}
	coldStarts := 0
	for _, cs := range f.ClusterStats() {
		coldStarts += cs.ColdStarts
	}
	if coldStarts != 1 {
		t.Errorf("cold starts = %d, want 1 (rung 1 concentrates load)", coldStarts)
	}
}

// TestFederationDrainMigration runs traffic past the serve walltime: the
// deployment must drain and unserved requests must migrate to another
// cluster (counted, stamped, and eventually completed).
func TestFederationDrainMigration(t *testing.T) {
	k := sim.NewKernel()
	p := fedTestParams(2)
	p.ServeWalltime = 20 * time.Second
	var reqs []*Req
	completed := 0
	f := NewFederation(k, p, func(*Req) { completed++ })
	// A saturating burst: more generation work than one walltime can serve,
	// so the drain always catches waiting requests, which must migrate.
	n := 300
	for i := 0; i < n; i++ {
		r := fedReq(i+1, 0, 64, 300)
		reqs = append(reqs, r)
		k.Schedule(time.Duration(i)*50*time.Millisecond, func() { f.Arrive(r) })
	}
	k.Run(0)
	if completed != n {
		t.Fatalf("completed %d/%d", completed, n)
	}
	drains := 0
	for _, cs := range f.ClusterStats() {
		drains += cs.Drains
	}
	if drains == 0 {
		t.Error("no drains across 3 serve walltimes")
	}
	if f.Migrations() == 0 {
		t.Error("no migrations despite drains under steady load")
	}
	migrated := 0
	for _, r := range reqs {
		if r.Migrations > 0 {
			migrated++
			if r.ObservedAt == 0 {
				t.Fatalf("migrated request %d never completed", r.ID)
			}
		}
	}
	if int64(migrated) > f.Migrations() {
		t.Errorf("stamped %d migrated requests > %d recorded migrations", migrated, f.Migrations())
	}
}

// TestFederationHardKill forces a running batch past drain grace: the
// scheduler's real walltime timer must TimedOut the job and the surviving
// requests must migrate and still complete.
func TestFederationHardKill(t *testing.T) {
	k := sim.NewKernel()
	p := fedTestParams(2)
	p.DrainGrace = 5 * time.Second
	completed := 0
	f := NewFederation(k, p, func(*Req) { completed++ })
	// A warm-up request cold-starts the deployment; a ~30s generation then
	// arrives late in the walltime, so it cannot drain within the 5s grace
	// (killed, migrated) but does complete on the fresh incarnation it
	// migrates to.
	warm := fedReq(1, 0, 32, 8)
	k.Schedule(0, func() { f.Arrive(warm) })
	long := fedReq(2, 0, 64, 5_000)
	k.Schedule(88*time.Second, func() { f.Arrive(long) })
	k.Run(0)
	if completed != 2 {
		t.Fatalf("completed %d/2", completed)
	}
	kills := 0
	for _, cs := range f.ClusterStats() {
		kills += cs.HardKills
	}
	if kills == 0 {
		t.Error("no hard kill despite a batch that cannot drain within grace")
	}
	if long.Migrations == 0 {
		t.Error("the long request survived the kill without migrating")
	}
}

// TestFederationDeterministicRerun re-runs an identical scenario (fresh
// kernel, background churn enabled) and requires identical counters and
// per-request timings — the cell-level property the experiment fleet's
// differential suite scales up.
func TestFederationDeterministicRerun(t *testing.T) {
	run := func(q sim.QueueKind) ([]sim.Time, FedRungs, int64) {
		k := sim.NewKernelWith(q)
		k.MaxEvents = 50_000_000
		p := fedTestParams(3)
		p.BGPeriod = 40 * time.Second
		p.BGStagger = 10 * time.Second
		p.BGWalltime = 25 * time.Second
		p.BGGPUs = 4
		n := 500
		done := 0
		// Background jobs self-schedule forever: stop at the last completion
		// like the open-loop experiment driver does.
		f := NewFederation(k, p, func(*Req) {
			if done++; done == n {
				k.Stop()
			}
		})
		rng := sim.NewRNG(7)
		var reqs []*Req
		for i := 0; i < n; i++ {
			r := fedReq(i+1, i%len(p.Models), 16+rng.Intn(64), 4+rng.Intn(24))
			reqs = append(reqs, r)
			k.Schedule(time.Duration(i)*200*time.Millisecond, func() { f.Arrive(r) })
		}
		k.Run(0)
		times := make([]sim.Time, len(reqs))
		for i, r := range reqs {
			times[i] = r.ObservedAt
		}
		return times, f.Rungs(), f.Migrations()
	}
	t1, r1, m1 := run(sim.QueueCalendar)
	t2, r2, m2 := run(sim.QueueCalendar)
	t3, r3, m3 := run(sim.QueueHeap)
	if !reflect.DeepEqual(t1, t2) || r1 != r2 || m1 != m2 {
		t.Error("federation run is not deterministic across reruns")
	}
	if !reflect.DeepEqual(t1, t3) || r1 != r3 || m1 != m3 {
		t.Error("federation diverges between calendar and heap kernels")
	}
}

// TestKernelClockPanicsOnSleep pins the contract: DES-driven components must
// use deterministic timers, never blocking sleeps.
func TestKernelClockPanicsOnSleep(t *testing.T) {
	k := sim.NewKernel()
	c := kernelClock{k}
	if c.Now() != kernelEpoch {
		t.Errorf("kernelClock.Now at t=0 = %v, want epoch", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("Sleep did not panic")
		}
	}()
	c.Sleep(time.Second)
}

// TestEngineSimUndeliveredWindow pins the step→deliver gap: a sequence that
// completes in the in-flight iteration is out of Depth/EachRunning but
// visible via EachUndelivered until the delivery event fires — the window a
// hard-kill harvest must cover or its request is silently lost.
func TestEngineSimUndeliveredWindow(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultFederationParams(2)
	delivered := 0
	e := MustEngineSim(k, p.Models[0], p.GPU, 0, func(*serving.Sequence) { delivered++ })
	short := &Req{ID: 1}
	long := &Req{ID: 2}
	e.Submit(8, 1, short)  // completes in the first iteration
	e.Submit(8, 100, long) // keeps the batch alive
	k.Run(time.Nanosecond) // runs the step event; the deliver is still queued
	if delivered != 0 {
		t.Fatalf("delivered %d mid-iteration", delivered)
	}
	if !e.DeliveryPending() {
		t.Fatal("DeliveryPending = false with a deliver event in flight")
	}
	var undelivered []*Req
	e.EachUndelivered(func(s *serving.Sequence) { undelivered = append(undelivered, s.Ctx.(*Req)) })
	if len(undelivered) != 1 || undelivered[0] != short {
		t.Fatalf("EachUndelivered = %v, want [short]", undelivered)
	}
	var running []*Req
	e.EachRunning(func(s *serving.Sequence) { running = append(running, s.Ctx.(*Req)) })
	if len(running) != 1 || running[0] != long {
		t.Fatalf("EachRunning = %v, want [long]", running)
	}
	// After delivery the window closes.
	k.Run(10 * time.Second)
	if delivered == 0 || e.DeliveryPending() && e.Depth() == 0 {
		t.Errorf("delivery did not land: delivered=%d pending=%v", delivered, e.DeliveryPending())
	}
	undelivered = undelivered[:0]
	e.EachUndelivered(func(s *serving.Sequence) { undelivered = append(undelivered, s.Ctx.(*Req)) })
	if e.Depth() == 0 && len(undelivered) != 0 {
		t.Errorf("EachUndelivered after idle = %v, want empty", undelivered)
	}
}

// TestFederationParamsDefaultsBGChurn pins withDefaults completing a
// partially-specified background-churn config: a BGPeriod without a
// BGWalltime must not produce immortal science jobs.
func TestFederationParamsDefaultsBGChurn(t *testing.T) {
	p := FederationParams{Clusters: 2, BGPeriod: 450 * time.Second}.withDefaults()
	if p.BGGPUs <= 0 || p.BGWalltime <= 0 || p.BGStagger <= 0 {
		t.Errorf("BG churn left incomplete: %+v", p)
	}
	// Off stays off.
	if p := (FederationParams{Clusters: 2}).withDefaults(); p.BGPeriod != 0 {
		t.Errorf("BGPeriod defaulted on: %v", p.BGPeriod)
	}
}

// TestRoutingRowZeroAlloc pins the per-request routing decision at zero
// allocations: building every model's candidate rows on a warmed c4
// federation (serving, cold, and background-held clusters) and running
// federation.Select over them.
func TestRoutingRowZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultFederationParams(4)
	p.ServeWalltime = 120 * time.Second
	f := NewFederation(k, p, nil)
	for i := 0; i < 4000; i++ {
		r := fedReq(i+1, i%len(p.Models), 64+i%200, 16+i%64)
		k.Schedule(time.Duration(i)*20*time.Millisecond, func() { f.Arrive(r) })
	}
	k.Run(70 * time.Second) // mid-trace: pools serving with live queues
	rows := make([]federation.EndpointInfo, len(f.clusters))
	fill := func() {
		for m := range f.p.Models {
			spec := &f.p.Models[m]
			for i, c := range f.clusters {
				c.endpointInfo(m, spec, &rows[i])
			}
			if _, _, err := federation.Select(rows); err != nil {
				panic(err)
			}
		}
	}
	running, depth := 0, 0
	for m := range f.p.Models {
		spec := &f.p.Models[m]
		for i, c := range f.clusters {
			c.endpointInfo(m, spec, &rows[i])
			if rows[i].ModelState == "running" {
				running++
			}
			depth += rows[i].Depth
		}
	}
	if running == 0 || depth == 0 {
		t.Fatalf("warm-up left %d running rows with total depth %d; the pin needs live pools", running, depth)
	}
	if allocs := testing.AllocsPerRun(200, fill); allocs != 0 {
		t.Errorf("endpointInfo + Select allocates %.1f/op, want 0", allocs)
	}
}
