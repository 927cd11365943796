package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/experiments"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// The DES workloads run the federation twin on the default sequential
// calendar-queue kernel. The untraced pass calls the public entry point,
// experiments.RunFederateCellsOn(Sequential, …); the traced pass rebuilds the
// same cell from exported pieces (arena, NewFederationIn, the workload's
// length sampler) so it can time each layer's calls, and must reproduce the
// untraced pass's simulated outputs exactly.

var (
	// federateCell is the FederateCells c4 open-loop cell.
	federateCell = experiments.FederateCell{Clusters: 4, OpenLoopReqs: 1_000_000, RatePerSec: 200}
	// webuiCell is the FederateCells WebUI cell with its window stretched
	// from 300 s to 7200 s of simulated time (same session population).
	webuiCell = experiments.FederateCell{Clusters: 4, Sessions: 10_000, WindowS: 7200, ThinkS: 30,
		ServeWalltimeS: 120, DrainGraceS: 60, BGPeriodS: 150}

	smokeFederateCell = experiments.FederateCell{Clusters: 4, OpenLoopReqs: 20_000, RatePerSec: 200,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80}
	smokeWebUICell = experiments.FederateCell{Clusters: 4, Sessions: 300, WindowS: 240, ThinkS: 30,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80}
)

// desEventBudget aborts a runaway cell, as the federate family does.
const desEventBudget = 400_000_000

// desSetupBatch is how many federation builds are timed before each run of
// a cell; setup_s is their median (one build takes tens of microseconds).
const desSetupBatch = 51

// webuiContextCap caps a WebUI session's resent history (the serving
// context window), as the federate family does.
const webuiContextCap = 8192

// cellParams resolves a cell's federation parameters the way the federate
// family does for cells without a replay schedule.
func cellParams(c experiments.FederateCell) desmodel.FederationParams {
	p := desmodel.DefaultFederationParams(c.Clusters)
	if c.ServeWalltimeS > 0 {
		p.ServeWalltime = time.Duration(c.ServeWalltimeS) * time.Second
	}
	if c.DrainGraceS > 0 {
		p.DrainGrace = time.Duration(c.DrainGraceS) * time.Second
	}
	if c.BGPeriodS > 0 {
		p.BGPeriod = time.Duration(c.BGPeriodS) * time.Second
		p.BGStagger = p.BGPeriod / 5
		p.BGWalltime = p.BGPeriod * 2 / 3
	}
	return p
}

// desIter is one simulated run of a cell.
type desIter struct {
	row  experiments.FederateRow
	cost procDelta

	// Traced runs only.
	events      uint64
	kernelWall  time.Duration
	pendingPeak int
	arrive      durations
	collect     time.Duration
}

// digest fingerprints the simulated outputs of a run.
func (it desIter) digest() string {
	r := it.row
	s := fmt.Sprintf("%d|%+v|%+v|%d|%d|%d|%d", r.Offered, r.M, r.Rungs, r.Migrations, r.ColdStarts, r.Drains, r.HardKills)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func runDESFederate(o opts) *report {
	c := federateCell
	if o.smoke {
		c = smokeFederateCell
	}
	return runDES(o, c, federateTraced)
}

func runDESWebUI(o opts) *report {
	c := webuiCell
	if o.smoke {
		c = smokeWebUICell
	}
	return runDES(o, c, webuiTraced)
}

// runDES times the cell's set-up, then runs the cell until the window is
// spent (at least once) and reports medians over the runs.
func runDES(o opts, c experiments.FederateCell, traced func(experiments.FederateCell, int64) desIter) *report {
	rep := &report{}
	// Federation builds are timed in batches before every run of the cell,
	// so setup_s samples the host across the whole measurement.
	var setup []float64
	build := func() {
		a := desmodel.NewArena(sim.QueueCalendar)
		a.Begin()
		desmodel.NewFederationIn(a, cellParams(c), func(*desmodel.Req) {})
	}

	prof := startProfile(o.traced, rep)
	var its []desIter
	for start := time.Now(); len(its) == 0 || time.Since(start) < o.window; {
		setup = append(setup, timeSetups(desSetupBatch, build)...)
		runtime.GC()
		var it desIter
		if o.traced {
			it = traced(c, o.seed)
		} else {
			before := readProc()
			it.row = experiments.RunFederateCellsOn(experiments.Sequential, o.seed, []experiments.FederateCell{c})[0]
			it.cost = before.to(readProc())
		}
		its = append(its, it)
	}
	shares := prof.stop(rep)

	first := its[0]
	m := first.row.M
	rep.simDigest = first.digest()
	for i, it := range its {
		rep.attempted += it.row.Offered
		rep.failed += it.row.M.Failed
		if d := it.digest(); d != rep.simDigest {
			rep.problem("run %d simulated outputs %s differ from run 0's %s", i, d, rep.simDigest)
		}
	}
	if c.OpenLoopReqs > 0 && (m.Requests != c.OpenLoopReqs || m.Completed != c.OpenLoopReqs || m.Failed != 0) {
		rep.problem("open loop: %d requests, %d completed, %d failed; want all %d completed once", m.Requests, m.Completed, m.Failed, c.OpenLoopReqs)
	}
	if m.Completed == 0 || m.Failed != 0 {
		rep.problem("%d completed, %d failed", m.Completed, m.Failed)
	}

	done := float64(m.Completed)
	med := func(f func(desIter) float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return median(xs)
	}
	// The simulated clock is the only one a simulated request sees: its
	// latency is the simulated one. A DES client does not stream, so no
	// time to first token applies, nor a goodput on the wall clock.
	rep.e2e = map[string]float64{
		"host_ns_per_req":     med(func(it desIter) float64 { return float64(it.cost.wall) }) / done,
		"alloc_bytes_per_req": med(func(it desIter) float64 { return it.cost.alloc }) / done,
		"cpu_ms_per_req":      med(func(it desIter) float64 { return float64(it.cost.cpu) / 1e6 }) / done,
		"peak_rss_mb":         peakRSSMB(),
		"e2e_ms_p50":          m.MedianLatS * 1e3,
		"e2e_ms_p99":          m.P99LatS * 1e3,
		"sim_req_per_s":       m.ReqPerSec,
		"setup_s":             median(setup),
	}
	if !o.traced {
		return rep
	}

	l := zeroLayers(shares)
	rungs := first.row.Rungs
	routed := float64(rungs.Active + rungs.Capacity + rungs.FirstConf)
	last := its[len(its)-1]
	arrive := last.arrive.sorted(time.Nanosecond)
	l["sim.events_per_req"] = float64(first.events) / done
	l["sim.ns_per_event"] = med(func(it desIter) float64 { return ratio(float64(it.kernelWall), float64(it.events)) })
	l["sim.pending_peak"] = float64(first.pendingPeak)
	l["federation.rung_active_share"] = ratio(float64(rungs.Active), routed)
	l["federation.rung_capacity_share"] = ratio(float64(rungs.Capacity), routed)
	l["federation.rung_firstconf_share"] = ratio(float64(rungs.FirstConf), routed)
	l["desmodel.arrive_ns_p50"] = quantile(arrive, 0.5)
	l["desmodel.arrive_ns_p99"] = tail(arrive, 0.99)
	l["desmodel.migrations_per_kreq"] = 1000 * float64(first.row.Migrations) / done
	l["desmodel.collect_ms"] = med(func(it desIter) float64 { return float64(it.collect) / 1e6 })
	l["scheduler.cold_starts"] = float64(first.row.ColdStarts)
	l["scheduler.drains"] = float64(first.row.Drains)
	l["runtime.mallocs_per_req"] = med(func(it desIter) float64 { return it.cost.mallocs }) / done
	l["runtime.gc_cycles"] = med(func(it desIter) float64 { return it.cost.gcs })
	rep.layer = l
	return rep
}

// zeroLayers starts a per-layer map with every metric at 0 (layers a
// workload does not exercise stay there) and the profile's CPU shares.
func zeroLayers(shares map[string]float64) map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	for _, layer := range cpuLayers {
		l[cpuShareMetric(layer)] = shares[layer]
	}
	return l
}

// desProbe times the traced run's calls into the federation.
type desProbe struct {
	k  *sim.Kernel
	it *desIter
}

func (p desProbe) arrive(sys *desmodel.Federation, r *desmodel.Req) {
	if n := p.k.Pending(); n > p.it.pendingPeak {
		p.it.pendingPeak = n
	}
	t0 := time.Now()
	sys.Arrive(r)
	p.it.arrive = append(p.it.arrive, time.Since(t0))
}

// run runs the kernel to end-of-cell, timing it.
func (p desProbe) run(until sim.Time) {
	t0 := time.Now()
	p.k.Run(until)
	p.it.kernelWall = time.Since(t0)
	p.it.events = p.k.Processed
}

// finish builds the row from the federation's counters, timing the stats
// collection, and charges the run's process cost.
func (p desProbe) finish(sys *desmodel.Federation, offered int, reqs []*desmodel.Req, before procSample) {
	t0 := time.Now()
	m := desmodel.Collect(reqs)
	p.it.collect = time.Since(t0)
	row := experiments.FederateRow{Offered: offered, M: m, Rungs: sys.Rungs(), Migrations: sys.Migrations()}
	for _, cs := range sys.ClusterStats() {
		row.ColdStarts += cs.ColdStarts
		row.Drains += cs.Drains
		row.HardKills += cs.HardKills
	}
	p.it.row = row
	p.it.cost = before.to(readProc())
}

// federateTraced is the open-loop cell rebuilt from exported pieces: the
// same RNG derivation, arrival self-scheduling and stop-at-last-completion
// as the federate family's own open-loop runner.
func federateTraced(c experiments.FederateCell, seed int64) desIter {
	var it desIter
	before := readProc()
	a := desmodel.NewArena(sim.QueueCalendar)
	k := a.Begin()
	k.MaxEvents = desEventBudget
	probe := desProbe{k: k, it: &it}
	n := c.OpenLoopReqs
	p := cellParams(c)
	completed := 0
	sys := desmodel.NewFederationIn(a, p, func(*desmodel.Req) {
		completed++
		if completed == n {
			k.Stop()
		}
	})
	spec := workload.FederateOpen()
	rng := sim.NewRNG(seed + int64(c.Clusters)*1_000_003 + int64(n))
	models := len(p.Models)
	gapMean := float64(time.Second) / c.RatePerSec
	reqs := make([]*desmodel.Req, n)
	it.arrive = make(durations, 0, n)
	idx := 0
	var step func()
	step = func() {
		pt, ot := spec.SampleLengths(rng)
		r := &desmodel.Req{ID: idx + 1, PromptTok: pt, OutputTok: ot, Model: rng.Intn(models)}
		reqs[idx] = r
		sys.ReplayAdvance(idx)
		probe.arrive(sys, r)
		idx++
		if idx < n {
			k.Schedule(time.Duration(rng.Exp(gapMean)), step)
		}
	}
	k.Schedule(time.Duration(rng.Exp(gapMean)), step)
	probe.run(0)
	probe.finish(sys, n, reqs, before)
	return it
}

// webuiTraced is the closed-loop WebUI cell rebuilt from exported pieces:
// each session resends its history (capped at the context window), thinks,
// and issues its next turn, sticking to one model.
func webuiTraced(c experiments.FederateCell, seed int64) desIter {
	var it desIter
	before := readProc()
	a := desmodel.NewArena(sim.QueueCalendar)
	k := a.Begin()
	k.MaxEvents = desEventBudget
	probe := desProbe{k: k, it: &it}
	p := cellParams(c)
	models := len(p.Models)
	spec := workload.WebUI()
	rng := sim.NewRNG(seed + int64(c.Clusters) + int64(c.Sessions))
	think := time.Duration(c.ThinkS) * time.Second
	history := make([]int, c.Sessions)
	var finished []*desmodel.Req
	issued := 0
	var sys *desmodel.Federation
	issue := func(session int) {
		pt, ot := spec.SampleLengths(rng)
		pt += history[session]
		if pt > webuiContextCap {
			pt = webuiContextCap
		}
		issued++
		probe.arrive(sys, &desmodel.Req{ID: issued, PromptTok: pt, OutputTok: ot, Session: session, Model: session % models})
	}
	sys = desmodel.NewFederationIn(a, p, func(r *desmodel.Req) {
		finished = append(finished, r)
		session := r.Session
		history[session] = min(r.PromptTok+r.OutputTok, webuiContextCap)
		k.Schedule(think, func() { issue(session) })
	})
	for s := 0; s < c.Sessions; s++ {
		issue(s)
	}
	probe.run(time.Duration(c.WindowS) * time.Second)
	probe.finish(sys, issued, finished, before)
	return it
}
