package desmodel

import (
	"fmt"
	"time"

	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// kernelClock adapts the event kernel's virtual timeline to clock.Clock so
// live control-plane components (the PBS scheduler) can run inside a DES
// scenario. Only Now/Since are served; Sleep/After panic — kernel-driven
// components must take deterministic timers (scheduler.Config.Timer), never
// block a goroutine.
type kernelClock struct{ k *sim.Kernel }

var kernelEpoch = time.Unix(0, 0).UTC()

func (c kernelClock) Now() time.Time { return kernelEpoch.Add(c.k.Now()) }

func (c kernelClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c kernelClock) Sleep(time.Duration) {
	panic("desmodel: kernelClock cannot Sleep; wire a deterministic Timer instead")
}

func (c kernelClock) After(time.Duration) <-chan time.Time {
	panic("desmodel: kernelClock cannot After; wire a deterministic Timer instead")
}

// FederationParams describe a multi-cluster federation scenario: N clusters,
// each with a real inventory (cluster.Cluster) and a real PBS-like scheduler
// (scheduler.Scheduler driven by the kernel through Config.Timer), serving M
// models behind the sharded gateway front-end. Every request is routed by the
// real federation.Select priority ladder (§4.5) over live state snapshots.
type FederationParams struct {
	// Clusters is the federation size (the paper federates Sophia+Polaris;
	// the scenario family sweeps 2-8).
	Clusters int
	// NodesPerCluster and GPUsPerNode shape each cluster's inventory.
	NodesPerCluster int
	GPUsPerNode     int
	GPU             perfmodel.GPUSpec
	// Models are the served model specs. Model m's configuration-registry
	// order (priority 3's "first configured") is the cluster list rotated by
	// m, so first-configured load does not pile onto cluster 0 for every
	// model.
	Models []perfmodel.ModelSpec

	// Gateway front-end: requests hash onto Shards serialized lanes charging
	// CritSection each, then PostWork off-lock before the routing decision.
	Shards      int
	CritSection time.Duration
	PostWork    time.Duration

	// Prologue is the scheduler's Starting phase (node boot, container
	// start) for every job, serving and background alike.
	Prologue time.Duration
	// ServeWalltime is how long a serving instance runs after weights are
	// loaded before it drains (endpoint walltime churn). The scheduler job's
	// walltime is load + ServeWalltime + DrainGrace: if the running batch
	// has not drained within the grace, the real walltime timer hard-kills
	// the job mid-batch and the survivors migrate.
	ServeWalltime time.Duration
	DrainGrace    time.Duration
	// CordonLead, when positive, flags each serving incarnation this long
	// before its serve-walltime drain fires (clamped to ServeWalltime/2).
	// A cordoned instance is skipped by in-pool selection while an
	// uncordoned sibling serves, and a deployment whose entire serving
	// capacity is cordoned advertises Cordoned through the routing ladder
	// (federation.EndpointInfo), steering new arrivals elsewhere one lead
	// ahead of the drain — shrinking the migrated-request population at
	// the source. Zero (the default) keeps routing byte-identical to the
	// drain-blind behaviour.
	CordonLead time.Duration

	// Scale is the Fig4-style auto-scaling policy growing and shrinking each
	// deployment's instance pool with demand. The zero value (MaxInstances
	// ≤ 1) pins every pool at one instance — the pre-autoscaler behaviour.
	Scale AutoScaleParams

	// Background science jobs compete with serving jobs for GPUs: each
	// cluster submits one every BGPeriod (offset by BGStagger×cluster) that
	// holds BGGPUs until its walltime expires. They are what pushes the
	// priority ladder onto its capacity and first-configured rungs.
	BGPeriod   time.Duration
	BGStagger  time.Duration
	BGWalltime time.Duration
	BGGPUs     int

	// Replay, when set, drives all churn from a recorded live schedule
	// instead of the self-scheduled tempo above (see replay.go). Pools are
	// pre-started like a live boot, demand-driven cold starts are off, and
	// kills/restarts/background claims fire at the replayed request
	// indices via ReplayAdvance.
	Replay *ReplayParams
}

// DefaultFederationModels returns the served model mix: two 4-GPU models and
// a 1-GPU model, so deployments pack unevenly onto 4-GPU nodes.
func DefaultFederationModels() []perfmodel.ModelSpec {
	return []perfmodel.ModelSpec{
		perfmodel.Default.MustLookup(perfmodel.Llama8B),
		perfmodel.Default.MustLookup(perfmodel.Gemma27B),
		perfmodel.Default.MustLookup("Qwen/Qwen2.5-7B-Instruct"),
	}
}

// DefaultFederationParams sizes a federation of `clusters` clusters: 2 nodes
// × 4 GPUs each (8 GPUs — the three-model mix needs 9 and a background job 4
// more, so no cluster can host everything and the priority ladder's capacity
// and first-configured rungs genuinely fire), 10-minute serving walltimes
// with 2-minute drain grace, and background churn on a ~7.5-minute cadence.
// Auto-scaling is off (MaxInstances 1); scenarios opt in via Scale.
func DefaultFederationParams(clusters int) FederationParams {
	return FederationParams{
		Clusters:        clusters,
		NodesPerCluster: 2,
		GPUsPerNode:     4,
		GPU:             perfmodel.A100_40,
		Models:          DefaultFederationModels(),
		Shards:          16,
		CritSection:     4 * time.Microsecond,
		PostWork:        25 * time.Microsecond,
		Prologue:        30 * time.Second,
		ServeWalltime:   600 * time.Second,
		DrainGrace:      120 * time.Second,
		BGPeriod:        450 * time.Second,
		BGStagger:       80 * time.Second,
		BGWalltime:      300 * time.Second,
		BGGPUs:          4,
	}
}

// FedRungs counts routing decisions per priority rung.
type FedRungs struct {
	Active    int64 // rung 1: model running/starting/queued somewhere
	Capacity  int64 // rung 2: a cluster had free GPUs for a cold start
	FirstConf int64 // rung 3: nothing active, nothing fits — first configured
}

// FedClusterStats is one cluster's scenario-end accounting.
type FedClusterStats struct {
	Name       string
	Routed     int64 // requests the ladder sent here
	Served     int64 // requests completed here
	ColdStarts int   // serving jobs submitted (Queued→Starting→Running)
	Drains     int   // graceful walltime drains
	HardKills  int   // walltime expiries that killed a live batch
	// LiveInstances counts pool members still holding a place at snapshot
	// time (queued, loading, or serving). A draining incarnation is on its
	// way out and is deliberately not live: the mid-drain end-of-run path
	// must not leak it into the final instance accounting.
	LiveInstances int
	// PeakInstances is the deepest the cluster's pools ever grew (summed
	// over models, draining included while the incarnation held GPUs).
	PeakInstances int
	// ScaleUps / ScaleDowns count auto-scaler pool growth and policy-driven
	// shrink actions (early drains or queued-job cancels); ScaleRefused
	// counts scale-up decisions refused at the MaxInstances cap.
	ScaleUps     int
	ScaleDowns   int
	ScaleRefused int
	// PreWarms counts predictive cold starts: forecast-driven early
	// scale-ups plus walltime-replacement pre-warms (both also counted in
	// ColdStarts — a pre-warm pays the same scheduler path).
	PreWarms int
	// BusyGPUSeconds is Σ engine busy time × GPUs over all incarnations
	// (utilization numerator; divide by total GPUs × horizon).
	BusyGPUSeconds float64
	// TotalGPUs is the cluster's inventory size.
	TotalGPUs int
	// SchedQueuedPeak is the deepest scheduler queue observed at submit
	// time (serving restarts stacking behind background jobs).
	SchedQueuedPeak int
}

// instState is one instance incarnation's lifecycle position.
type instState uint8

const (
	instQueued   instState = iota // job submitted, waiting for nodes/prologue
	instLoading                   // nodes granted, weights loading
	instServing                   // accepting and serving traffic
	instDraining                  // no new work; running batch finishing
	instDead                      // terminal; detached from the pool
)

// fedInstance is one engine incarnation inside a deployment's pool: its own
// scheduler job (paying the real Queued→Starting→Running cold-start path),
// its own serve-walltime drain, and — when the auto-scaler shrinks the pool —
// a policy-driven early drain through the same machinery.
type fedInstance struct {
	d *fedDep

	state     instState
	job       *scheduler.Job
	eng       *EngineSim
	drainDone bool // a zero-delay drain-completion event is queued

	// cordoned marks a serving incarnation inside its CordonLead window:
	// the walltime drain is imminent, so in-pool selection passes it over
	// and the routing ladder is told when every serving sibling is in the
	// same state. drainAt is the kernel time the serve-walltime drain was
	// armed for (EndpointInfo.DrainingAt observability).
	cordoned bool
	drainAt  sim.Time
}

// fedDep is one (cluster, model) deployment: a pool of 1..MaxInstances
// engine incarnations plus the requests parked while none of them serves.
type fedDep struct {
	f     *Federation
	c     *fedCluster
	model int

	insts   []*fedInstance // pool members (dead incarnations are removed)
	pending []*Req         // parked until an instance serves

	// Auto-scaler hysteresis state (see autoscale.go).
	hiStreak int
	loStreak int
	peakPool int
	// lastLive is the live count seen by the previous scaleTick; a change
	// through any path resets both streaks (the watermarks are
	// per-instance, so a streak is only meaningful at one denominator).
	lastLive int
	// hiRefused latches one ScaleRefused count per sustained at-cap
	// episode. The episode ends — and the latch clears — only after the
	// hi condition has been absent for HiSustain consecutive ticks
	// (hiBreak counts those), mirroring the sustain needed to enter it:
	// a one-tick flap from pool churn is the same standing episode.
	hiRefused bool
	hiBreak   int

	// Predictive-scaler state (autoscale.go, forecast.go): the Holt
	// arrival forecaster, the service-rate EWMA, the per-tick sample
	// accumulators they consume, and the deployment's cached cold-start
	// duration (prologue + weights load — the forecast horizon). All
	// cluster-shard-owned: samples are counted where offer/onServed run,
	// so the parallel mode never shares forecast state across shards.
	fcArrive    Forecast
	fcServe     Forecast
	arrivedTick int
	servedTick  int
	coldStart   time.Duration
}

// fedCluster is one simulated cluster: real inventory, real scheduler, one
// deployment pool per model.
//
// k is the kernel the cluster's events run on: the federation kernel
// sequentially, the cluster's own shard under the parallel mode (par.go) —
// instance lifecycle, scheduler timers, engine stepping, background churn,
// and the scaler all schedule here, never on the router's kernel. All
// per-cluster counters are single-writer: routed is written router-side
// (the routing decision), everything else cluster-side.
type fedCluster struct {
	f     *Federation
	idx   int
	k     *sim.Kernel
	shard int // this cluster's ShardSet index (idx+1; router is shard 0)
	name  string
	cl    *cluster.Cluster
	sched *scheduler.Scheduler
	deps  []*fedDep
	snap  []fedDepSnap // par mode's barrier-published rows, per model

	routed, served     int64
	coldStarts, drains int
	hardKills          int
	scaleUps           int
	scaleDowns         int
	scaleRefused       int
	preWarms           int
	peakInstances      int
	busyGPU            time.Duration
	queuedPeak         int
}

// Federation is the multi-cluster DES scenario: the sharded gateway
// front-end in front of N cluster+scheduler instances, every request routed
// by the real federation.Select over live snapshots, with deployment pools
// churning through the full Queued→Starting→Running→drain/kill lifecycle and
// the auto-scaler growing and shrinking them with demand.
type Federation struct {
	// k is the router kernel: gateway admission, routing decisions, rung and
	// migration counters, and the replay cursor all run here. Sequentially it
	// is the run's only kernel; under the parallel mode it is shard 0 of the
	// ShardSet and every cluster owns its own shard (par.go).
	k *sim.Kernel
	p FederationParams

	newEngine func(c *fedCluster, m perfmodel.ModelSpec, onComplete func(*serving.Sequence)) *EngineSim
	// recycle, when set, returns a dead incarnation's inner engine to the
	// arena pool so the next cold restart reuses it.
	recycle func(*serving.Engine)
	done    func(*Req)

	fe *shardFE

	clusters []*fedCluster
	// scratch holds one candidate row per cluster; route and routeReplay
	// fill it in place for every decision.
	scratch []federation.EndpointInfo

	replay *fedReplay

	// par, when set, is the conservative-window sharding state; nil keeps
	// the sequential single-kernel behaviour byte-for-byte.
	par *parState

	rungs      FedRungs
	migrations int64
	// arrivals is half of the conservation invariant the property suite
	// checks (the other half, completions, is Σ clusters' served — written
	// cluster-side so the parallel mode keeps every counter single-writer):
	// every request that arrives completes exactly once, across any number
	// of drains, kills, cancels, and scale-downs.
	arrivals int64
}

func (p FederationParams) withDefaults() FederationParams {
	d := DefaultFederationParams(p.Clusters)
	if p.Clusters <= 0 {
		p.Clusters = 4
	}
	// BGPeriod == 0 means background churn is off, so the BG fields are not
	// unconditionally defaulted — but churn that is on must be complete: a
	// walltime-less science job would hold its GPUs forever (scheduler
	// semantics: Walltime 0 = unlimited) and starve serving restarts.
	if p.BGPeriod > 0 {
		if p.BGGPUs <= 0 {
			p.BGGPUs = d.BGGPUs
		}
		if p.BGWalltime <= 0 {
			p.BGWalltime = d.BGWalltime
		}
		if p.BGStagger <= 0 {
			p.BGStagger = d.BGStagger
		}
	}
	if p.NodesPerCluster <= 0 {
		p.NodesPerCluster = d.NodesPerCluster
	}
	if p.GPUsPerNode <= 0 {
		p.GPUsPerNode = d.GPUsPerNode
	}
	if p.GPU.Name == "" {
		p.GPU = d.GPU
	}
	if len(p.Models) == 0 {
		p.Models = d.Models
	}
	if p.Shards <= 0 {
		p.Shards = d.Shards
	}
	if p.CritSection <= 0 {
		p.CritSection = d.CritSection
	}
	if p.PostWork <= 0 {
		p.PostWork = d.PostWork
	}
	if p.Prologue <= 0 {
		p.Prologue = d.Prologue
	}
	if p.ServeWalltime <= 0 {
		p.ServeWalltime = d.ServeWalltime
	}
	if p.DrainGrace <= 0 {
		p.DrainGrace = d.DrainGrace
	}
	// The cordon must leave a serving majority of the walltime: a lead at
	// or beyond the walltime would cordon the incarnation the moment it
	// starts serving, so clamp to half — mirroring the LoWater clamp's
	// anti-livelock reasoning.
	if p.CordonLead < 0 {
		p.CordonLead = 0
	}
	if p.CordonLead > p.ServeWalltime/2 {
		p.CordonLead = p.ServeWalltime / 2
	}
	p.Scale = p.Scale.withDefaults()
	return p
}

// NewFederation builds the scenario on a bare kernel (unit tests).
func NewFederation(k *sim.Kernel, p FederationParams, done func(*Req)) *Federation {
	p = p.withDefaults()
	return newFederation(k, p, func(c *fedCluster, m perfmodel.ModelSpec, onC func(*serving.Sequence)) *EngineSim {
		return MustEngineSim(c.k, m, p.GPU, 0, onC)
	}, done, nil)
}

// NewFederationIn builds the scenario drawing kernel and engines from an
// experiment-fleet arena. Engines are borrowed per deployment incarnation
// and reclaimed (reset) at the next cell — or mid-cell, when an incarnation
// dies and the pool recycles its engine for the next cold start.
func NewFederationIn(a *Arena, p FederationParams, done func(*Req)) *Federation {
	p = p.withDefaults()
	f := newFederation(a.k, p, func(c *fedCluster, m perfmodel.ModelSpec, onC func(*serving.Sequence)) *EngineSim {
		return a.EngineSimIn(m, p.GPU, 0, onC)
	}, done, nil)
	f.recycle = a.Reclaim
	return f
}

func newFederation(k *sim.Kernel, p FederationParams, newEngine func(*fedCluster, perfmodel.ModelSpec, func(*serving.Sequence)) *EngineSim, done func(*Req), par *parState) *Federation {
	f := &Federation{
		k:         k,
		p:         p,
		newEngine: newEngine,
		done:      done,
		par:       par,
		fe:        newShardFE(k, p.Shards, p.CritSection),
		scratch:   make([]federation.EndpointInfo, p.Clusters),
	}
	for i := 0; i < p.Clusters; i++ {
		c := &fedCluster{f: f, idx: i, k: k}
		if par != nil {
			c.shard = i + 1
			c.k = par.ss.Shard(c.shard)
		}
		c.cl = cluster.New(fmt.Sprintf("fed-%d", i), p.NodesPerCluster, p.GPUsPerNode, p.GPU)
		c.name = c.cl.Name()
		c.sched = scheduler.New(c.cl, kernelClock{c.k}, scheduler.Config{
			Prologue: p.Prologue,
			Backfill: true,
			Timer:    c.k.Schedule,
		})
		for m := range p.Models {
			c.deps = append(c.deps, &fedDep{
				f: f, c: c, model: m,
				coldStart: p.Prologue + p.Models[m].LoadTime(p.GPU),
				fcArrive:  NewForecast(p.Scale.ForecastAlpha, p.Scale.ForecastBeta),
				fcServe:   NewForecast(p.Scale.ForecastAlpha, 0),
			})
		}
		c.snap = make([]fedDepSnap, len(p.Models))
		f.clusters = append(f.clusters, c)
		if p.BGPeriod > 0 && p.BGGPUs > 0 {
			// Background jobs self-schedule forever; open-loop drivers end
			// the run with Kernel.Stop once the trace completes.
			var bg func()
			bg = func() {
				c.submitBG()
				c.k.Schedule(p.BGPeriod, bg)
			}
			c.k.Schedule(p.BGStagger*time.Duration(i)+p.BGPeriod/2, bg)
		}
		if p.Scale.MaxInstances > 1 {
			// The scaler ticks per cluster, evaluating every deployment pool
			// in slice order — one deterministic event per interval. Like the
			// background jobs it self-schedules forever.
			c.armScaler()
		}
	}
	if p.Replay != nil {
		f.replay = newFedReplay(f, *p.Replay)
		// A live system boots with MinInstances:1 per deployment; the twin
		// matches by pre-starting every pool at t=0 instead of cold-starting
		// on first demand. After boot, only replayed restart events revive a
		// killed pool.
		for _, c := range f.clusters {
			for _, d := range c.deps {
				d.startInstance()
			}
		}
	}
	return f
}

// submitBG submits one background science job; the scheduler's own walltime
// timer reclaims it (the real TimedOut path).
func (c *fedCluster) submitBG() {
	_, err := c.sched.Submit(scheduler.JobSpec{
		Name:     "science-batch",
		User:     "bg",
		GPUs:     c.f.p.BGGPUs,
		Walltime: c.f.p.BGWalltime,
	})
	if err != nil {
		panic(err)
	}
	c.noteQueued()
}

func (c *fedCluster) noteQueued() {
	if q := c.sched.QueuedCount(); q > c.queuedPeak {
		c.queuedPeak = q
	}
}

// Arrive is a client request hitting the federation gateway: shard-lane
// admission (serialized critical section), PostWork, then the routing
// decision.
func (f *Federation) Arrive(r *Req) {
	r.ArrivalAt = f.k.Now()
	f.arrivals++
	f.fe.admit(uint64(r.ID), func() {
		r.GatewayAt = f.k.Now()
		f.k.Schedule(f.p.PostWork, func() { f.route(r) })
	})
}

// route applies the real federation.Select priority ladder over live
// snapshots of every cluster's deployment and inventory state. Candidates
// are listed in the model's registry order — the cluster list rotated by
// the model index — and written in place into the length-n scratch rows.
func (f *Federation) route(r *Req) {
	if f.replay != nil {
		f.routeReplay(r)
		return
	}
	m := r.Model
	n := len(f.clusters)
	spec := &f.p.Models[m]
	infos := f.scratch
	ci := m % n
	for i := range infos {
		f.clusters[ci].endpointInfo(m, spec, &infos[i])
		if ci++; ci == n {
			ci = 0
		}
	}
	idx, reason, err := federation.Select(infos)
	if err != nil {
		panic(err) // unreachable: the candidate list is never empty
	}
	switch reason {
	case federation.ReasonActive:
		f.rungs.Active++
	case federation.ReasonCapacity:
		f.rungs.Capacity++
	default:
		f.rungs.FirstConf++
	}
	target := f.clusters[(m+idx)%n]
	target.routed++
	f.deliver(target, m, r)
}

// endpointInfo fills row with one cluster's routing-ladder candidate.
// Sequentially it reads the cluster's live state (the router and the
// cluster share a kernel, so "live" is exact): the lock-free free-GPU
// counter plus one view pass over the pool. Under the parallel mode it
// copies the row published at the last window barrier — the same staleness
// a live federation's status poller has, bounded by the lookahead.
//
//first:hotpath pinned by TestRoutingRowZeroAlloc (federation_test.go)
func (c *fedCluster) endpointInfo(m int, spec *perfmodel.ModelSpec, row *federation.EndpointInfo) {
	if c.f.par != nil {
		*row = c.snap[m].row
		return
	}
	row.ID = c.name
	row.FreeGPUs = c.cl.FreeGPUs()
	row.NeededGPUs = spec.TensorParallel
	c.deps[m].view(row)
}

// view is one pass over the pool filling the deployment's part of a routing
// row:
//
//   - ModelState aggregates the pool's lifecycle onto the paper's §4.3
//     states: serving anywhere beats loading beats queued (a queued job
//     already in its prologue reports starting). Draining instances report
//     nothing — they must not attract new work, and their held GPUs keep
//     the capacity rung honest.
//   - Depth is the deployment's total queue depth (the tie-break input):
//     parked requests plus the waiting+running load of every serving
//     instance. Draining incarnations are excluded — their remaining batch
//     occupies no capacity a new request could wait for.
//   - Instances is the uncordoned serving count (the capacity worth
//     advertising); Cordoned reports serving capacity that is all cordoned
//     ahead of an imminent drain, and DrainingAt how far away the soonest
//     cordoned drain is. With CordonLead unset no instance ever cordons, so
//     these reduce exactly to the serving count / false / 0 — the
//     drain-blind ladder inputs.
//
//first:hotpath reached through the TestRoutingRowZeroAlloc pin (federation_test.go)
func (d *fedDep) view(row *federation.EndpointInfo) {
	depth := len(d.pending)
	total, serving := 0, 0
	loading := false
	var queued *fedInstance
	var soonest sim.Time = -1
	for _, in := range d.insts {
		switch in.state {
		case instServing:
			total++
			depth += in.eng.Depth()
			if !in.cordoned {
				serving++
			} else if soonest < 0 || in.drainAt < soonest {
				soonest = in.drainAt
			}
		case instLoading:
			loading = true
		case instQueued:
			if queued == nil {
				queued = in
			}
		}
	}
	switch {
	case total > 0:
		row.ModelState = "running"
	case loading:
		row.ModelState = "starting"
	case queued == nil:
		row.ModelState = "cold"
	case queued.job != nil && queued.job.State() == scheduler.Starting:
		row.ModelState = "starting"
	default:
		row.ModelState = "queued"
	}
	row.Depth = depth
	row.Instances = serving
	row.Cordoned = total > 0 && serving == 0
	row.DrainingAt = 0
	if soonest >= 0 {
		if dt := soonest - d.c.k.Now(); dt > 0 {
			row.DrainingAt = time.Duration(dt)
		}
	}
}

// deliver hands a routed request to its target deployment: directly when
// router and cluster share a kernel, through the target shard's mailbox
// (paying the cross-shard latency that funds the lookahead) under the
// parallel mode.
func (f *Federation) deliver(c *fedCluster, m int, r *Req) {
	if f.par == nil {
		c.deps[m].offer(r)
		return
	}
	f.par.send(0, c.shard, func() { c.deps[m].offer(r) })
}

// migrateFrom re-routes a request whose placement on this cluster died. The
// routing decision is router state, so under the parallel mode the request
// rides the cluster→router mailbox before re-entering route.
func (c *fedCluster) migrateFrom(r *Req) {
	r.Migrations++
	f := c.f
	if f.par == nil {
		f.migrations++
		f.route(r)
		return
	}
	f.par.send(c.shard, 0, func() {
		f.migrations++
		f.route(r)
	})
}

// depth is the deployment's total queue depth, the same figure view writes
// into a routing row's Depth; the scaler reads it on its own.
func (d *fedDep) depth() int {
	n := len(d.pending)
	for _, in := range d.insts {
		if in.state == instServing {
			n += in.eng.Depth()
		}
	}
	return n
}

// offer delivers a routed request: straight into the least-loaded serving
// instance when one exists, parked (cold-starting the pool's first instance
// if it is empty) otherwise.
func (d *fedDep) offer(r *Req) {
	d.arrivedTick++ // forecast sample: arrivals since the last scaler tick
	if in := d.pickServing(); in != nil {
		r.EngineAt = d.c.k.Now()
		in.eng.Submit(r.PromptTok, r.OutputTok, r)
		return
	}
	d.pending = append(d.pending, r)
	if len(d.insts) == 0 && d.f.replay == nil {
		// Under replay, a dead pool revives only at its scheduled restart
		// event — a demand-driven cold start here would self-heal faster
		// than the live system it is calibrated against.
		d.startInstance()
	}
}

// startInstance submits one serving job: the incarnation enters the
// scheduler's real Queued→Starting→Running lifecycle, competing with
// background jobs. Both the demand-driven first instance and every
// auto-scaler growth step pay this same cold-start path.
func (d *fedDep) startInstance() {
	f := d.f
	spec := f.p.Models[d.model]
	load := spec.LoadTime(f.p.GPU)
	in := &fedInstance{d: d, state: instQueued}
	d.insts = append(d.insts, in)
	d.c.coldStarts++
	d.notePool()
	job, err := d.c.sched.Submit(scheduler.JobSpec{
		Name:      spec.Name,
		User:      "first-serve",
		GPUs:      spec.TensorParallel,
		Walltime:  load + f.p.ServeWalltime + f.p.DrainGrace,
		OnRunning: func(j *scheduler.Job) { in.onJobRunning(j, load) },
		OnEnd:     func(j *scheduler.Job, st scheduler.State) { in.onJobEnd(j, st) },
	})
	if err != nil {
		panic(err) // unreachable: GPUs > 0 and the scheduler is never closed
	}
	in.job = job
	d.c.noteQueued()
}

// onJobRunning fires when the scheduler grants nodes (Starting→Running):
// the instance boots and loads weights before it can serve.
func (in *fedInstance) onJobRunning(j *scheduler.Job, load time.Duration) {
	if in.job != j || in.state != instQueued {
		return
	}
	in.state = instLoading
	in.d.c.k.Schedule(load, func() { in.onLoaded(j) })
}

// onLoaded opens the instance for traffic: the engine incarnation is
// created, parked requests flush into the pool, and the serve-walltime drain
// is armed.
func (in *fedInstance) onLoaded(j *scheduler.Job) {
	if in.job != j || in.state != instLoading {
		return
	}
	d := in.d
	f := d.f
	spec := f.p.Models[d.model]
	in.state = instServing
	in.eng = f.newEngine(d.c, spec, func(seq *serving.Sequence) { in.onServed(j, seq) })
	pend := d.pending
	d.pending = nil
	now := d.c.k.Now()
	for _, r := range pend {
		// Flush least-loaded across the pool: sibling instances may have
		// come up at the same instant.
		t := d.pickServing()
		r.EngineAt = now
		t.eng.Submit(r.PromptTok, r.OutputTok, r)
	}
	in.drainAt = now + f.p.ServeWalltime
	d.c.k.Schedule(f.p.ServeWalltime, func() { in.beginDrain(j, false) })
	if lead := f.p.CordonLead; lead > 0 {
		// Cordon one lead ahead of the drain: selection and the routing
		// ladder stop sending new work here while the remaining walltime
		// is too short to be worth queueing behind.
		d.c.k.Schedule(f.p.ServeWalltime-lead, func() {
			if in.job == j && in.state == instServing {
				in.cordoned = true
			}
		})
	}
	if f.p.Scale.Predictive {
		// Arm the replacement pre-warm one cold start before the drain;
		// the guard re-checks demand and pool room when it fires.
		lead := d.coldStart
		if lead > f.p.ServeWalltime {
			lead = f.p.ServeWalltime
		}
		d.c.k.Schedule(f.p.ServeWalltime-lead, func() { d.preWarmReplacement(j, in) })
	}
}

// onServed completes one request and, while draining, watches for the batch
// to empty.
func (in *fedInstance) onServed(j *scheduler.Job, seq *serving.Sequence) {
	r := seq.Ctx.(*Req)
	d := in.d
	f := d.f
	now := d.c.k.Now()
	r.CompletedAt = now
	r.ObservedAt = now
	d.c.served++
	d.servedTick++ // forecast sample: completions since the last scaler tick
	if f.done != nil {
		if f.par != nil {
			// The completion callback drives router-side state (closed-loop
			// re-issue, open-loop stop accounting): hop it home through the
			// cluster→router mailbox.
			f.par.send(d.c.shard, 0, func() { f.done(r) })
		} else {
			f.done(r)
		}
	}
	if in.state == instDraining && in.job == j {
		in.maybeFinishDrain(j)
	}
}

// maybeFinishDrain schedules the drain completion once the instance has
// nothing live: no queued or running work and no in-flight delivery (a miss
// on the latter would tear the job down with completions undelivered). Runs
// on a zero-delay event so every completion delivered by the current engine
// iteration reaches the client before the job is released.
func (in *fedInstance) maybeFinishDrain(j *scheduler.Job) {
	if in.drainDone || in.eng.Depth() != 0 || in.eng.DeliveryPending() {
		return
	}
	in.drainDone = true
	in.d.c.k.Schedule(0, func() { in.finishDrain(j) })
}

// beginDrain stops the instance accepting work: its engine-waiting requests
// are pulled back and migrated, and the running batch finishes before the
// job is released. Two callers share it: the serve-walltime expiring
// (scaleDown=false, with DrainGrace before the scheduler's walltime timer
// hard-kills the job) and the auto-scaler shrinking an underused pool
// (scaleDown=true — the same machinery, counted separately).
func (in *fedInstance) beginDrain(j *scheduler.Job, scaleDown bool) {
	if in.job != j || in.state != instServing {
		return
	}
	d := in.d
	in.state = instDraining
	if scaleDown {
		d.c.scaleDowns++
	} else {
		d.c.drains++
	}
	// Pull engine-waiting sequences back: collect first (Abort mutates the
	// ring), then tombstone, then re-route. With sibling instances still
	// serving, the ladder's active rung lands them right back on the pool.
	type waiting struct {
		id int64
		r  *Req
	}
	var ws []waiting
	in.eng.EachWaiting(func(s *serving.Sequence) {
		ws = append(ws, waiting{s.ID, s.Ctx.(*Req)})
	})
	for _, w := range ws {
		in.eng.Abort(w.id)
	}
	for _, w := range ws {
		d.c.migrateFrom(w.r)
	}
	in.maybeFinishDrain(j)
}

// finishDrain releases the drained job back to the scheduler (Completed).
func (in *fedInstance) finishDrain(j *scheduler.Job) {
	if in.job != j || in.state != instDraining {
		return
	}
	in.d.c.sched.Complete(j.ID)
}

// onJobEnd is the scheduler's terminal callback: graceful drain completion
// (Completed), an auto-scaler cancel of a still-queued incarnation
// (Cancelled), or the real walltime timer firing with a live batch
// (TimedOut). Either way the incarnation is harvested and leaves the pool;
// survivors migrate, and pending demand with no pool left re-routes (which
// cold-restarts the deployment if the ladder sends it back).
func (in *fedInstance) onJobEnd(j *scheduler.Job, terminal scheduler.State) {
	if in.job != j || in.state == instDead {
		return
	}
	d := in.d
	f := d.f
	spec := f.p.Models[d.model]
	// TimedOut is the walltime timer firing on a live batch; Failed is a
	// replayed kill event through scheduler.Fail. Both die hard: waiting,
	// running, and undelivered work is orphaned and must migrate.
	hardKill := terminal == scheduler.TimedOut || terminal == scheduler.Failed
	in.state = instDead
	in.job = nil
	var orphans []*Req
	if in.eng != nil {
		d.c.busyGPU += time.Duration(int64(in.eng.Stats().BusyTime) * int64(spec.TensorParallel))
		if hardKill {
			in.eng.EachWaiting(func(s *serving.Sequence) { orphans = append(orphans, s.Ctx.(*Req)) })
			in.eng.EachRunning(func(s *serving.Sequence) { orphans = append(orphans, s.Ctx.(*Req)) })
			// Completions of the iteration in flight at kill time never
			// finished on the dead node: they are live work too, invisible
			// to both iterators above (Step already removed them from the
			// batch, Halt will drop their delivery).
			in.eng.EachUndelivered(func(s *serving.Sequence) { orphans = append(orphans, s.Ctx.(*Req)) })
			d.c.hardKills++
		}
		in.eng.Halt()
		// The halted sim's remaining events are no-ops that never touch the
		// inner engine, and every live sequence has been harvested above, so
		// the engine itself can go back to the arena pool for the next
		// incarnation instead of waiting for cell teardown.
		if f.recycle != nil {
			f.recycle(in.eng.eng)
		}
		in.eng = nil
	}
	d.removeInstance(in)
	if len(d.insts) == 0 {
		pend := d.pending
		d.pending = nil
		for _, r := range pend {
			d.c.migrateFrom(r)
		}
	}
	for _, r := range orphans {
		d.c.migrateFrom(r)
	}
}

// removeInstance detaches a dead incarnation, preserving pool order (order
// is a tie-break input for instance selection, so it must be deterministic).
func (d *fedDep) removeInstance(in *fedInstance) {
	for i, x := range d.insts {
		if x == in {
			copy(d.insts[i:], d.insts[i+1:])
			d.insts[len(d.insts)-1] = nil
			d.insts = d.insts[:len(d.insts)-1]
			return
		}
	}
}

// Rungs returns the per-rung routing decision counts.
func (f *Federation) Rungs() FedRungs { return f.rungs }

// Migrations returns how many times requests were re-routed off a dying
// placement.
func (f *Federation) Migrations() int64 { return f.migrations }

// Arrivals returns how many requests entered the federation gateway.
func (f *Federation) Arrivals() int64 { return f.arrivals }

// Completions returns how many requests were completed and delivered — the
// conservation invariant's other half (no request lost, none double-done).
// It sums the per-cluster served counters, which are cluster-side state:
// under the parallel mode, read it only between runs or from a window
// barrier (StopWhen / OnBarrier), never inside a router event.
func (f *Federation) Completions() int64 {
	var n int64
	for _, c := range f.clusters {
		n += c.served
	}
	return n
}

// ClusterStats snapshots per-cluster accounting, folding in any still-live
// engine incarnations (closed-loop runs end mid-flight, including mid-drain:
// a draining incarnation's busy time counts exactly once and it is not
// reported as a live pool member). The snapshot is a pure read — calling it
// twice yields identical stats.
func (f *Federation) ClusterStats() []FedClusterStats {
	out := make([]FedClusterStats, len(f.clusters))
	for i, c := range f.clusters {
		busy := c.busyGPU
		live := 0
		for _, d := range c.deps {
			live += d.liveCount()
			for _, in := range d.insts {
				if in.eng != nil {
					busy += time.Duration(int64(in.eng.Stats().BusyTime) * int64(f.p.Models[d.model].TensorParallel))
				}
			}
		}
		out[i] = FedClusterStats{
			Name:            c.cl.Name(),
			Routed:          c.routed,
			Served:          c.served,
			ColdStarts:      c.coldStarts,
			Drains:          c.drains,
			HardKills:       c.hardKills,
			LiveInstances:   live,
			PeakInstances:   c.peakInstances,
			ScaleUps:        c.scaleUps,
			ScaleDowns:      c.scaleDowns,
			ScaleRefused:    c.scaleRefused,
			PreWarms:        c.preWarms,
			BusyGPUSeconds:  busy.Seconds(),
			TotalGPUs:       f.p.NodesPerCluster * f.p.GPUsPerNode,
			SchedQueuedPeak: c.queuedPeak,
		}
	}
	return out
}
