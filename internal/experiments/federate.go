package experiments

import (
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// The federate experiment family drives the paper's §4.5 federation layer at
// beyond-paper scale: every request flows through the sharded gateway
// front-end, the real federation.Select priority ladder, a real PBS-like
// scheduler per cluster (kernel-driven), and continuous-batching engine
// instances — with mid-run endpoint churn (walltime drains, hard kills, cold
// restarts through Queued→Starting→Running) migrating requests between
// clusters. It is the first scenario where every layer of the reproduction
// runs inside one simulated system.

// FederateCell is one cell of the family: either an open-loop Poisson trace
// (OpenLoopReqs > 0) or a closed-loop WebUI session population.
type FederateCell struct {
	Clusters     int
	OpenLoopReqs int
	RatePerSec   float64
	Sessions     int
	WindowS      int
	ThinkS       int
	// Churn tempo overrides in seconds (0 = DefaultFederationParams): short
	// horizons need faster walltimes to exercise drains and migration.
	ServeWalltimeS int
	DrainGraceS    int
	BGPeriodS      int
	// CordonLeadS, when positive, flags each serving incarnation that many
	// seconds ahead of its walltime drain so the routing ladder steers new
	// work away before the drain fires — the drain-aware twin of a plain
	// open-loop cell (same trace seed), reported as mode "cordon".
	CordonLeadS int

	// Replay turns the cell into a live-storm calibration twin: all churn
	// comes from the recorded schedule (kills, cold restarts, background
	// GPU claims at the live request indices), the single live model is
	// served on the live inventory, and the self-scheduled tempo above is
	// off. Breaker and MaxAttempts mirror the live gateway so avoidance
	// and failover budgets match.
	Replay          *chaosnet.Schedule
	ReplayModel     string
	NodesPerCluster int
	GPUsPerNode     int
	Breaker         resilience.BreakerConfig
	MaxAttempts     int
}

// params resolves the cell's federation parameters.
func (c FederateCell) params() desmodel.FederationParams {
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
	if c.CordonLeadS > 0 {
		p.CordonLead = time.Duration(c.CordonLeadS) * time.Second
	}
	if c.Replay != nil {
		p.Models = []perfmodel.ModelSpec{perfmodel.Default.MustLookup(c.ReplayModel)}
		p.NodesPerCluster = c.NodesPerCluster
		p.GPUsPerNode = c.GPUsPerNode
		// Walltime churn and periodic background jobs are the replayed
		// schedule's job now; the self-scheduled tempo would double-count
		// them. The serve walltime just needs to outlive any horizon.
		p.ServeWalltime = 100_000_000 * time.Second
		p.DrainGrace = time.Second
		p.BGPeriod = 0
		p.Replay = &desmodel.ReplayParams{
			Schedule:    *c.Replay,
			Breaker:     c.Breaker,
			MaxAttempts: c.MaxAttempts,
		}
	}
	return p
}

// FederateCells is the full-scale family the ROADMAP calls for: 10⁶
// open-loop requests through a 4-cluster federation (plus 2- and 8-cluster
// sweep points) and 10⁴ closed-loop WebUI sessions.
var FederateCells = []FederateCell{
	{Clusters: 2, OpenLoopReqs: 200_000, RatePerSec: 200},
	{Clusters: 4, OpenLoopReqs: 1_000_000, RatePerSec: 200},
	{Clusters: 8, OpenLoopReqs: 200_000, RatePerSec: 200},
	// Drain-aware twin of the c8 cell above: identical trace, serving
	// incarnations cordoned 30 s before their walltime drain so the ladder
	// stops feeding them — the record's migration-penalty comparison. The
	// twin needs the wide topology: cordoning only changes a routing
	// decision when an uncordoned alternative exists (idle capacity or an
	// active sibling), and the packed 2-cluster sweep point offers neither,
	// so its twin would ride the dying instance anyway (rung 2b) and
	// reproduce the drain-blind trace byte for byte.
	{Clusters: 8, OpenLoopReqs: 200_000, RatePerSec: 200, CordonLeadS: 30},
	{Clusters: 4, Sessions: 10_000, WindowS: 300, ThinkS: 30,
		ServeWalltimeS: 120, DrainGraceS: 60, BGPeriodS: 150},
}

// FederateCellsShort is the scaled-down family for per-PR differential
// tests; the nightly CI job runs the full one (see TestFederateFullScale).
var FederateCellsShort = []FederateCell{
	{Clusters: 2, OpenLoopReqs: 20_000, RatePerSec: 200,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80},
	{Clusters: 4, OpenLoopReqs: 40_000, RatePerSec: 200,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80},
	{Clusters: 3, Sessions: 1_000, WindowS: 120, ThinkS: 30,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80},
}

// FederateRow is one cell's results.
type FederateRow struct {
	Clusters int
	Mode     string // "open", "cordon" (drain-aware open twin), or "webui"
	Offered  int    // open-loop trace length or issued session turns
	M        desmodel.Metrics

	Rungs      desmodel.FedRungs
	Migrations int64
	// MigratedMedianS is the median end-to-end latency of migrated requests
	// (the churn penalty clients actually observe).
	MigratedMedianS float64
	ColdStarts      int
	Drains          int
	HardKills       int
	// UtilMeanPct / UtilMaxPct are cluster GPU-busy utilization over the
	// horizon (mean and busiest cluster).
	UtilMeanPct float64
	UtilMaxPct  float64
	// SchedQueuedPeak is the deepest scheduler queue across clusters.
	SchedQueuedPeak int
	// ReplayTrips counts twin breaker trips under a replayed schedule
	// (calibration column against the live gateway's trip count).
	ReplayTrips int64
}

// federateEventBudget aborts a runaway cell: background jobs self-schedule
// forever, so a request-accounting bug would otherwise spin the kernel
// silently instead of failing loudly.
const federateEventBudget = 400_000_000

// RunFederate regenerates the full family on the default parallel fleet.
func RunFederate(seed int64) []FederateRow { return RunFederateOn(Parallel, seed) }

// RunFederateOn regenerates the full family on f.
func RunFederateOn(f Fleet, seed int64) []FederateRow {
	return RunFederateCellsOn(f, seed, FederateCells)
}

// RunFederateCellsOn fans the given cells over the fleet. Each cell's RNG
// seeds derive from (seed, cell shape) only, so results are byte-identical
// across worker counts and queue kinds.
func RunFederateCellsOn(f Fleet, seed int64, cells []FederateCell) []FederateRow {
	rows := make([]FederateRow, len(cells))
	if f.Par > 0 {
		// Sharded conservative-window mode: each cell builds its own shard
		// set (no arena — shards own their kernels), traces unchanged.
		f.Run(len(cells), func(i int) {
			c := cells[i]
			if c.OpenLoopReqs > 0 {
				rows[i] = federateOpenPar(f, c, seed)
			} else {
				rows[i] = federateWebUIPar(f, c, seed)
			}
		})
		return rows
	}
	f.RunArena(len(cells), func(i int, a *desmodel.Arena) {
		c := cells[i]
		if c.OpenLoopReqs > 0 {
			rows[i] = federateOpen(a, c, seed)
		} else {
			rows[i] = federateWebUI(a, c, seed)
		}
	})
	return rows
}

// federateOpen drives an open-loop Poisson trace; arrivals self-schedule so
// the kernel never holds the whole trace, and the run stops at the last
// completion (background churn events would otherwise run forever).
func federateOpen(a *desmodel.Arena, c FederateCell, seed int64) FederateRow {
	k := a.Begin()
	k.MaxEvents = federateEventBudget
	defer func() { k.MaxEvents = 0 }()
	p := c.params()
	n := c.OpenLoopReqs
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
	idx := 0
	var step func()
	step = func() {
		pt, ot := spec.SampleLengths(rng)
		r := &desmodel.Req{ID: idx + 1, PromptTok: pt, OutputTok: ot, Model: rng.Intn(models)}
		reqs[idx] = r
		// Under replay this fires the schedule's churn events due at this
		// index before the arrival routes — the same ordering the live
		// driver uses (kill/restart/claim, then issue). No-op otherwise.
		sys.ReplayAdvance(idx)
		sys.Arrive(r)
		idx++
		if idx < n {
			k.Schedule(time.Duration(rng.Exp(gapMean)), step)
		}
	}
	k.Schedule(time.Duration(rng.Exp(gapMean)), step)
	end := k.Run(0)
	return federateRow(sys, c, openMode(c), n, reqs, end)
}

// openMode labels an open-loop cell: drain-aware twins report as "cordon"
// so reports and bench records keep the reactive baseline's keys intact.
func openMode(c FederateCell) string {
	if c.CordonLeadS > 0 {
		return "cordon"
	}
	return "open"
}

// federateWebUI drives closed-loop WebUI chat sessions (stateful history,
// think time) against the federation; each session sticks to one model.
func federateWebUI(a *desmodel.Arena, c FederateCell, seed int64) FederateRow {
	k := a.Begin()
	k.MaxEvents = federateEventBudget
	defer func() { k.MaxEvents = 0 }()
	p := c.params()
	think := time.Duration(c.ThinkS) * time.Second
	loop := newClosedLoop(k, workload.WebUI(), seed+int64(c.Clusters)+int64(c.Sessions), c.Sessions, think)
	loop.enableChatHistory(8192)
	models := len(p.Models)
	loop.assign = func(r *desmodel.Req) { r.Model = r.Session % models }
	sys := desmodel.NewFederationIn(a, p, loop.onDone)
	loop.start(sys)
	window := time.Duration(c.WindowS) * time.Second
	end := k.Run(window)
	return federateRow(sys, c, "webui", loop.issued, loop.finished, end)
}

func federateRow(sys *desmodel.Federation, c FederateCell, mode string, offered int, reqs []*desmodel.Req, end sim.Time) FederateRow {
	row := FederateRow{
		Clusters:    c.Clusters,
		Mode:        mode,
		Offered:     offered,
		M:           desmodel.Collect(reqs),
		Rungs:       sys.Rungs(),
		Migrations:  sys.Migrations(),
		ReplayTrips: sys.ReplayBreakerTrips(),
	}
	var migrated []float64
	for _, r := range reqs {
		if r != nil && r.Migrations > 0 && !r.Failed && r.ObservedAt > 0 {
			migrated = append(migrated, sim.Sec(r.ObservedAt-r.ArrivalAt))
		}
	}
	if len(migrated) > 0 {
		row.MigratedMedianS = desmodel.SelectNth(migrated, len(migrated)/2)
	}
	horizon := sim.Sec(end)
	var utilSum float64
	for _, cs := range sys.ClusterStats() {
		row.ColdStarts += cs.ColdStarts
		row.Drains += cs.Drains
		row.HardKills += cs.HardKills
		if cs.SchedQueuedPeak > row.SchedQueuedPeak {
			row.SchedQueuedPeak = cs.SchedQueuedPeak
		}
		util := 0.0
		if horizon > 0 && cs.TotalGPUs > 0 {
			util = 100 * cs.BusyGPUSeconds / (float64(cs.TotalGPUs) * horizon)
		}
		utilSum += util
		if util > row.UtilMaxPct {
			row.UtilMaxPct = util
		}
	}
	if c.Clusters > 0 {
		row.UtilMeanPct = utilSum / float64(c.Clusters)
	}
	return row
}
