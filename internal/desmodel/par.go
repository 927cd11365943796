package desmodel

// Parallel federation mode: the routing plane and every cluster run on their
// own sim.Kernel shard under sim.ShardSet's conservative windows, exchanging
// work through the barrier-drained mailboxes. See the "Parallel DES" section
// of doc.go for the full contract; the short version:
//
//   - Shard 0 is the router: gateway lanes, the Select ladder, rung and
//     migration counters, the replay cursor, and the arrival/completion
//     drivers. Shards 1..Clusters each own one cluster: its scheduler,
//     deployment pools, engine incarnations, background churn, and scaler.
//   - Every cross-plane interaction pays CrossLatency, which doubles as the
//     window lookahead: routed requests ride router→cluster mailboxes,
//     migrations and completion callbacks ride cluster→router mailboxes,
//     and replayed churn commands ride router→cluster mailboxes.
//   - The ladder routes over per-cluster snapshots published at window
//     barriers — bounded-staleness state, like a live federation's status
//     poller — instead of the sequential mode's same-kernel live reads.
//
// That snapshot semantics is why parallel runs are a model *variant*, not a
// re-execution of the sequential model: Par=0 keeps the sequential
// federation byte-for-byte, and the differential suite instead pins every
// parallel configuration (worker counts × queue kinds) byte-identical to
// the single-worker parallel reference.

import (
	"time"

	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// DefaultCrossLatency is the default minimum cross-cluster interaction
// latency (= conservative lookahead): a routing decision, migration, or
// churn command reaches another cluster no sooner than this. 50ms is the
// order of a WAN hop between federated sites — small against the scenarios'
// 30s prologues and 100ms+ serve times, large enough that a window holds
// thousands of events at storm arrival rates.
const DefaultCrossLatency = 50 * time.Millisecond

// ParParams configure the parallel federation mode.
type ParParams struct {
	// Workers is the window-executor goroutine count (clamped to the shard
	// count). 1 is the parallel reference configuration: identical model,
	// zero goroutines.
	Workers int
	// CrossLatency is the cross-shard interaction latency and conservative
	// lookahead; 0 takes DefaultCrossLatency.
	CrossLatency time.Duration
	// MaxEvents, when positive, arms each shard's runaway-model guard.
	MaxEvents uint64
}

// parState is a sharded Federation's window machinery.
type parState struct {
	ss   *sim.ShardSet
	look sim.Time
}

// send is the federation's one cross-shard primitive: deliver fn on shard
// dst one cross-latency after shard src's current time.
func (ps *parState) send(src, dst int, fn func()) {
	ps.ss.Send(src, dst, ps.look, fn)
}

// fedDepSnap is one deployment's barrier-published snapshot: the complete
// routing row endpointInfo hands the ladder, plus the pool size
// routeReplay's "does the pool exist" check reads.
type fedDepSnap struct {
	row  federation.EndpointInfo
	pool int
}

// publishSnaps refreshes every cluster's routing snapshot. Barrier context
// only (single-threaded, all shards joined).
func (f *Federation) publishSnaps() {
	for _, c := range f.clusters {
		free := c.cl.FreeGPUs()
		for m, d := range c.deps {
			s := &c.snap[m]
			s.row = federation.EndpointInfo{ID: c.name, FreeGPUs: free, NeededGPUs: f.p.Models[m].TensorParallel}
			d.view(&s.row)
			s.pool = len(d.insts)
		}
	}
}

// NewParFederation builds the scenario sharded: router on shard 0, one
// cluster per shard after it, conservative windows of CrossLatency. Drivers
// schedule arrivals on RouterKernel() and run the scenario with RunPar.
func NewParFederation(p FederationParams, par ParParams, q sim.QueueKind, done func(*Req)) *Federation {
	p = p.withDefaults()
	if par.CrossLatency <= 0 {
		par.CrossLatency = DefaultCrossLatency
	}
	ss := sim.NewShardSet(q, p.Clusters+1, par.CrossLatency, par.Workers)
	if par.MaxEvents > 0 {
		for i := 0; i <= p.Clusters; i++ {
			ss.Shard(i).MaxEvents = par.MaxEvents
		}
	}
	ps := &parState{ss: ss, look: par.CrossLatency}
	f := newFederation(ss.Shard(0), p, func(c *fedCluster, m perfmodel.ModelSpec, onC func(*serving.Sequence)) *EngineSim {
		return MustEngineSim(c.k, m, p.GPU, 0, onC)
	}, done, ps)
	ss.OnBarrier(func(sim.Time) { f.publishSnaps() })
	// First window's routing needs boot-state snapshots (replay pre-starts
	// pools before any barrier has run).
	f.publishSnaps()
	return f
}

// RouterKernel returns shard 0's kernel — where drivers schedule arrivals
// and closed-loop think-time events.
func (f *Federation) RouterKernel() *sim.Kernel { return f.k }

// RunPar executes the sharded scenario: windows until every shard drains,
// until is exceeded, or stop (evaluated at each window barrier; may be nil)
// returns true. It returns the virtual time the run ended at, panicking if
// called on a sequentially-built Federation.
func (f *Federation) RunPar(until sim.Time, stop func() bool) sim.Time {
	if f.par == nil {
		panic("desmodel: RunPar on a sequential Federation; use NewParFederation")
	}
	if stop != nil {
		f.par.ss.StopWhen(func(sim.Time) bool { return stop() })
	}
	return f.par.ss.Run(until)
}
