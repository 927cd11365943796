// Package first is a from-scratch Go reproduction of "FIRST: Federated
// Inference Resource Scheduling Toolkit for Scientific AI Model Access"
// (Tanikanti et al., SC 2025): an Inference-as-a-Service stack for HPC with
// an OpenAI-compatible gateway, a Globus-Compute-style function fabric,
// PBS-like schedulers over simulated GPU clusters, vLLM-style continuous-
// batching serving engines, federation-aware routing, batch mode, and a
// WebUI backend — plus a discrete-event harness that regenerates every
// table and figure in the paper's evaluation. See README.md, DESIGN.md and
// EXPERIMENTS.md.
//
// # Simulation substrate
//
// The evaluation data plane is allocation-free at steady state:
//
//   - internal/sim.Kernel schedules through a self-tuning calendar queue: a
//     power-of-two ring of time buckets (lazy-sorted, width and count
//     re-tuned from the observed schedule) with a single-event fast slot
//     for the ping-pong regime and a 4-ary min-heap as the far-future
//     overflow — O(1) amortized per event on the near-uniform schedules the
//     figure runs produce, versus O(log n) for the heap. Same-instant
//     events dispatch as one batch (one cursor position, no re-scan between
//     callbacks), which is what the saturated open-loop runs hit hardest.
//     The queue's memory and width track its live population, not its
//     throughput: a bucket reclaims its consumed prefix in place when an
//     append would otherwise grow it, the width is measured from the
//     earliest pending events (Brown's sample, blind to far-future
//     timers), and a slot that keeps the cursor for more than 16 dispatch
//     batches narrows the width (the ladder queue's dequeue-driven rule).
//     Kernel.Stats reports rehashes by trigger, compactions, overflow
//     pushes and the peak bucket occupancy; an allocation budget on the
//     20k-request c4 federate cell keeps the end-to-end figure honest.
//     The heap survives as a reference kernel (sim.QueueHeap, first-bench
//     -queue heap): a differential suite proves both queues produce
//     byte-identical results on Fig3, Table1, the storm, and the full
//     rendered report, plus randomized schedule/pop property tests.
//   - internal/serving.Engine keeps its waiting queue in a ring buffer
//     (never re-slicing a pinned backing array), reuses one scratch buffer
//     for StepResult.Completed across iterations, recycles Sequence objects
//     through Release/Submit, and resolves Abort by binary search over the
//     ID-ordered ring plus a lazy tombstone instead of an O(n) scan.
//   - internal/metrics shards its hot instruments: Histogram observations
//     scatter over independently locked slots (one shared bucket-bounds
//     table for all histograms) and Counter increments scatter over
//     cache-line-padded atomic stripes, so neither ever serializes the data
//     plane on a single mutex or contended cache line.
//
// # Sharded gateway front-end
//
// The live gateway's mutable front-end state is sharded
// (internal/gateway/frontend.go): the response cache, the per-user
// rate-limiter table, and their locks split across N power-of-two shards
// keyed by user-sub / cache-key hash, and the response ID counter is
// atomic. Each shard holds a bounded LRU slice of the response cache
// (hot entries survive insertion churn; the old front-end wiped the whole
// map at 4096 entries) and a token-bucket table whose idle entries are
// swept on a TTL, so a storm of one-shot users cannot grow it without
// bound. gateway.Config.Shards tunes the split — 0 derives from
// GOMAXPROCS, 1 reproduces the historical single-lock behaviour —
// reachable via first-gateway's -shards flag and the config file's
// gateway.shards key. The arrival-storm experiment (first-bench -exp
// storm) quantifies the difference: at 10⁶ offered arrivals/s a single
// lock admits ~250k req/s with seconds of queueing delay while 16 shards
// absorb the full storm at microsecond latency. go test -race exercises
// the sharded paths with parallel stress tests, and AllocsPerRun
// regression tests pin the admission hot path (limiter check + cache hit)
// at zero allocations.
//
// # Federation at scale
//
// The federate scenario family (first-bench -exp federate) is the first
// experiment where every layer of the reproduction runs inside one
// simulated system, at beyond-paper scale: 10⁶ open-loop requests plus 10⁴
// closed-loop WebUI sessions flow through the sharded gateway front-end,
// are routed by the real federation.Select priority ladder (§4.5: active →
// capacity → first-configured) over live snapshots, and land on 2-8
// simulated clusters. Each cluster pairs a real inventory
// (cluster.Cluster) with a real PBS-like scheduler — scheduler.Scheduler
// gained a deterministic Config.Timer hook so the DES kernel drives its
// Queued→Starting→Running prologue and walltime machinery with no
// goroutines — and serves three models on continuous-batching engine
// instances. Deployments churn mid-run: serve walltimes expire, instances
// drain (unadmitted work is pulled back via serving.Engine's
// EachWaiting/Abort and migrated to other clusters), batches that outlive
// the drain grace are hard-killed by the scheduler's real TimedOut timer
// (survivors collected via EachRunning and migrated), and pending demand
// cold-restarts deployments through the full scheduler lifecycle —
// competing with background science jobs for GPUs, which is what pushes
// the ladder onto its capacity and first-configured rungs. The experiment
// reports per-rung routing counts, migration counts and migrated-request
// latency, cold starts / drains / hard kills, and per-cluster GPU
// utilization. A differential suite pins the family byte-identical across
// fleet worker counts and calendar/heap kernels; the full-scale suite runs
// in the nightly CI job (make federate-night), with a scaled-down family
// guarding every PR.
//
// The routing row is the per-request cost of that ladder, paid once per
// cluster on every arrival and migration. Each candidate row is built in
// one pass over the deployment's pool (desmodel's fedDep.view: model
// state, queue depth, uncordoned serving count, cordon flag and soonest
// drain together) and written in place into a router-owned scratch slice.
// The capacity rung's free-GPU figure comes from cluster.Cluster.FreeGPUs,
// a counter kept under the inventory lock by Allocate/Release and read
// without it; Status() still builds the full locked snapshot for everyone
// else, and CheckInvariants checks the counter against the nodes. What
// Select receives is unchanged — the same EndpointInfo fields with the
// same values — so the ladder's decisions are too; building the rows and
// running Select is pinned at 0 allocs/op (TestRoutingRowZeroAlloc,
// TestSelectZeroAlloc). desmodel.Collect reads its two latency
// percentiles by in-place selection (desmodel.SelectNth) instead of
// sorting every latency of the run.
//
// # Auto-scaling inside a federated cluster
//
// Each (cluster, model) deployment in the DES federation is a pool of
// 1..MaxInstances engine incarnations (desmodel.AutoScaleParams; the zero
// value pins pools at one instance, the pre-autoscaler behaviour). A
// per-cluster policy tick — one deterministic kernel event per Interval —
// evaluates every pool against two watermarks on queue depth per live
// instance: sustained depth above HiWater (HiSustain consecutive ticks)
// grows the pool, with every growth step paying the scheduler's real
// Queued→Starting→Running cold-start path and competing with background
// science jobs for GPUs; sustained depth below LoWater (LoSustain ticks)
// shrinks it, preferring to cancel an incarnation still waiting in the
// scheduler queue (free) and otherwise draining the emptiest serving
// instance through the same drain/migrate machinery walltime churn uses.
// Growth decisions at the MaxInstances cap are counted as refused. The
// defaults (DefaultAutoScaleParams) are 10 s ticks, HiWater 16, LoWater 2,
// sustain 2/4, cap 4. Three liveness rules are load-bearing, found by the
// randomized property sweep: LoWater is clamped to HiWater/2 (overlapping
// bands let a scale-up immediately satisfy the shrink condition and the
// pool oscillates forever, cancelling every incarnation before its prologue
// completes), a pool with parked demand never shrinks, and a scale-down
// never targets the pool's only live instance. Routing is instance-aware:
// federation.EndpointInfo carries the live instance count and Select
// tie-breaks active endpoints on depth per instance (cross-multiplied, so
// ties stay exact), while inside a pool requests go to the least-loaded
// serving instance — both hot paths pinned at 0 allocs/op (scaler_tick /
// scaler_pick in the BENCH record, plus AllocsPerRun tests).
//
// The autoscale scenario family (first-bench -exp autoscale) is Fig4 beyond
// paper size: open-loop traces whose offered rate and hot model are
// functions of virtual time — "diurnal" swings the rate sinusoidally while
// the hot model rotates each period, "bursty" fires a 4× square-wave burst
// each period — over 2-8 clusters, forcing pools to grow under each wave
// and drain behind it while walltime churn and the priority ladder keep
// firing. The report shows scale-up/scale-down/refused counts, peak
// instances, cold starts, drains, kills, migrations, and utilization; a
// differential suite pins the family byte-identical across fleet worker
// counts and calendar/heap kernels (scaled-down family per PR, full family
// nightly via make autoscale-night).
//
// # Predictive scaling & drain-aware routing
//
// The reactive watermarks above only act after backlog has already built —
// every wave eats one full cold start (prologue + weights load) before new
// capacity serves. Setting AutoScaleParams.Predictive arms two
// forecast-driven pre-warm paths on top of the reactive policy (which keeps
// running unchanged beneath them). Each deployment feeds a desmodel.Forecast
// — a Holt double-exponential smoother (level + trend, fixed-size value
// state, 0 allocs/op on observe and predict; forecast_observe in the BENCH
// record) — with per-tick arrival and completion counts. At each tick the
// scaler projects depth one cold start ahead (PredictSum of arrivals minus
// the completion level over the horizon): when the projection crosses
// HiWater×live while current depth has not, the incarnation starts now, so
// its prologue+load overlaps the wave's rise instead of following it. The
// second path arms a per-incarnation timer one cold start before the
// serve-walltime drain: a pool with standing work and room starts the
// replacement early enough to hand over without a gap (a sibling already on
// the way up does not block it — walltime drains are certain, not
// speculative). Both paths respect MaxInstances and count as PreWarms in
// FedClusterStats (also included in ColdStarts: they ride the same
// scheduler path).
//
// Drain-aware routing closes the other half of the churn penalty: with
// FederationParams.CordonLead set, each serving incarnation is flagged
// cordoned that long before its walltime drain. Inside a pool, least-loaded
// selection passes over cordoned incarnations while any uncordoned sibling
// serves; across clusters, federation.EndpointInfo carries Cordoned and
// DrainingAt, and Select demotes a cordoned endpoint below every other
// viable candidate — but still above first-configured, so work is never
// parked while capacity exists. The live router mirrors this through
// fabric.Deployment.CordonInfo (instances flagged stopping drop out of the
// advertised count). All of it is zero-value-off: with Predictive and
// CordonLead unset, every decision is byte-identical to the reactive
// policy, pinned by the differential families (the autoscale short family
// carries one predictive cell through make check and make par-diff, and the
// full family's predictive twins run reactive-vs-predictive on identical
// traces in the nightly suite and the BENCH record).
//
// # Parallel DES
//
// The federation families can run each cell on a sharded kernel
// (first-bench -par N, experiments.Fleet.Par, desmodel.NewParFederation):
// the gateway/router side lives on shard 0 and each cluster — scheduler,
// deployment pools, engines, background churn, auto-scaler — on its own
// sim.Kernel shard, advanced together by sim.ShardSet under conservative
// (Chandy–Misra–Bryant-style) synchronization. The contract has three
// parts. Window: every round computes W = min over shards of the next
// pending event time and executes all events in [W, W+L) on every shard,
// where L is the lookahead; shards within a window run concurrently on up
// to Par window executors (Par=1 is the zero-goroutine reference the
// par-diff suite pins against). Lookahead: L is the minimum cross-shard
// interaction latency — the federation funds it with ParParams.CrossLatency
// (default 50 ms), charged on every router↔cluster hop (request delivery,
// migration return, completion callback) — so a message sent during the
// current window can only land at or after W+L, never inside an interval a
// peer shard has already executed. Mailboxes: cross-shard sends enqueue
// into per-(src,dst) ordered mailboxes; at the window barrier the
// coordinator drains them in fixed (destination, source, FIFO) order,
// assigning destination sequence numbers deterministically, so identical
// configurations replay identical event interleavings regardless of
// executor count or queue kind. Zero lookahead would force W+L = W —
// every barrier re-synchronizes at the very next event and the "parallel"
// run degrades to the sequential kernel with extra coordination; that is
// why sim.MinLookahead exists and why the parallel mode is a *model
// variant* (snapshot-based routing reads, explicit cross-shard latency)
// rather than a byte-identical replacement for Par=0: router decisions
// read cluster state snapshots published at barriers instead of live
// fields mid-window. Within the parallel mode, byte-identity is total:
// `make par-diff` (a required CI job) pins federate, autoscale, and the
// livefed calibration twin identical across Par 1/2/8 × calendar/heap
// against the Par=1 reference, with full-scale versions in the nightly
// matrix; randomized-topology property tests (2–8 clusters, random
// lookahead, kill/migration/BG schedules) assert conservation,
// exactly-once completion, and digest equality. Wall-clock speedup
// requires GOMAXPROCS > 1; on a single-core host the executors serialize
// and the federate_par BENCH series records coordination overhead, not
// parallelism. The per-hop mailbox cost is pinned at 0 allocs/op steady
// state (shard_mailbox micro).
//
// # Resilience & failover
//
// The live stack survives endpoint death, network faults, and mid-stream
// disconnects through internal/resilience: a retry Policy (capped
// exponential backoff with full jitter, per-attempt timeouts, Retry-After
// honoring — the client SDK replays JSON calls and unconsumed streams under
// client.WithRetry, sleeping through an injectable client.WithSleep so
// scaled-clock harnesses don't stall on wall time), a per-endpoint circuit
// Breaker (closed → open → half-open with a sliding-window failure rate,
// probe admission, and a CanAttempt hot path pinned at 0 allocs/op — the
// breaker_allow micro series), and a passive health Set fed by every routed
// response. The gateway consults breakers via federation.Router's
// RouteAvoiding ladder (open endpoints are skipped; a half-open endpoint
// admits one probe), fails a request over to the next-best cluster on
// endpoint error (failover_attempts / failover_success counters), and
// degrades gracefully when every candidate's breaker is open: 503 + a
// Retry-After derived from the soonest breaker reopen, counted as
// load_shed. Endpoint-side 401s trigger one token-cache recheck
// (auth_rechecks) instead of failover. Everything is time-parameterized
// (breakers never read a wall clock) and zero-value-inert: a zero Policy is
// one attempt, a zero BreakerConfig disables breaker bookkeeping, so the
// resilience layer changes nothing until configured.
//
// The livefed family (first-bench -exp livefed) puts that layer under fire
// on the LIVE stack — real client SDK, sharded gateway, breaker-aware
// router, fabric hub, engines on a 20000× scaled clock — via
// internal/chaosnet, a seeded fault-injecting http.RoundTripper (refused
// dials, synthesized 503 bursts with Retry-After, latency spikes, SSE cuts
// mid-stream) plus an endpoint-side fault-burst schedule
// (chaosnet.Windows) that sweeps failures across endpoints round-robin,
// credential-rejection lanes, and a hard kill + cold restart of a victim
// endpoint mid-run through the real scheduler. Every draw is a pure
// function of (seed, request key, attempt), so the fault schedule — and
// the whole outcome census — replays identically across runs; breaker
// timing runs on a logical clock advanced per issued request. The
// invariant under fire is zero lost requests: every request resolves as
// success, failover-success, shed, or a typed client error, never a hang
// or an untyped failure (make chaos gates this under the race detector).
//
// Calibration methodology. Each live cell executes a single serializable
// churn plan — a chaosnet.Schedule: endpoint kills, cold restarts, and
// background GPU claims/releases keyed by request index, plus the fault
// windows and the arrival rate measured during the live run — and the DES
// federation twin replays that exact schedule (desmodel.ReplayParams).
// Index time is the shared time base: the live driver fires every event
// due at index i before issuing request i, and the twin's open-loop driver
// calls ReplayAdvance(i) before arrival i. The twin routes with real
// resilience.Breakers in the live gateway's configuration on the same
// one-second-per-request logical clock, draws the same pure
// Windows.Faulty(seed, index, endpoint, attempt) fault function, and
// re-routes a faulted placement to the next ladder candidate — so twin
// migrations-per-request is the DES name for the gateway's
// failover-attempts-per-request. The comparison is then gated, not
// eyeballed: every cell's live-vs-twin routing-rung shares must agree
// within ±5 percentage points and the failover-vs-migration rates within a
// 2× ratio (experiments.Calibrate; both sides under 0.01/req is vacuously
// calibrated). The BENCH_<n>.json livefed block records the verdict
// (c<N>_calib_pass, _calib_rung_gap_pts, _calib_rate_ratio) next to the
// share columns, `make calibrate` enforces the gate per-PR on the short
// cell, and `make livefed-night` fails the nightly sweep on any trip,
// preserving the divergent cell's executed schedule under calib-artifacts/
// — the schedule is the complete reproduction recipe, so the twin can be
// re-run against it offline byte-for-byte.
//
// Experiments fan out: internal/experiments.Fleet runs the independent
// cells of each figure/table (rate points, concurrency×window cells,
// ablation arms) on parallel goroutines. Every cell owns a private kernel
// and deterministic seeds, so fleet runs are byte-identical to the
// sequential reference (workers=1) at any worker count. Each worker owns a
// desmodel.Arena that recycles its kernel and serving engines across the
// cells it executes (Reset, not reallocate) — reset structures are
// behaviourally identical to fresh ones, so arena reuse never perturbs
// determinism. The desmodel drivers (engine iteration loop, hub lanes)
// run on closures bound once at construction, so saturated loops schedule
// no fresh closure per event.
//
// cmd/first-bench renders the paper-vs-measured report (-workers selects
// the fleet size) and, with -json (or -json-out PATH), appends a
// machine-readable BENCH_<n>.json perf record — wall time plus headline
// metrics per experiment, plus substrate micro-benchmarks (ns/op and
// allocs/op) — so the substrate's performance trajectory accumulates
// across PRs. `make bench` does the same via the Makefile, and `make
// bench-diff` (first-bench -diff) compares the two newest records,
// failing on >20% slowdowns or any extra allocations per op (experiment
// walls and micro series record the fastest of three repetitions, so host
// noise cannot fake a regression; with fewer than two records, e.g. a fork
// checkout, the diff skips cleanly instead of failing). Records accumulate
// one per session on whatever machine that session got, so thresholds are
// normalized by per-class host-drift medians — experiment walls and micro
// ns/op drift apart when a contended host inflates multi-ms walls without
// slowing tight loops — and a timing series that regressed only against
// the newest record, not the one before it, is treated as that record's
// per-series outlier rather than a code regression (allocation counts,
// being deterministic, are exempt from both defenses). `make race` runs
// the tier-1 suite under the race detector; `make chaos` races the short
// livefed storm; `make calibrate` enforces the sim-vs-real tolerance gate
// on the same cell; `make par-diff` pins the parallel kernel byte-identical
// to its reference; `make check` includes a brief fuzz pass over the
// openaiapi request and SSE parsers. All of these run as required CI jobs
// (.github/workflows/ci.yml) — check on an {oldstable, stable} Go matrix
// with module/build caching, bench records and the race/chaos/calibrate/
// par-diff logs uploaded as artifacts; PR pushes cancel superseded runs of
// the same ref and every job carries a timeout — and a scheduled nightly
// matrix runs what is too slow per-PR as independent legs with per-leg log
// artifacts: govulncheck + 60 s of parser fuzzing, the full-scale federate
// and autoscale determinism suites (sequential and sharded-parallel
// kernels), and the full livefed chaos sweep, which fails on any
// calibration-gate trip and uploads divergent schedules.
//
// # Static analysis
//
// The repo guards its own invariants with firstlint (cmd/firstlint,
// internal/lint), a stdlib-only multichecker in the go/analysis idiom:
// `make lint` runs it over ./... and is part of the tier-1 `make check`
// chain and a required CI job. Four analyzers encode the bug classes past
// PRs actually hit:
//
//   - det — in the deterministic packages (internal/sim, desmodel,
//     federation, scheduler, cluster, serving, and the experiments
//     report/benchjson files) flags wall-clock reads (time.Now/Since),
//     draws from the global math/rand source, goroutine launches, and map
//     ranges whose iteration order is not visibly sorted before it can
//     escape into reports or event schedules.
//   - clockonly — forbids time.Sleep/After/AfterFunc/Tick/NewTimer/
//     NewTicker everywhere outside internal/clock, so every wait flows
//     through clock.Clock (or clock.SleepCtx) where scaled harnesses stay
//     in control — the PR 6 WithSleep bug class.
//   - seedflow — polices seed derivation in the seed-minting packages
//     (chaosnet, workload, experiments, desmodel): ad-hoc rand.New/
//     NewSource streams, fnv hashing never finalized through the shared
//     splitmix64 Mix, and xor-folds of two or more variables without a Mix
//     in the chain — the PR 7 cell-seed collision class.
//   - hotpath — cross-checks //first:hotpath annotations three ways: every
//     function called directly from a 0-alloc AllocsPerRun pin must carry
//     the annotation, every annotation must be reachable from some pin
//     through the package's static call graph, and the compiler's escape
//     analysis (go build -gcflags=-m, parsed by the driver) must show no
//     heap escapes inside an annotated body.
//
// Suppressions are explicit and audited: `//firstlint:allow <analyzer>
// <reason>` silences that analyzer on its own line (trailing comment) or
// the next code line (standalone comment); the reason is mandatory, unknown
// verbs or analyzer names are findings, and an allow that suppresses
// nothing is itself reported, so suppressions cannot rot. `//first:hotpath
// [note]` is only valid in a function declaration's doc comment. Analyzer
// fixtures live under internal/lint/testdata/src with `// want` expectations
// run by internal/lint/linttest. The framework mirrors the
// golang.org/x/tools/go/analysis API shape (Analyzer/Pass/Reportf) but is
// built on go/ast + go/types with the source importer, so it needs no
// network or vendored dependencies; migrating onto x/tools/go/analysis and
// its multichecker when the dependency is available is a mechanical swap.
package first
