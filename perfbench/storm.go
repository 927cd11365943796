package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/experiments"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/scheduler"
)

// live-storm is the nightly livefed c2 storm on one closed-loop client,
// rebuilt from the pieces the livefed family exports (the cell's
// BuildSchedule, chaosnet, the fault windows, RegisterFunction) so each request's
// wall time can be measured. With one client the outcome of every request
// is a function of the seed alone.
var (
	stormCell = experiments.LiveFedCell{Clusters: 2, Requests: 2000, StreamEvery: 5, MaxAttempts: 3,
		Net:           chaosnet.Config{PRefuse: 0.02, P5xx: 0.02, RetryAfter: time.Second, PCutStream: 0.03, CutAfterBytes: 48},
		Faults:        chaosnet.Windows{BurstEvery: 200, BurstLen: 40, PFault: 0.85, PBackground: 0.01},
		PUnauthorized: 0.005, KillEvery: 400, KillDownFor: 500,
		BGEvery: 500, BGGPUs: 12, BGHoldFor: 300}
	smokeStormCell = experiments.LiveFedCell{Clusters: 2, Requests: 300, StreamEvery: 5, MaxAttempts: 3,
		Net:           chaosnet.Config{PRefuse: 0.02, P5xx: 0.02, RetryAfter: time.Second, PCutStream: 0.03, CutAfterBytes: 48},
		Faults:        chaosnet.Windows{BurstEvery: 100, BurstLen: 20, PFault: 0.85, PBackground: 0.01},
		PUnauthorized: 0.005, KillEvery: 80, KillDownFor: 100,
		BGEvery: 100, BGGPUs: 12, BGHoldFor: 60}
)

const (
	stormModel         = perfmodel.Llama8B
	stormNodes         = 4
	stormGPUsPerNode   = 4
	stormPromptFormat  = "livefed req %06d"
	stormTokenRefresh  = 50 // requests between re-logins
	stormReadyDeadline = 30 * time.Second
)

var errInjectedFault = errors.New("perfbench: injected endpoint fault")

// stormCellSeed derives the cell's chaos seed the way the livefed family
// does: the whole cell config folded through FNV, then splitmix64.
func stormCellSeed(c experiments.LiveFedCell, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%+v|%+v|%g|%d|%d|%d|%d|%d",
		c.Clusters, c.Requests, c.StreamEvery, c.MaxAttempts,
		c.Net, c.Faults, c.PUnauthorized,
		c.KillEvery, c.KillDownFor, c.BGEvery, c.BGGPUs, c.BGHoldFor)
	return chaosnet.Mix(uint64(seed) ^ h.Sum64())
}

// stormBreaker is the livefed gateway's breaker configuration.
func stormBreaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		Window: 60 * time.Second, Buckets: 12, MinSamples: 4,
		FailureRate: 0.5, OpenFor: 10 * time.Second, HalfOpenProbes: 1,
	}
}

// stormCensus is a storm's outcome count; it must repeat exactly.
type stormCensus struct {
	OK, FailoverOK, Shed, TypedErr, Untyped int
}

// stormRun is one storm's measurements.
type stormRun struct {
	census   stormCensus
	lat      latencies // successes
	good     int       // successes with TTFT within goodTTFT
	cost     procDelta
	restarts int // cold restarts the schedule fired
	untyped  []error
}

// stormSystem is a booted storm installation.
type stormSystem struct {
	sys   *core.System
	names []string
	clk   *countingClock
	ticks *atomic.Int64 // breaker logical clock: one tick per request
}

// bootStorm builds the storm's multi-cluster installation and waits until
// every endpoint serves the model.
func bootStorm(c experiments.LiveFedCell, traced bool) (*stormSystem, error) {
	s := &stormSystem{ticks: new(atomic.Int64)}
	specs := make([]core.ClusterSpec, c.Clusters)
	for i := range specs {
		s.names = append(s.names, fmt.Sprintf("lf%d", i))
		specs[i] = core.ClusterSpec{Name: s.names[i], Nodes: stormNodes, GPUsPerNode: stormGPUsPerNode, Backfill: true}
	}
	epoch := time.Unix(1_700_000_000, 0)
	clk, cc := newLiveClock(traced)
	s.clk = cc
	var err error
	s.sys, err = core.NewSystem(core.Config{
		Clock:    clk,
		Clusters: specs,
		Deployments: []core.DeploymentSpec{{Model: stormModel, Clusters: s.names,
			Config: fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1}}},
		Gateway: gateway.Config{
			Retry:   resilience.Policy{MaxAttempts: c.MaxAttempts},
			Breaker: stormBreaker(),
			BreakerClock: func() time.Time {
				return epoch.Add(time.Duration(s.ticks.Load()) * time.Second)
			},
		},
	})
	if err != nil {
		return nil, err
	}
	if err = s.sys.RegisterUser("chaos", "chaos@anl.gov"); err == nil {
		err = waitReady(s.sys, stormReadyDeadline)
	}
	if err != nil {
		s.sys.Close()
		return nil, err
	}
	return s, nil
}

// storm drives one full storm on a freshly booted system.
func storm(c experiments.LiveFedCell, seed int64, traced bool) (stormRun, *stormSystem, *liveTrace, error) {
	var run stormRun
	s, err := bootStorm(c, traced)
	if err != nil {
		return run, nil, nil, err
	}
	sys := s.sys
	cellSeed := stormCellSeed(c, seed)
	var tr *liveTrace
	if traced {
		tr = newLiveTrace()
	}

	// Endpoint-side faults: the fault windows plus the credential-rejection
	// lane, drawn per (request, endpoint, attempt).
	for epIdx, name := range s.names {
		seen := map[int]int{}
		var mu sync.Mutex
		ep := sys.Endpoints["ep-"+name]
		ep.RegisterFunction(fabric.FnInfer, inferFn(ep, tr, func(req *fabric.InferRequest) error {
			idx := promptIndex(req.Prompt)
			if idx < 0 {
				return nil
			}
			mu.Lock()
			attempt := seen[idx]
			seen[idx] = attempt + 1
			mu.Unlock()
			if c.PUnauthorized > 0 && chaosnet.Draw(cellSeed^0x401, uint64(idx)<<20^uint64(epIdx), uint32(attempt), 6) < c.PUnauthorized {
				return fabric.ErrUnauthorized
			}
			if c.Faults.Faulty(cellSeed, idx, epIdx, c.Clusters, attempt) {
				return errInjectedFault
			}
			return nil
		}))
	}

	netCfg := c.Net
	netCfg.Seed = cellSeed ^ 0xc11a05
	var handler http.Handler = sys.Gateway
	if tr != nil {
		handler = tr.handler(handler)
	}
	var rt http.RoundTripper = chaosnet.New(netCfg, sys.Clock, client.HandlerRoundTripper(handler))
	if tr != nil {
		rt = countingTransport{next: rt, n: &tr.roundTrips}
	}
	cli := client.New("http://livefed.local", "",
		client.WithHTTPClient(&http.Client{Transport: rt}),
		client.WithRetry(resilience.Policy{MaxAttempts: c.MaxAttempts}),
		client.WithSleep(func(ctx context.Context, d time.Duration) error {
			sys.Clock.Sleep(d)
			return ctx.Err()
		}))
	refresh := func() error {
		g, err := sys.Login("chaos")
		if err == nil {
			cli.SetToken(g.AccessToken)
		}
		return err
	}
	isExpiredToken := func(err error) bool {
		var apiErr *client.APIError
		return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusUnauthorized &&
			strings.Contains(apiErr.Message, "token expired")
	}

	// Churn: kills with cold restarts and background GPU claims, fired at
	// their request indices.
	sched := c.BuildSchedule(cellSeed)
	cursor := sched.Cursor()
	bgJobs := make([][]*scheduler.Job, c.Clusters)
	var fireErr error
	fire := func(ev chaosnet.Event) {
		name := s.names[ev.Endpoint]
		ep := sys.Endpoints["ep-"+name]
		switch ev.Kind {
		case chaosnet.EventKill:
			ep.Undeploy(stormModel)
		case chaosnet.EventRestart:
			run.restarts++
			if _, err := ep.Deploy(fabric.DeploymentConfig{Model: stormModel, MinInstances: 1, MaxInstances: 1}); err != nil {
				fireErr = err
			}
		case chaosnet.EventBGClaim:
			job, err := sys.Schedulers[name].Submit(scheduler.JobSpec{Name: "science-batch", User: "bg", GPUs: ev.GPUs})
			if err != nil {
				fireErr = err
			}
			bgJobs[ev.Endpoint] = append(bgJobs[ev.Endpoint], job)
		case chaosnet.EventBGRelease:
			if q := bgJobs[ev.Endpoint]; len(q) > 0 {
				bgJobs[ev.Endpoint] = q[1:]
				sys.Schedulers[name].Cancel(q[0].ID)
			}
		}
	}

	failovers := sys.Gateway.Metrics().Counter("failover_success")
	before := readProc()
	for i := 0; i < c.Requests; i++ {
		if i%stormTokenRefresh == 0 {
			if err := refresh(); err != nil {
				return run, s, tr, err
			}
		}
		cursor.Advance(i, fire)
		if fireErr != nil {
			return run, s, tr, fireErr
		}
		s.ticks.Add(1)
		req := openaiapi.ChatCompletionRequest{
			Model:     stormModel,
			Messages:  []openaiapi.Message{{Role: "user", Content: fmt.Sprintf(stormPromptFormat, i)}},
			MaxTokens: 16,
		}
		stream := c.StreamEvery > 0 && i%c.StreamEvery == 0
		failoverBefore := failovers.Value()
		t0 := time.Now()
		var first time.Time
		ctx := context.WithValue(context.Background(), reqKey{}, i)
		issue := func() (err error) {
			if stream {
				_, err = cli.ChatCompletionStream(ctx, req, func(string) {
					if first.IsZero() {
						first = time.Now()
					}
				})
			} else {
				_, err = cli.ChatCompletion(ctx, req)
			}
			return err
		}
		err := issue()
		if isExpiredToken(err) {
			if err := refresh(); err != nil {
				return run, s, tr, err
			}
			err = issue()
		}
		end := time.Now()
		if first.IsZero() {
			first = end
		}
		switch {
		case err == nil:
			if failovers.Value() > failoverBefore {
				run.census.FailoverOK++
			} else {
				run.census.OK++
			}
			if stream {
				run.lat.ttft = append(run.lat.ttft, first.Sub(t0))
			}
			run.lat.e2e = append(run.lat.e2e, end.Sub(t0))
			if first.Sub(t0) <= goodTTFT {
				run.good++
			}
		case isShed(err):
			run.census.Shed++
		case isTypedErr(err):
			run.census.TypedErr++
		default:
			run.census.Untyped++
			run.untyped = append(run.untyped, err)
		}
	}
	run.cost = before.to(readProc())
	return run, s, tr, nil
}

// isShed: the request was load-shed with a 503.
func isShed(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable
}

func runLiveStorm(o opts) *report {
	rep := &report{clockScale: liveScale}
	c := stormCell
	if o.smoke {
		c = smokeStormCell
	}
	setup := make([]float64, 0, o.setupN)
	for i := 0; i < o.setupN; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := bootStorm(c, o.traced)
		if err != nil {
			rep.problem("boot: %v", err)
			return rep
		}
		setup = append(setup, time.Since(t0).Seconds())
		s.sys.Close()
	}

	prof := startProfile(o.traced, rep)
	// Per-layer figures come from the last storm, whose system the trace
	// wrapped from boot: its counters and clock readings start at zero.
	var runs []stormRun
	var tr *liveTrace
	var ctrs map[string]int64
	var ck clockReading
	var trips int64
	for start := time.Now(); len(runs) == 0 || time.Since(start) < o.window; {
		runtime.GC()
		run, s, t, err := storm(c, o.seed, o.traced)
		if s != nil {
			ctrs, ck, trips = counters(s.sys), s.clk.read(), s.sys.Gateway.Breakers().Trips()
			s.sys.Close()
		}
		if err != nil {
			rep.problem("storm: %v", err)
			return rep
		}
		runs = append(runs, run)
		tr = t
	}
	shares := prof.stop(rep)

	census := runs[0].census
	rep.simDigest = fmt.Sprintf("%+v", census)
	var slices []latencies
	var walls, allocs, cpus, goodput []float64 // per request, except goodput
	n := float64(c.Requests)
	for i, run := range runs {
		rep.attempted += c.Requests
		rep.failed += run.census.Untyped
		if run.census != census {
			rep.problem("storm %d census %+v differs from storm 0's %+v", i, run.census, census)
		}
		for _, err := range run.untyped {
			rep.problem("untyped outcome: %v", err)
		}
		slices = append(slices, run.lat)
		walls = append(walls, float64(run.cost.wall)/n)
		allocs = append(allocs, run.cost.alloc/n)
		cpus = append(cpus, float64(run.cost.cpu)/1e6/n)
		goodput = append(goodput, float64(run.good)/run.cost.wall.Seconds())
	}
	// One client issues the storm's requests back to back: the host's time
	// per request is the storm's wall time per request.
	rep.e2e = map[string]float64{
		"host_ns_per_req":     median(walls),
		"alloc_bytes_per_req": median(allocs),
		"cpu_ms_per_req":      median(cpus),
		"peak_rss_mb":         peakRSSMB(),
		"goodput_rps":         median(goodput),
		"ok_share":            float64(census.OK+census.FailoverOK) / n,
		"setup_s":             median(setup),
	}
	latencyMetrics(slices, rep.e2e)
	if !o.traced {
		return rep
	}

	l := zeroLayers(shares)
	lastRun := runs[len(runs)-1]
	okN := float64(census.OK + census.FailoverOK)
	liveLayers(l, func(name string) float64 { return float64(ctrs[name]) }, ck, clockReading{}, n, okN)
	l["scheduler.cold_starts"] = float64(lastRun.restarts)
	l["client.roundtrips_per_req"] = float64(tr.roundTrips.Load()) / n
	l["resilience.breaker_trips"] = float64(trips)
	l["runtime.mallocs_per_req"] = lastRun.cost.mallocs / n
	l["runtime.gc_cycles"] = lastRun.cost.gcs
	tr.spans(l)
	rep.layer = l
	return rep
}
