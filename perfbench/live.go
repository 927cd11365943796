package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// liveScale is the live workloads' clock speed-up: a modeled second costs
// 50 µs of wall time.
const liveScale = 20000

// live-chat shape: one open-loop Poisson generator at a fixed rate of chat
// completions for the federated 8B model, a quarter of them streaming, each
// with a unique prompt (the response cache never hits). Prompt and output
// lengths follow chatLengths.
const (
	chatRate        = 1000.0 // requests per wall second
	chatStreamShare = 0.25
	chatWarmup      = 500 * time.Millisecond // unmeasured load before the window
	// inflightPerCPU × NumCPU caps in-flight requests; a request the
	// generator cannot start under the cap counts as failed.
	inflightPerCPU = 64
	// chatDeadline is a request's wall-time budget; a request that has not
	// resolved chatGrace after it is unresolved, a correctness failure.
	chatDeadline = 2 * time.Second
	chatGrace    = 2 * time.Second
	// goodTTFT is the goodput SLO on time to first token.
	goodTTFT = 5 * time.Millisecond
	// chatSlice is the span of due times whose latencies form one slice of
	// the percentile medians (see latencyMetrics).
	chatSlice = time.Second
	// tokenRefresh re-logs the generator in: access tokens live 48 modeled
	// hours, 8.6 wall seconds at liveScale.
	tokenRefresh = time.Second
)

// chatLengths is the prompt and output length mix of live-chat's requests:
// the ShareGPT trace of the paper's 8B run (Fig. 5), prompts ≈200 tokens and
// outputs ≈131 tokens on average.
var chatLengths = workload.ShareGPTShort()

// countingClock wraps the live clock to measure the request path's waits:
// how many, how long they asked for in wall time, how long they took. Waits
// of a modeled second or more are control loops (auto-scaler ticks, job
// prologues, readiness polls), not request-path waits, and are not counted.
type countingClock struct {
	clock.Clock
	sleeps, requested, slept atomic.Int64 // count, wall ns, wall ns
}

func (c *countingClock) Sleep(d time.Duration) {
	if d <= 0 {
		c.Clock.Sleep(d)
		return
	}
	t0 := time.Now()
	c.Clock.Sleep(d)
	c.record(d, time.Since(t0))
}

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	t0 := time.Now()
	in := c.Clock.After(d)
	out := make(chan time.Time, 1)
	go func() {
		t := <-in
		c.record(d, time.Since(t0))
		out <- t
	}()
	return out
}

func (c *countingClock) record(d, took time.Duration) {
	if d >= time.Second {
		return
	}
	want := d / liveScale
	if want <= 0 {
		want = time.Nanosecond
	}
	c.sleeps.Add(1)
	c.requested.Add(int64(want))
	c.slept.Add(int64(took))
}

// clockReading is a snapshot of a countingClock's counters.
type clockReading struct{ sleeps, requested, slept float64 }

func (c *countingClock) read() clockReading {
	if c == nil {
		return clockReading{}
	}
	return clockReading{float64(c.sleeps.Load()), float64(c.requested.Load()), float64(c.slept.Load())}
}

// liveTrace collects the traced live run's spans: the gateway handler span,
// the endpoint's FnInfer span, and their difference per request.
type liveTrace struct {
	roundTrips atomic.Int64

	mu        sync.Mutex
	serve     durations
	self      durations
	endpoint  durations
	queueWait durations // modeled time, from InferResult
	epByReq   map[int]time.Duration
}

func newLiveTrace() *liveTrace { return &liveTrace{epByReq: map[int]time.Duration{}} }

// reqKey carries a request's index from the client call to the gateway
// handler (the in-process transport hands the handler the caller's context).
type reqKey struct{}

func (t *liveTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		span := time.Since(t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.serve = append(t.serve, span)
		if i, ok := r.Context().Value(reqKey{}).(int); ok {
			t.self = append(t.self, span-t.epByReq[i])
			delete(t.epByReq, i)
		}
	})
}

type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// inferFn is an FnInfer implementation built from the endpoint's public
// deployment API, the way the endpoint serves it; fault injects a failure
// before serving (nil: none). With a trace it records the endpoint span.
func inferFn(ep *fabric.Endpoint, t *liveTrace, fault func(req *fabric.InferRequest) error) fabric.Handler {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		t0 := time.Now()
		var req fabric.InferRequest
		if err := fabric.UnmarshalPayload(payload, &req); err != nil {
			return nil, err
		}
		if fault != nil {
			if err := fault(&req); err != nil {
				return nil, err
			}
		}
		d, ok := ep.Deployment(req.Model)
		if !ok {
			return nil, fmt.Errorf("fabric: endpoint %s does not host %s", ep.ID(), req.Model)
		}
		res, err := d.Generate(ctx, req)
		if t != nil {
			span := time.Since(t0)
			t.mu.Lock()
			t.endpoint = append(t.endpoint, span)
			if err == nil {
				t.queueWait = append(t.queueWait, res.QueueWait)
			}
			if i := promptIndex(req.Prompt); i >= 0 {
				t.epByReq[i] += span
			}
			t.mu.Unlock()
		}
		if err != nil {
			return nil, err
		}
		return fabric.MarshalPayload(res), nil
	}
}

// promptIndex recovers the request index a live-chat or live-storm prompt
// carries, or -1.
func promptIndex(prompt string) int {
	var i int
	for _, format := range []string{"perfbench req %d", stormPromptFormat} {
		if _, err := fmt.Sscanf(prompt, format, &i); err == nil {
			return i
		}
	}
	return -1
}

// newLiveClock returns the live clock, wrapped for counting when traced.
func newLiveClock(traced bool) (clock.Clock, *countingClock) {
	var clk clock.Clock = clock.NewScaled(liveScale)
	if !traced {
		return clk, nil
	}
	cc := &countingClock{Clock: clk}
	return cc, cc
}

// waitReady waits until every deployment serves at least one instance.
func waitReady(sys *core.System, limit time.Duration) error {
	start := time.Now()
	for {
		pending := 0
		for _, ep := range sys.Endpoints {
			for _, m := range ep.Models() {
				if d, ok := ep.Deployment(m); ok && d.ReadyCount() < 1 {
					pending++
				}
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Since(start) > limit {
			return fmt.Errorf("%d deployments not ready after %v", pending, limit)
		}
		sys.Clock.Sleep(time.Second)
	}
}

// isTypedErr reports whether a client error is a well-typed failure the
// caller can act on, as opposed to an untyped one (a correctness failure).
func isTypedErr(err error) bool {
	var apiErr *client.APIError
	var refused *chaosnet.RefusedError
	return errors.As(err, &apiErr) ||
		errors.As(err, &refused) ||
		errors.Is(err, openaiapi.ErrStreamTruncated) ||
		errors.Is(err, client.ErrMalformedResponse) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

func counters(sys *core.System) map[string]int64 { return sys.Metrics.Snapshot().Counters }

// coldStarts sums the deployments' cold starts.
func coldStarts(sys *core.System) int64 {
	var n int64
	for _, ep := range sys.Endpoints {
		for _, m := range ep.Models() {
			if d, ok := ep.Deployment(m); ok {
				n += d.Stats().ColdStarts
			}
		}
	}
	return n
}

// chatOutcome is one live-chat request's fate.
type chatOutcome struct {
	ttft, e2e time.Duration // wall, from the request's due time
	slice     int           // chatSlice of the window the request was due in
	stream    bool
	ok        bool
	invalid   string // a success whose output fails the checks
	untyped   error
	resolved  bool
}

type liveChat struct {
	sys   *core.System
	rt    http.RoundTripper
	trace *liveTrace
	cli   atomic.Pointer[client.Client]
	seed  int64
	rng   *sim.RNG // arrivals, streaming and lengths
	// topics draws the prompts' words, as workload.Materialize does.
	topics *sim.RNG
	next   int     // next request index
	rate   float64 // requests per wall second
	limit  int64

	lastLogin time.Time
}

func (lc *liveChat) login() error {
	grant, err := lc.sys.Login("bench")
	if err != nil {
		return err
	}
	lc.cli.Store(client.New("http://first.local", grant.AccessToken,
		client.WithHTTPClient(&http.Client{Transport: lc.rt}),
		client.WithSleep(func(ctx context.Context, d time.Duration) error {
			lc.sys.Clock.Sleep(d)
			return ctx.Err()
		})))
	lc.lastLogin = time.Now()
	return nil
}

// phaseResult is what one phase of live-chat's generator saw.
type phaseResult struct {
	outs    []chatOutcome // the requests it started
	refused int           // requests the in-flight cap refused
	lag     time.Duration // the generator's worst lag behind schedule
	// cpuPerReq is, for each whole chatSlice of due times, the process CPU
	// spent while the slice's requests were issued ÷ their number, in ms.
	cpuPerReq []float64
}

// phase issues open-loop Poisson arrivals for window and waits for them to
// resolve.
func (lc *liveChat) phase(window time.Duration) (res phaseResult, err error) {
	gap := float64(time.Second) / lc.rate
	res.outs = make([]chatOutcome, 0, int(lc.rate*window.Seconds()*1.2)+64)
	var all []*chatOutcome
	var inflight atomic.Int64
	var wg sync.WaitGroup
	wallClock := clock.NewReal()
	start := time.Now()
	due := start
	slice, sliceN, sliceCPU := 0, 0, processCPU()
	for {
		due = due.Add(time.Duration(lc.rng.Exp(gap)))
		if due.Sub(start) >= window {
			break
		}
		if k := int(due.Sub(start) / chatSlice); k != slice {
			cpu := processCPU()
			res.cpuPerReq = append(res.cpuPerReq, ratio(float64(cpu-sliceCPU)/1e6, float64(sliceN)))
			slice, sliceN, sliceCPU = k, 0, cpu
		}
		sliceN++
		i := lc.next
		lc.next++
		stream := lc.rng.Float64() < chatStreamShare
		promptTok, maxTok := chatLengths.SampleLengths(lc.rng)
		prompt := fmt.Sprintf("perfbench req %d seed %d: ", i, lc.seed) + workload.SyntheticPrompt(lc.topics, promptTok)
		if d := time.Until(due); d > 0 {
			wallClock.Sleep(d)
		}
		if l := time.Since(due); l > res.lag {
			res.lag = l
		}
		if time.Since(lc.lastLogin) > tokenRefresh {
			if err = lc.login(); err != nil {
				return res, err
			}
		}
		if inflight.Load() >= lc.limit {
			res.refused++
			continue
		}
		out := &chatOutcome{}
		all = append(all, out)
		inflight.Add(1)
		wg.Add(1)
		go func(cli *client.Client, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			o := lc.do(cli, i, due, prompt, maxTok, stream)
			o.slice = int(due.Sub(start) / chatSlice)
			*out = o
		}(lc.cli.Load(), due)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-wallClock.After(chatDeadline + chatGrace):
	}
	select {
	case <-done:
		for _, o := range all {
			res.outs = append(res.outs, *o)
		}
	default:
		// Unresolved requests are still running; report them without
		// reading the outcomes they may yet write.
		for range all {
			res.outs = append(res.outs, chatOutcome{})
		}
	}
	return res, nil
}

// do issues request i (due at due) and checks the response.
func (lc *liveChat) do(cli *client.Client, i int, due time.Time, prompt string, maxTok int, stream bool) chatOutcome {
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), reqKey{}, i), chatDeadline)
	defer cancel()
	req := openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: prompt}},
		MaxTokens: maxTok,
	}
	o := chatOutcome{stream: stream}
	var first time.Time
	var err error
	if stream {
		var text string
		text, err = cli.ChatCompletionStream(ctx, req, func(string) {
			if first.IsZero() {
				first = time.Now()
			}
		})
		if err == nil && strings.TrimSpace(text) == "" {
			o.invalid = "empty stream"
		}
	} else {
		var resp openaiapi.ChatCompletionResponse
		resp, err = cli.ChatCompletion(ctx, req)
		switch {
		case err != nil:
		case len(resp.Choices) == 0 || resp.Choices[0].Message == nil || resp.Choices[0].Message.Content == "":
			o.invalid = "no choices"
		case resp.Usage.CompletionTokens != maxTok:
			o.invalid = fmt.Sprintf("completion_tokens %d, want max_tokens %d", resp.Usage.CompletionTokens, maxTok)
		}
	}
	end := time.Now()
	if first.IsZero() {
		first = end
	}
	o.ttft, o.e2e = first.Sub(due), end.Sub(due)
	o.resolved = true
	switch {
	case err == nil:
		o.ok = o.invalid == ""
	case !isTypedErr(err):
		o.untyped = err
	}
	return o
}

func runLiveChat(o opts) *report {
	rep := &report{clockScale: liveScale}
	window := o.window
	warmup, rate := chatWarmup, chatRate
	if o.smoke {
		// A tenth of the rate keeps the smoke within the cap under the race
		// detector, which slows the stack about tenfold.
		warmup, rate = 50*time.Millisecond, chatRate/10
	}

	// Set-up: boot the paper-default testbed, register the user and wait
	// until every deployment serves. The last boot is the one measured.
	var sys *core.System
	var cc *countingClock
	setup := make([]float64, 0, o.setupN)
	for i := 0; i < cap(setup); i++ {
		if sys != nil {
			sys.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var clk clock.Clock
		clk, cc = newLiveClock(o.traced)
		var err error
		if sys, err = core.DefaultTestbed(clk); err == nil {
			if err = sys.RegisterUser("bench", "bench@anl.gov"); err == nil {
				err = waitReady(sys, 30*time.Second)
			}
		}
		if err != nil {
			rep.problem("boot: %v", err)
			return rep
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer sys.Close()

	lc := &liveChat{sys: sys, seed: o.seed, rng: sim.NewRNG(o.seed), topics: sim.NewRNG(o.seed + 1),
		rate: rate, limit: int64(runtime.NumCPU() * inflightPerCPU)}
	var handler http.Handler = sys.Gateway
	if o.traced {
		lc.trace = newLiveTrace()
		handler = lc.trace.handler(handler)
		for _, ep := range sys.Endpoints {
			ep.RegisterFunction(fabric.FnInfer, inferFn(ep, lc.trace, nil))
		}
	}
	lc.rt = client.HandlerRoundTripper(handler)
	if o.traced {
		lc.rt = countingTransport{next: lc.rt, n: &lc.trace.roundTrips}
	}
	if err := lc.login(); err != nil {
		rep.problem("login: %v", err)
		return rep
	}

	warm, err := lc.phase(warmup)
	if err != nil {
		rep.problem("warm-up: %v", err)
		return rep
	}
	check := func(outs []chatOutcome) {
		for _, out := range outs {
			switch {
			case !out.resolved:
				rep.problem("a request did not resolve within %v", chatDeadline+chatGrace)
			case out.untyped != nil:
				rep.problem("untyped error: %v", out.untyped)
			case out.invalid != "":
				rep.problem("invalid success: %s", out.invalid)
			}
		}
	}
	check(warm.outs)
	if warm.refused > 0 {
		o.logf("live-chat: %d warm-up requests refused by the in-flight cap", warm.refused)
	}

	c0, ck0, cold0, rt0 := counters(sys), cc.read(), coldStarts(sys), int64(0)
	if lc.trace != nil {
		lc.trace.mu.Lock()
		lc.trace.serve, lc.trace.self, lc.trace.endpoint, lc.trace.queueWait = nil, nil, nil, nil
		lc.trace.mu.Unlock()
		rt0 = lc.trace.roundTrips.Load()
	}
	prof := startProfile(o.traced, rep)
	before := readProc()
	ph, err := lc.phase(window)
	cost := before.to(readProc())
	c1, ck1 := counters(sys), cc.read()
	shares := prof.stop(rep)
	if err != nil {
		rep.problem("measured phase: %v", err)
		return rep
	}
	check(ph.outs)

	slices := make([]latencies, int(window/chatSlice)+1)
	good, okN := 0, 0
	for _, out := range ph.outs {
		if !out.ok {
			continue
		}
		okN++
		s := &slices[out.slice]
		s.e2e = append(s.e2e, out.e2e)
		if out.stream {
			s.ttft = append(s.ttft, out.ttft)
		}
		if out.ttft <= goodTTFT {
			good++
		}
	}
	rep.attempted = len(ph.outs) + ph.refused
	rep.failed = rep.attempted - okN
	attempted := float64(rep.attempted)
	// CPU per request is the median over the window's slices, so a burst of
	// contention on the host moves one slice, not the figure.
	cpu := median(ph.cpuPerReq)
	if len(ph.cpuPerReq) == 0 { // a window shorter than one slice
		cpu = ratio(float64(cost.cpu)/1e6, attempted)
	}
	// The generator fixes the wall time between requests, so the host's
	// time per request is the mean time a request spends in the system.
	rep.e2e = map[string]float64{
		"alloc_bytes_per_req": ratio(cost.alloc, attempted),
		"cpu_ms_per_req":      cpu,
		"peak_rss_mb":         peakRSSMB(),
		"goodput_rps":         float64(good) / window.Seconds(),
		"ok_share":            ratio(float64(okN), attempted),
		"setup_s":             median(setup),
	}
	rep.e2e["host_ns_per_req"] = latencyMetrics(slices, rep.e2e)
	if !o.traced {
		return rep
	}

	l := zeroLayers(shares)
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	liveLayers(l, delta, ck1, ck0, attempted, float64(okN))
	l["scheduler.cold_starts"] = float64(coldStarts(sys) - cold0)
	l["client.roundtrips_per_req"] = ratio(float64(lc.trace.roundTrips.Load()-rt0), attempted)
	l["runtime.mallocs_per_req"] = ratio(cost.mallocs, attempted)
	l["runtime.gc_cycles"] = cost.gcs
	l["gen.lag_ms_max"] = float64(ph.lag) / 1e6
	l["gen.inflight_refused"] = float64(ph.refused)
	lc.trace.spans(l)
	rep.layer = l
	return rep
}

// liveLayers fills the per-layer metrics both live workloads read from the
// gateway's counters and the counting clock.
func liveLayers(l map[string]float64, delta func(string) float64, ck1, ck0 clockReading, attempted, okN float64) {
	routed := delta("route_model-active") + delta("route_cluster-has-capacity") + delta("route_first-configured")
	l["federation.rung_active_share"] = ratio(delta("route_model-active"), routed)
	l["federation.rung_capacity_share"] = ratio(delta("route_cluster-has-capacity"), routed)
	l["federation.rung_firstconf_share"] = ratio(delta("route_first-configured"), routed)
	l["federation.failover_per_req"] = ratio(delta("failover_attempts"), attempted)
	l["gateway.shed_share"] = ratio(delta("load_shed"), attempted)
	sleeps, req, slept := ck1.sleeps-ck0.sleeps, ck1.requested-ck0.requested, ck1.slept-ck0.slept
	l["clock.sleeps_per_req"] = ratio(sleeps, okN)
	l["clock.requested_us_per_req"] = ratio(req/1e3, okN)
	l["clock.slept_us_per_req"] = ratio(slept/1e3, okN)
	l["clock.oversleep_share"] = ratio(slept-req, slept)
}

// spans fills the span metrics the trace recorded.
func (t *liveTrace) spans(l map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	serve, self, ep := t.serve.sorted(time.Millisecond), t.self.sorted(time.Millisecond), t.endpoint.sorted(time.Millisecond)
	l["gateway.serve_ms_p50"] = quantile(serve, 0.5)
	l["gateway.serve_ms_p99"] = tail(serve, 0.99)
	l["gateway.self_ms_p50"] = quantile(self, 0.5)
	l["fabric.endpoint_ms_p50"] = quantile(ep, 0.5)
	l["fabric.endpoint_ms_p99"] = tail(ep, 0.99)
	l["fabric.queue_wait_vs_p50"] = quantile(t.queueWait.sorted(time.Second), 0.5)
}
