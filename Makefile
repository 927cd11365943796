# FIRST reproduction — build/verify/perf-record targets.

GO ?= go
# FUZZTIME is the fuzzing budget: 3s in the per-PR gate, 60s nightly
# (make fuzz FUZZTIME=60s).
FUZZTIME ?= 3s

.PHONY: all check fmt vet build test fuzz lint perfbench-check race chaos calibrate bench bench-diff par-diff federate-night autoscale-night livefed-night

all: check

# check is the tier-1 gate every PR must keep green; the brief fuzz pass
# keeps malformed request bodies from ever panicking a handler; lint runs
# the repo's own firstlint analyzers (det, clockonly, seedflow, hotpath);
# perfbench-check covers the benchmark's nested module, which the root
# module's ./... patterns skip.
check: fmt vet build test fuzz lint perfbench-check

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the repo-specific static analyzers (see internal/lint and the
# "Static analysis" section of doc.go): det, clockonly, seedflow, and the
# hotpath escape-analysis cross-check for //first:hotpath bodies.
lint:
	$(GO) run ./cmd/firstlint ./...

# perfbench-check vets and tests the end-to-end benchmark (perfbench/, a Go
# module of its own that reaches the repository through a replace
# directive) and runs firstlint over it.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/firstlint -C perfbench ./...

# fuzz mutates the committed openaiapi seed corpora (testdata/fuzz) for
# FUZZTIME each (3s in `make check`; the nightly CI job runs 60s): the
# request parser and the SSE stream reader (truncation / malformed frames).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzReadSSE$$' -fuzztime $(FUZZTIME) ./internal/openaiapi

# race runs the tier-1 suite under the race detector — the gate for the
# sharded gateway front-end's parallel stress tests. The experiments package
# regenerates the full bench suite here (TestBenchRecordRoundTrip), which
# under the detector's ~10× slowdown outgrew go test's default 10-minute
# package budget; 25m fits the CI race job's 30-minute ceiling.
race:
	$(GO) test -race -timeout 25m ./...

# chaos drives the short livefed storm — chaosnet fault transport, endpoint
# fault bursts, a kill + cold restart mid-run — through the live stack under
# the race detector, checking the zero-lost invariant and the deterministic
# outcome schedule.
chaos:
	$(GO) test -race -short -run '^TestLiveFed' -v ./internal/experiments

# bench runs the micro/figure benchmarks and appends a BENCH_<n>.json perf
# record so every PR extends the substrate's performance trajectory.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
	$(GO) run ./cmd/first-bench -exp fig3 -json

# bench-diff gates the trajectory: compares the two newest BENCH_<n>.json
# records and fails on >20% ns/op (or wall) regressions or any allocs/op
# increase. With fewer than two records (fork/shallow checkouts) it skips
# with a notice and exits 0.
bench-diff:
	$(GO) run ./cmd/first-bench -diff

# par-diff runs the parallel-kernel byte-identity suite on the short
# families: federate, autoscale (including the predictive/cordon cell, so
# the forecast and drain-aware-routing paths are pinned per-PR), and the
# livefed calibration twin must be byte-identical across -par worker counts
# (1/2/8) and queue kinds against the Par=1 zero-goroutine reference.
# Required per-PR CI job; the nightly matrix legs run the full-scale
# versions (TestFederateFullScalePar, TestAutoScaleFullScalePar).
par-diff:
	$(GO) test -run '^TestParDiff|^TestParFederateCompletes$$' -v ./internal/experiments

# federate-night runs the full-scale federation determinism suite — 10⁶
# open-loop requests + 10⁴ WebUI sessions, byte-identical across worker
# counts and queue kinds, plus the parallel-kernel gate (FullScalePar).
# Too slow for per-PR CI; the nightly job runs it.
federate-night:
	FIRST_FEDERATE_FULL=1 $(GO) test -run '^TestFederateFullScale' -v -timeout 30m ./internal/experiments

# autoscale-night runs the full-scale auto-scaling determinism suite — the
# complete diurnal/bursty family (reactive cells plus their predictive
# twins) with every elasticity assertion and the predictive-vs-reactive
# sweep (same-trace p99/refused comparison), byte-identical across worker
# counts and queue kinds. Per-PR CI keeps the scaled-down family as the
# fast guard; the nightly job runs this one.
autoscale-night:
	FIRST_AUTOSCALE_FULL=1 $(GO) test -run '^TestAutoScaleFullScale' -v -timeout 30m ./internal/experiments

# calibrate runs the per-PR calibration gate: the short livefed cell live,
# its executed schedule replayed into the DES twin, rung shares within
# ±5 pts and the failover-vs-migration ratio within 2× — or the target fails.
calibrate:
	$(GO) test -short -run '^TestLiveFedCalibrationGate$$' -v ./internal/experiments

# livefed-night regenerates the full live-chaos family (the nightly cells:
# 2000- and 3000-request storms with their DES calibration twins), prints
# the outcome census + calibration tables the nightly CI job archives, and
# FAILS if any cell trips the tolerance gate — preserving the divergent
# schedule under calib-artifacts/ for offline replay.
livefed-night:
	$(GO) run ./cmd/first-bench -exp livefed -calib-out calib-artifacts
