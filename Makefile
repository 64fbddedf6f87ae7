# Tier-1 verification gate: everything `make ci` runs must stay green.
# CI = formatting check + vet (and its self-test) + FMA guard + build +
# smokes + race-enabled tests (the source rules, source_test.go, run inside
# them) + the repo benchmark's own tests.

GO ?= go

.PHONY: ci fmt-check vet vet-selftest no-fma no-fma-selftest build build-portable test race test-benchmark bench-smoke bench-exec-smoke fuzz-smoke serve-smoke trace-smoke examples trace

ci: fmt-check vet vet-selftest no-fma no-fma-selftest build build-portable bench-exec-smoke fuzz-smoke serve-smoke trace-smoke examples race test-benchmark

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Uncalled context cancel functions are go vet's to find (lostcancel), not
# the source rules', so that hand-over must be able to fail: vet over a
# package with a lost cancel planted on each marked line must report both.
LOSTCANCEL = testdata/lostcancel

vet-selftest:
	@out=$$($(GO) vet ./$(LOSTCANCEL) 2>&1); \
	lines=$$(grep -n 'vet: lostcancel' $(LOSTCANCEL)/bad.go | cut -d: -f1); \
	[ -n "$$lines" ] || { echo "vet-selftest: no marked lines in $(LOSTCANCEL)/bad.go"; exit 1; }; \
	for l in $$lines; do \
		echo "$$out" | grep -q "bad.go:$$l:" || { echo "vet-selftest: go vet misses the lost cancel planted at bad.go:$$l"; exit 1; }; \
	done

# Every kernel is pinned bit-identical to a scalar reference that rounds the
# product and the sum separately; one fused multiply-add breaks all of those
# pins at once. The assembly must not contain one, and neither may the arm64
# build of tensorops' Go code, where the compiler fuses x*y + z unless a
# conversion rounds the product first: float32(x*y) + z. The same holds for
# the Go code whose floats feed the kernels or the digests — the tensors'
# random fills and reductions, the datasets, the model zoo's weights, the
# graph's weight rewrites, the predictor, the runtime controller's drift
# detectors and the tradeoff curves' distances, the QoS metrics, the
# PROMISE noise model, the device cost models, the autotuner's scores, the
# knob tables, the Canny benchmark's filters and the experiment tables — or
# an arm64 run would not reproduce amd64's outputs. FMA_ARM64 reads the
# objdump listings and prints each FMA in a non-test function of those
# packages; it exits 0 only if it printed one.
FMA_RE = VFN?M(ADD|SUB)
FMA_PKGS = tensorops tensor datasets models graph predictor core pareto qos promise device autotuner approx canny bench
FMA_ARM64 = awk '/^TEXT /{ fn = $$2; own = fn ~ /^repro\/internal\/(tensorops|tensor|datasets|models|graph|predictor|core|pareto|qos|promise|device|autotuner|approx|canny|bench)\./ && $$3 !~ /_test\.go$$/ } own && /\tFN?M(ADD|SUB)/ { print fn, $$1, $$4; n++ } END { exit n == 0 }'

no-fma:
	@! grep -rnE '$(FMA_RE)' --include='*.s' internal/
	@tmp=$$(mktemp -d); st=0; \
	for p in $(FMA_PKGS); do \
		GOARCH=arm64 $(GO) test -c -o $$tmp/$$p.test ./internal/$$p && \
		$(GO) tool objdump -s "^repro/internal/$$p\." $$tmp/$$p.test >> $$tmp/dis.txt || { st=1; break; }; \
	done; \
	if [ $$st -eq 0 ] && $(FMA_ARM64) < $$tmp/dis.txt; then \
		echo "no-fma: fused multiply-adds in the arm64 build; round the product: float32(x*y) + z"; st=1; \
	fi; \
	rm -rf $$tmp; exit $$st

# The guards must be able to fail: the same patterns over planted instructions.
no-fma-selftest:
	@printf '\tVFMADD231PD Y1, Y2, Y3\n' | grep -qE '$(FMA_RE)' || { echo "no-fma: the pattern misses a planted VFMADD231PD"; exit 1; }
	@printf 'TEXT repro/internal/tensorops.microKernel4(SB) gemm.go\n  gemm.go:1\t0x0\t1f010040\tFMADDS F1, F0, F2, F0\n' | $(FMA_ARM64) > /dev/null || { echo "no-fma: the arm64 check misses a planted FMADDS"; exit 1; }
	@printf 'TEXT repro/internal/graph.scaleOutputChannel(SB) exec.go\n  exec.go:1\t0x0\t1f010040\tFMADDS F1, F0, F2, F0\n' | $(FMA_ARM64) > /dev/null || { echo "no-fma: the arm64 check misses a planted FMADDS outside tensorops"; exit 1; }
	@printf 'TEXT repro/internal/device.(*Device).Energy(SB) device.go\n  device.go:1\t0x0\t1f420c00\tFMADDD F2, F3, F0, F0\n' | $(FMA_ARM64) > /dev/null || { echo "no-fma: the arm64 check misses a planted FMADDD in a cost model"; exit 1; }

build:
	$(GO) build ./...

# The portable kernels behind the amd64 assembly must keep compiling.
build-portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cpu ./internal/tensor ./internal/tensorops

test:
	$(GO) test ./...

# The bench package replays whole tuning experiments; under the race
# detector it needs more than the default 10m per-package timeout. The
# repo benchmark is left out: its smoke test holds the workloads to
# wall-clock SLOs the race detector's slowdown cannot meet, so its tests
# run without it (test-benchmark). The worker team behaves differently
# with no helper, one helper and more helpers than this host has cores, so
# its package runs again at each — and so does the convolution test whose
# workers each pad input planes into a buffer of their own, and the test
# that runs one graph from four goroutines, whose executions hand their
# activations back to one shared pool. The convolution differential and
# the GEMM panel-count test run at one to four workers; three cut panel
# ranges at an odd panel count. The flight recorder is process-wide, so a
# test that reads spans from it sees an earlier run's too; the tests that do
# run twice in one binary, where each must still find only its own.
race:
	$(GO) test -race -timeout 45m $$($(GO) list ./... | grep -v '^repro/benchmark$$')
	$(GO) test -race -cpu 1,2,4 ./internal/parallel
	$(GO) test -race -cpu 1,2,4 -run 'TestConvPaddedPlanesPerWorker|TestConvLoweringFirstUse' ./internal/tensorops
	$(GO) test -race -cpu 1,2,3,4 -run 'TestConvDirectMatchesReference|TestGemmRowBlockPanelCountsAndOffsets' ./internal/tensorops
	$(GO) test -race -cpu 1,2,4 -run TestExecuteConcurrent ./internal/models
	$(GO) test -race -count=2 -run 'TestEverySinkSeesEachSpanOnce|TestServeMetricsEndpoint' ./internal/obs
	$(GO) test -race -count=2 -run 'TestServeTraceAcceptance|TestServeTraceparentPropagation|TestServeBatchObservability|TestServeFlightJoinsRequestToBatch' ./internal/serve
	$(GO) test -race -count=2 -run TestRuntimeTunerCloseIdempotent ./internal/core

test-benchmark:
	$(GO) test ./benchmark

# The repo benchmark's exec_fresh workload at smoke scale: every model ×
# configuration × batch executes and its output digest is checked against
# benchmark/expected.json, so a kernel change that moves one bit fails here.
bench-exec-smoke:
	$(GO) run ./benchmark --workload exec_fresh -smoke

# Ten seconds each of the convolution differential fuzzer (direct-pack
# engine against the im2col reference), of the row-epilogue one (every
# kernel tier against the scalar chain), of the /v1/infer body scanner
# against encoding/json, of the traceparent header parser, of the
# tradeoff-curve decoder (round trip and core.CheckCurve), of the
# curve-bundle loader (round trip and core.CheckCurve on both slots), of
# max pooling (every kernel tier against the reference loop) and of the
# JSON model frontend, starting from the committed corpora and in-code
# seeds.
fuzz-smoke:
	$(GO) test ./internal/tensorops -run '^$$' -fuzz FuzzConvDirectVsReference -fuzztime 10s
	$(GO) test ./internal/tensorops -run '^$$' -fuzz FuzzEpilogueRow -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzInferRequestDecode -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 10s
	$(GO) test ./internal/pareto -run '^$$' -fuzz FuzzUnmarshalCurve -fuzztime 10s
	$(GO) test ./internal/artifact -run '^$$' -fuzz FuzzArtifactLoad -fuzztime 10s
	$(GO) test ./internal/tensorops -run '^$$' -fuzz FuzzMaxPool -fuzztime 10s
	$(GO) test ./internal/models -run '^$$' -fuzz FuzzModelFromJSON -fuzztime 10s

# The development-time run both serving smokes ship a curve from (≈ 0.1 s).
SMOKE_TUNE = -benchmark lenet -width 0.25 -images 32 -iters 300 -max-qos-loss 3 -q

# End-to-end serving smoke, the paper's three phases in one pass: tune
# lenet with approxtune, boot approxserve on the curve it ships on a
# loopback port, wait for the ready-file, fire one seeded closed-loop
# loadgen burst that tolerates zero transport failures, scrape /metrics
# with Prometheus' own Accept header and require an OpenMetrics 1.0 answer
# (its Content-Type, a last line of `# EOF`) that counts the burst under
# its route (a non-zero http_server_seconds series keyed `POST /v1/infer`,
# so a rename cannot drop it silently), then SIGTERM and require a clean
# graceful drain (exit 0).
serve-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/approxtune ./cmd/approxtune || exit 1; \
	$(GO) build -o $$tmp/approxserve ./cmd/approxserve || exit 1; \
	$(GO) build -o $$tmp/loadgen ./cmd/loadgen || exit 1; \
	$$tmp/approxtune $(SMOKE_TUNE) -o $$tmp/curve.json || { echo "serve-smoke: approxtune failed"; rm -rf $$tmp; exit 1; }; \
	$$tmp/approxserve -addr 127.0.0.1:0 -benchmark lenet -width 0.25 -curve $$tmp/curve.json \
		-slo 250ms -ready-file $$tmp/ready & pid=$$!; \
	ok=0; for i in $$(seq 1 100); do \
		if [ -s $$tmp/ready ]; then ok=1; break; fi; sleep 0.1; \
	done; \
	if [ $$ok -ne 1 ]; then \
		echo "serve-smoke: server never became ready"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	url="http://$$(cat $$tmp/ready)"; \
	if ! $$tmp/loadgen -url $$url -n 32 -c 4 -items 2 -seed 7 -max-errors 0; then \
		echo "serve-smoke: loadgen burst failed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	if ! curl -sf -D $$tmp/metrics.hdr -o $$tmp/metrics.txt \
		-H 'Accept: application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1' "$$url/metrics"; then \
		echo "serve-smoke: GET /metrics failed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	if ! grep -qi '^Content-Type: application/openmetrics-text; version=1.0.0' $$tmp/metrics.hdr; then \
		echo "serve-smoke: /metrics is not OpenMetrics 1.0.0: $$(grep -i '^Content-Type:' $$tmp/metrics.hdr)"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	if [ "$$(tail -n 1 $$tmp/metrics.txt)" != "# EOF" ]; then \
		echo "serve-smoke: /metrics does not end in # EOF"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	if ! grep -qE '^http_server_seconds_count\{key="POST /v1/infer"\} [1-9]' $$tmp/metrics.txt; then \
		echo "serve-smoke: /metrics has no non-zero http_server_seconds series for POST /v1/infer"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	kill -TERM $$pid; \
	if ! wait $$pid; then \
		echo "serve-smoke: server exited non-zero on drain"; rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; \
	echo "serve-smoke: OK"

# End-to-end tracing smoke: tune and ship as serve-smoke does, then boot
# approxserve on the curve with a flight file and a 50µs -exec-budget.
# A lenet batch takes far longer than that, so the runtime tuner's drift
# detector sees every batch run slow and latches from its own input: no
# slowdown is injected. Fire a seeded burst whose loadgen must (a) see
# zero failures, (b) collect slowest/failed trace IDs from traceparent
# response headers, and (c) verify over /debug/flight that the drift
# alarm fired and at least one reported trace's span is in the live ring.
# The drift latch must also have dumped the alarm into the flight file,
# and every trace a serve_request_seconds bucket names as its exemplar on
# /metrics must have a span in /debug/flight, and be linked by a
# serve:batch span there: an exemplar is a trace you can look up, down to
# the batch that ran it.
trace-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/approxtune ./cmd/approxtune || exit 1; \
	$(GO) build -o $$tmp/approxserve ./cmd/approxserve || exit 1; \
	$(GO) build -o $$tmp/loadgen ./cmd/loadgen || exit 1; \
	$$tmp/approxtune $(SMOKE_TUNE) -o $$tmp/curve.json || { echo "trace-smoke: approxtune failed"; rm -rf $$tmp; exit 1; }; \
	$$tmp/approxserve -addr 127.0.0.1:0 -benchmark lenet -width 0.25 -curve $$tmp/curve.json \
		-slo 250ms -exec-budget 50us -window 4 -trace-seed 11 \
		-flight $$tmp/flight.jsonl -ready-file $$tmp/ready & pid=$$!; \
	ok=0; for i in $$(seq 1 100); do \
		if [ -s $$tmp/ready ]; then ok=1; break; fi; sleep 0.1; \
	done; \
	if [ $$ok -ne 1 ]; then \
		echo "trace-smoke: server never became ready"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	url="http://$$(cat $$tmp/ready)"; \
	if ! $$tmp/loadgen -url $$url -n 96 -c 4 -items 2 -seed 7 -max-errors 0 \
		-slowest 5 -verify-flight runtime.drift_alarm; then \
		echo "trace-smoke: traced burst or flight verification failed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	if ! grep -q 'runtime.drift_alarm' $$tmp/flight.jsonl; then \
		echo "trace-smoke: drift latch never dumped the alarm to the flight file"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	if ! curl -sf -o $$tmp/metrics.txt "$$url/metrics" || ! curl -sf -o $$tmp/live.jsonl "$$url/debug/flight"; then \
		echo "trace-smoke: GET /metrics or /debug/flight failed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	tids=$$(grep '^serve_request_seconds_bucket{' $$tmp/metrics.txt | grep -o 'trace_id="[0-9a-f]*"' | cut -d'"' -f2); \
	if [ -z "$$tids" ]; then \
		echo "trace-smoke: no serve_request_seconds bucket carries an exemplar"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	for tid in $$tids; do \
		if ! grep '"kind":"span"' $$tmp/live.jsonl | grep -q "\"trace_id\":\"$$tid\""; then \
			echo "trace-smoke: exemplar trace $$tid has no span in /debug/flight"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
		fi; \
		if ! grep '"name":"serve:batch"' $$tmp/live.jsonl | grep -q "\"links\":\[[^]]*\"$$tid\""; then \
			echo "trace-smoke: no serve:batch span in /debug/flight links exemplar trace $$tid"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
		fi; \
	done; \
	kill -TERM $$pid; \
	if ! wait $$pid; then \
		echo "trace-smoke: server exited non-zero on drain"; rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; \
	echo "trace-smoke: OK"

# The examples no other target runs, each to a zero exit: canny_pipeline
# drives Abs, Sqrt, NMS and Hysteresis through the graph's node loop, and
# model_from_json the JSON model front end and the dual-curve bundle.
# `make trace` runs quickstart, which covers all three tuning phases.
examples:
	$(GO) run ./examples/canny_pipeline
	$(GO) run ./examples/model_from_json

# One-iteration smoke run of every benchmark in the module.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Regenerate the committed sample span trace (results/sample_trace.jsonl)
# that trace_test.go parses. The quickstart example is fully seeded, so
# the span tree is deterministic (timestamps aside).
trace:
	$(GO) run ./examples/quickstart -trace results/sample_trace.jsonl
