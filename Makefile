# Development and CI entry points. CI (.github/workflows/ci.yml) runs these
# exact targets so local runs and the gate can never diverge.

GO ?= go

# Serving-path benchmarks tracked across PRs in BENCH_serving.json.
SERVING_BENCH = BenchmarkRecommendUncached|BenchmarkRecommendUncachedInterpreted|BenchmarkPredictCompiled|BenchmarkPredictCPS5|BenchmarkPredictHMM|BenchmarkRerankPairwise|BenchmarkProbCompiled|BenchmarkPredictMVMM|BenchmarkSuggestUncached|BenchmarkSuggestCached|BenchmarkServeHTTPCached|BenchmarkServeHTTPBatch|BenchmarkRouteAB|BenchmarkShardFanout64|BenchmarkShardFanout64R2|BenchmarkPredictBatch64|BenchmarkPredictSequential64|BenchmarkColdStartV5|BenchmarkCompiledBlobSizeV5|BenchmarkIngestSegment|BenchmarkServeHTTPCachedTraced|BenchmarkHistogramRecord
# Override for quick smoke runs: make bench-json BENCHTIME=10x
BENCHTIME ?= 1s
# Regression gates applied by cmd/benchjson after recording: the cached HTTP
# serving path, the fleet A/B routing path and the per-family predict paths
# (CPS5-loaded MVMM, HMM, pairwise rerank) must stay within their allocation
# budgets, the benchmark model's CPS5 blob must stay within its 117,800
# bytes, the CPS5-loaded descent within 1.05x the Compile model's time
# measured in the same run, and the 3-shard batch fan-out must hold the
# pooled span-forwarding path (~25 allocs/batch today, dominated by the
# benchmark's own request construction; the 200 ceiling leaves headroom for
# JSON noise, not for a per-item allocation, which would cost >= 64). The
# replicated fan-out's allocation cost must stay within 1.5x the unreplicated
# path (it is 1.0x today: preference lists and attempt masks are pooled).
# The ingestion loop drains a fixed ~3000-record log per op (~4000 allocs
# today, ~1.3/record: segmenter growth + WAL frames + count-map inserts);
# the 6000 ceiling flags a per-record allocation regression, not JSON noise.
# The traced serving path and the histogram record primitive are gated at 0:
# the observability layer must stay free on the hot path.
BENCH_GATES = -gate BenchmarkServeHTTPCached=2 -gate BenchmarkRouteAB=0 -gate BenchmarkServeHTTPCachedTraced=0 -gate BenchmarkHistogramRecord=0 -gate BenchmarkShardFanout64=200 -gate BenchmarkShardFanout64R2:fanout-r2-over-r1=1.5 -gate BenchmarkPredictCPS5=0 -gate BenchmarkPredictCPS5:cps5-over-compiled=1.05 -gate BenchmarkPredictHMM=0 -gate BenchmarkRerankPairwise=0 -gate BenchmarkCompiledBlobSizeV5:cps5-bytes=117800 -gate BenchmarkIngestSegment=6000

.PHONY: all build test race bench bench-json chaos ingest-test obs-test fuzz-smoke fmt fmt-check vet check-docs check-api ci serve loadgen clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection harness: the replicated ring's chaos scenarios (shard
# killed mid-batch, reload storm during fan-out, flapping shard, hedged
# GETs) under the race detector — the availability claims, enforced.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestAntiEntropy|TestAdminState|TestRingLookupN' ./internal/fleet

# Closed-loop ingestion harness: the end-to-end stream → retrain → shadow →
# auto-ramp → promote loop, the exhaustive crash-replay cut-point table and
# the write-log recovery tests, under the race detector — the durability and
# freshness claims, enforced.
ingest-test:
	$(GO) test -race -count=1 -run 'TestLoop|TestCrashReplay|TestIngest|TestWAL' ./internal/stream ./internal/serve

# Observability harness: the histogram/trace/exposition unit tests plus the
# endpoint tests that hammer /v1/metrics and /v1/traces under concurrent
# traffic, reload storms and chaos faults — all under the race detector.
obs-test:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -count=1 -run 'TestObs|TestPrometheus|TestTraces|TestRequestID|TestChaosTrace' ./internal/serve ./internal/fleet

# Fuzz smoke: each native fuzz target for 10 s — the compiled-blob decoder
# (raw and CRC-restamped), the log-record codec and the session segmenter.
# A crash fails the target and leaves its input under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzFlat5Decode$$' -fuzztime=10s ./internal/compiled
	$(GO) test -run=NONE -fuzz='^FuzzFromBytes$$' -fuzztime=10s ./internal/compiled
	$(GO) test -run=NONE -fuzz='^FuzzLogfmtRoundTrip$$' -fuzztime=10s ./internal/logfmt
	$(GO) test -run=NONE -fuzz='^FuzzSegmenterAdd$$' -fuzztime=10s ./internal/session

# Benchmark smoke: one iteration of every benchmark, no test re-runs. Run
# twice — single-core and 4-core — so benchmarks that depend on parallelism
# execute both ways.
bench:
	GOMAXPROCS=1 $(GO) test -run=NONE -bench=. -benchtime=1x ./...
	GOMAXPROCS=4 $(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Machine-readable serving benchmarks: appends a commit-stamped entry to the
# BENCH_serving.json trajectory so perf history (ns/op, B/op, allocs/op) is
# diffable across PRs, then applies the allocation regression gates. The
# bench run lands in a temp file first so a mid-run benchmark failure fails
# the target instead of vanishing into a pipe.
bench-json:
	$(GO) test -run=NONE -bench='$(SERVING_BENCH)' -benchmem -benchtime=$(BENCHTIME) . > BENCH_serving.tmp
	$(GO) run ./cmd/benchjson -out BENCH_serving.json $(BENCH_GATES) < BENCH_serving.tmp
	@rm -f BENCH_serving.tmp

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation gate: every exported symbol in the serving-critical packages
# must carry a doc comment (see cmd/doccheck).
check-docs:
	$(GO) run ./cmd/doccheck ./internal/compiled ./internal/core ./internal/fleet ./internal/obs ./internal/stream

# API-surface gate: vet plus the apilint rule that recommendation entry
# points stay on core.Recommender (no new exported Recommend* outside
# internal/core and internal/cache).
check-api: vet
	$(GO) run ./cmd/apilint .

ci: check-api fmt-check check-docs build race chaos ingest-test obs-test fuzz-smoke bench

# Convenience: train a small model if absent, then serve it.
model.bin:
	$(GO) run ./cmd/loggen -sessions 20000 -out /tmp/repro-train.log
	$(GO) run ./cmd/train -log /tmp/repro-train.log -model model.bin -threshold 2

serve: model.bin
	$(GO) run ./cmd/serve -model model.bin

loadgen:
	$(GO) run ./cmd/loadgen -addr http://localhost:8080

clean:
	rm -f model.bin BENCH_serving.tmp
