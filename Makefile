# Development targets. CI runs `make verify`.

GO ?= go

.PHONY: build test race lint lint-fixtures vet fault cover fuzz verify

build:
	$(GO) build ./...

# The other lines run the codec kernel, FP16 conversion, cache-hit layer
# and ragged-loader (epoch, pad assembly) benchmarks for one iteration
# each, so they keep compiling.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench '^(BenchmarkOpen|BenchmarkDecodeFused|BenchmarkDecodeSample|BenchmarkFromFloat32)$$' -benchtime=1x ./internal/codec/lut/ ./internal/codec/deltafp/ ./internal/fp16/
	$(GO) test -run '^$$' -bench '^(BenchmarkSampleCacheGetHit|BenchmarkSampleCacheGetHitParallel|BenchmarkCacheSum|BenchmarkServeHit|BenchmarkRaggedEpoch|BenchmarkPadded)$$' -benchtime=1x ./internal/pipeline/ ./internal/dataserve/

# Race-detector pass over the concurrent subsystems (staged pipeline DAG
# and its sample cache, multi-tenant data service, ring allreduce,
# data-parallel trainer, fault injector, metrics registry, checkpoint
# codec, the acceptance sweeps, and the sample codecs — chunks decode
# concurrently and share the lazily built LUT value tables).
race:
	$(GO) test -race ./internal/pipeline/... ./internal/iosim/... ./internal/dataserve/... ./internal/dist/... ./internal/train/... ./internal/fault/... ./internal/obs/... ./internal/nn/... ./internal/sweep/... ./cmd/sweep/... ./internal/codec/... ./internal/fp16/...

# Fault-injection and resilience suite: injector determinism, retry/backoff,
# skip quotas, the end-to-end faulted DeepCAM acceptance run, the elastic
# rank-failure / checkpoint-resume suite, the self-healing supervisor and
# cache-integrity tests, the overload-protection layer (breakers, shedding,
# tier failover, poison quarantine), and the chaos sweep smokes.
fault:
	$(GO) test -race -run 'Fault|Resilien|Retr|Backoff|Quota|SampleError|Transient|SameSeed|SameSample|Kind|FormatInjector|Summary|Elastic|Checkpoint|Rank|Supervis|Stall|Panic|Quarantine|Integrity|Chaos|BitRot|Breaker|Shed|Tier|Poison|SlowConsumer|Detach|Isolation' ./internal/fault/... ./internal/pipeline/... ./internal/train/... ./internal/dist/... ./internal/dataserve/...
	$(GO) test -race ./internal/sweep/... ./cmd/sweep/...

# scipplint is the repo's own stdlib-only static analyzer (internal/analysis);
# it must exit 0 on the whole module.
lint:
	$(GO) run ./cmd/scipplint ./...

# Regenerate the analyzer golden fixtures (internal/analysis/testdata/*/expect.txt
# and cmd/scipplint's JSON golden) after an intentional change to analyzer
# output, then re-run the fixture tests to confirm they match.
lint-fixtures:
	$(GO) test ./internal/analysis/ -run TestFixtures -update
	$(GO) test ./cmd/scipplint/ -run TestRunJSONGolden -update
	$(GO) test ./internal/analysis/ ./cmd/scipplint/

vet:
	$(GO) vet ./...

# Coverage ratchet over the packages the observability layer locks down
# (floors live in scripts/coverage_baseline.txt).
cover:
	./scripts/coverage.sh

# Short fuzz smoke over every codec fuzz target: seeds plus a few seconds
# of exploration each. `go test -fuzz` takes one target at a time, so loop.
# The pipeline's cache fuzzers (integrity, and the reference-model
# differential) live in their own package, so they get their own
# invocations after the codec loop.
FUZZ_TARGETS = FuzzFormatsOpenDecode FuzzDeltaFPRoundTrip FuzzLUTRoundTrip \
	FuzzRawCosmoRoundTrip FuzzRawDeepCAMRoundTrip FuzzZfpcRoundTrip \
	FuzzSeriesRoundTrip
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run=NONE -fuzz="^$$t$$" -fuzztime=10s ./internal/codec/ || exit 1; \
	done
	$(GO) test -run=NONE -fuzz='^FuzzDeltaKernel$$' -fuzztime=10s ./internal/codec/deltafp/
	$(GO) test -run=NONE -fuzz='^FuzzFromFloat32$$' -fuzztime=10s ./internal/fp16/
	$(GO) test -run=NONE -fuzz='^FuzzCacheIntegrity$$' -fuzztime=10s ./internal/pipeline/
	$(GO) test -run=NONE -fuzz='^FuzzSampleCacheModel$$' -fuzztime=10s ./internal/pipeline/
	$(GO) test -run=NONE -fuzz='^FuzzTenantCache$$' -fuzztime=10s ./internal/dataserve/
	$(GO) test -run=NONE -fuzz='^FuzzBreakerState$$' -fuzztime=10s ./internal/dataserve/

verify: build vet lint test race cover
