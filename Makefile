# Development targets. Each gate command is written once, here: verify.sh
# runs the gate's targets in order, and CI's steps call them one by one.

GO ?= go

.PHONY: build test bench-module purego race lint lint-fixtures vet fault cover fuzz verify

build:
	$(GO) build ./...

# The other lines run the codec kernel (deltafp's lane-penalty pair too),
# FP16 conversion, little-endian element codec, cache-hit layer, warm
# tenant epoch, cached loader epoch and ragged-loader (epoch, pad assembly)
# benchmarks for one iteration each, so they keep compiling and the
# whole-epoch path stays exercised.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench '^(BenchmarkOpen|BenchmarkDecodeFused|BenchmarkDecodeSample|BenchmarkDecodeLanes|BenchmarkFromFloat32|BenchmarkDecodeLE)$$' -benchtime=1x ./internal/codec/lut/ ./internal/codec/deltafp/ ./internal/fp16/ ./internal/tensor/
	$(GO) test -run '^$$' -bench '^(BenchmarkSampleCacheGetHit|BenchmarkSampleCacheGetHitParallel|BenchmarkCacheSum|BenchmarkServeHit|BenchmarkTenantEpoch|BenchmarkRaggedEpoch|BenchmarkPadded|BenchmarkPipelineCachedEpoch)$$' -benchtime=1x ./internal/pipeline/ ./internal/dataserve/

# benchmark/ is its own module, so the ./... above never reaches it.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The portable FP16 conversion that the purego build tag forces, under the
# codecs that call it, as hosts without F16C run it.
purego:
	$(GO) test -tags purego ./internal/fp16/... ./internal/codec/...

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

# go vet ./... skips testdata, so the second line checks that vet's copylocks
# still reports the lock copy in the fixconc fixture: the rule scipplint
# leaves to vet.
vet:
	$(GO) vet ./...
	$(GO) vet ./internal/analysis/testdata/fixconc/ 2>&1 | grep -q 'fix.go:16:16: Locker passes lock by value'

# Coverage ratchet over the packages the observability layer locks down
# (floors live in scripts/coverage_baseline.txt).
cover:
	./scripts/coverage.sh

# Fuzz pass over every codec fuzz target: seeds plus FUZZTIME of
# exploration each (10s by default, a smoke; the nightly CI lane runs
# `make fuzz FUZZTIME=5m`). `go test -fuzz` takes one target at a time, so
# loop. The pipeline's cache fuzzers (integrity, and the reference-model
# differential) live in their own package, so they get their own
# invocations after the codec loop.
FUZZTIME ?= 10s
FUZZ_TARGETS = FuzzFormatsOpenDecode FuzzDeltaFPRoundTrip FuzzLUTRoundTrip \
	FuzzRawCosmoRoundTrip FuzzRawDeepCAMRoundTrip FuzzZfpcRoundTrip \
	FuzzSeriesRoundTrip
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run=NONE -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) ./internal/codec/ || exit 1; \
	done
	$(GO) test -run=NONE -fuzz='^FuzzDeltaKernel$$' -fuzztime=$(FUZZTIME) ./internal/codec/deltafp/
	$(GO) test -run=NONE -fuzz='^FuzzFromFloat32$$' -fuzztime=$(FUZZTIME) ./internal/fp16/
	$(GO) test -run=NONE -fuzz='^FuzzDecodeLE$$' -fuzztime=$(FUZZTIME) ./internal/tensor/
	$(GO) test -run=NONE -fuzz='^FuzzCacheIntegrity$$' -fuzztime=$(FUZZTIME) ./internal/pipeline/
	$(GO) test -run=NONE -fuzz='^FuzzSampleCacheModel$$' -fuzztime=$(FUZZTIME) ./internal/pipeline/
	$(GO) test -run=NONE -fuzz='^FuzzTenantCache$$' -fuzztime=$(FUZZTIME) ./internal/dataserve/
	$(GO) test -run=NONE -fuzz='^FuzzBreakerState$$' -fuzztime=$(FUZZTIME) ./internal/dataserve/

verify:
	./verify.sh
