#!/bin/sh
# Full merge gate: build, vet, repo lint, tests, race pass.
# Mirrors .github/workflows/ci.yml; run locally before pushing.
set -eux

go build ./...
go vet ./...
go run ./cmd/scipplint ./...
go test ./...
# The codec kernel, FP16 conversion, little-endian element codec,
# cache-hit layer, warm tenant epoch, cached loader epoch and
# ragged-loader (epoch, pad assembly) benchmarks, one iteration each, so
# they keep compiling and the whole-epoch path stays exercised.
go test -run '^$' -bench '^(BenchmarkOpen|BenchmarkDecodeFused|BenchmarkDecodeSample|BenchmarkFromFloat32|BenchmarkDecodeLE)$' -benchtime=1x ./internal/codec/lut/ ./internal/codec/deltafp/ ./internal/fp16/ ./internal/tensor/
go test -run '^$' -bench '^(BenchmarkSampleCacheGetHit|BenchmarkSampleCacheGetHitParallel|BenchmarkCacheSum|BenchmarkServeHit|BenchmarkTenantEpoch|BenchmarkRaggedEpoch|BenchmarkPadded|BenchmarkPipelineCachedEpoch)$' -benchtime=1x ./internal/pipeline/ ./internal/dataserve/
# benchmark/ is its own module, so the ./... above never reaches it.
(cd benchmark && go vet ./... && go test ./...)
# The portable FP16 conversion the purego tag forces, under the codecs
# that call it, as hosts without F16C run it.
go test -tags purego ./internal/fp16/... ./internal/codec/...
go test -race ./internal/pipeline/... ./internal/iosim/... ./internal/dataserve/... ./internal/dist/... ./internal/train/... ./internal/fault/... ./internal/obs/... ./internal/nn/... ./internal/sweep/... ./cmd/sweep/... ./internal/codec/... ./internal/fp16/...
./scripts/coverage.sh
