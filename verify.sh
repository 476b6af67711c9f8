#!/bin/sh
# Full merge gate: build, vet, repo lint, tests, race pass.
# Mirrors .github/workflows/ci.yml; run locally before pushing.
set -eux

go build ./...
go vet ./...
go run ./cmd/scipplint ./...
go test ./...
# The codec kernel, FP16 conversion, cache-hit layer and ragged-loader
# (epoch, pad assembly) benchmarks, one iteration each, so they keep
# compiling.
go test -run '^$' -bench '^(BenchmarkOpen|BenchmarkDecodeFused|BenchmarkDecodeSample|BenchmarkFromFloat32)$' -benchtime=1x ./internal/codec/lut/ ./internal/codec/deltafp/ ./internal/fp16/
go test -run '^$' -bench '^(BenchmarkSampleCacheGetHit|BenchmarkSampleCacheGetHitParallel|BenchmarkCacheSum|BenchmarkServeHit|BenchmarkRaggedEpoch|BenchmarkPadded)$' -benchtime=1x ./internal/pipeline/ ./internal/dataserve/
# benchmark/ is its own module, so the ./... above never reaches it.
(cd benchmark && go vet ./... && go test ./...)
# The portable FP16 conversion the purego tag forces, under the codecs
# that call it, as hosts without F16C run it.
go test -tags purego ./internal/fp16/... ./internal/codec/...
go test -race ./internal/pipeline/... ./internal/iosim/... ./internal/dataserve/... ./internal/dist/... ./internal/train/... ./internal/fault/... ./internal/obs/... ./internal/nn/... ./internal/sweep/... ./cmd/sweep/... ./internal/codec/... ./internal/fp16/...
./scripts/coverage.sh
