#!/bin/sh
# Full merge gate: build, vet, repo lint, tests and one-iteration
# benchmarks, the nested benchmark/ module, the purego pass, the race pass
# and the coverage ratchet. Each command is written once, in its Makefile
# target; CI's steps call the same targets.
set -eux

make build vet lint test bench-module purego race cover
