GO ?= go
# bash for pipefail in the bench targets.
SHELL := /bin/bash

.PHONY: build test vet fmt-check race bench bench-short bench-compare chaos fuzz-smoke fleet-shard-smoke fleet-resume-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails if any tracked Go file is not gofmt-clean. It lists tracked
# files only, so build and benchmark caches (.bench_build/) are never
# walked.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# The whole suite must be race-clean: the experiment sweeps fan out
# across goroutines and the determinism golden tests run them at
# several worker counts.
race:
	$(GO) test -race ./...

# One benchmark per paper figure/table, plus the parallel sweep-engine
# speedup (BenchmarkMatrixParallel). The run is piped through benchjson,
# which echoes the output and records the trajectory (ns/op, B/op,
# allocs/op, custom metrics) in BENCH_sim.json so perf regressions show
# up as a diff. set -o pipefail keeps a bench failure fatal.
bench:
	set -o pipefail; $(GO) test -bench=. -benchmem -run='^$$' . | $(GO) run ./cmd/benchjson -out BENCH_sim.json

# The quick CI variant: one iteration per benchmark, just enough to
# keep BENCH_sim.json parseable and the trajectory fresh.
bench-short:
	set -o pipefail; $(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' . | $(GO) run ./cmd/benchjson -out BENCH_sim.json

# Perf-regression gate: stash the committed trajectory, regenerate it
# with the short benchmarks, then diff ns/op per benchmark. Exits 1 if
# anything regressed past BENCH_THRESHOLD (a fraction; 1x-iteration
# short runs are noisy, so the default gate is deliberately loose —
# it catches cliffs, not percent drift). Benchmarks under BENCH_MIN
# old-ns/op are reported but never fail: at one iteration a
# microsecond-scale benchmark measures scheduler noise, not the code.
# Added and removed benchmarks are likewise informational only.
# allocs/attempt (BenchmarkTaskAttempt) is a count, not a timing: it
# repeats from run to run, so a task attempt that starts allocating
# again fails the gate by orders of magnitude.
BENCH_THRESHOLD ?= 1.0
BENCH_MIN ?= 1000000
bench-compare:
	cp BENCH_sim.json BENCH_sim.base.json
	$(MAKE) bench-short
	status=0; $(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) -min $(BENCH_MIN) \
		-metric devices/sec:+ -metric allocs/attempt:- \
		BENCH_sim.base.json BENCH_sim.json || status=$$?; \
	rm -f BENCH_sim.base.json; exit $$status

# Fault-injection sweep: seeded trials with harvester outages injected
# at adversarial instants and the physics-invariant registry checked
# after every simulator event (internal/chaos). Any violation is a
# non-zero exit and is replayable from the printed seed + trial index.
CHAOS_TRIALS ?= 500
CHAOS_SEED ?= 1
chaos:
	$(GO) run ./cmd/capybench -chaos $(CHAOS_TRIALS) -seed $(CHAOS_SEED)

# Short native-fuzzing smoke runs over the charge-sharing and
# task-commit targets; the checked-in corpus always runs under plain
# `go test`, this adds a few seconds of fresh exploration.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzConnect -fuzztime=5s ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzCommitAtomicity -fuzztime=5s ./internal/task
	$(GO) test -run='^$$' -fuzz=FuzzPartialDecode -fuzztime=5s ./internal/fleetsvc

# Distributed-path smoke: launch a loopback coordinator plus two
# worker processes (real capyfleet binaries, not in-process goroutines)
# and diff the sharded report against the single-process report. The
# reports must be byte-identical — the in-repo determinism contract
# extends across process boundaries.
fleet-shard-smoke:
	bash scripts/shard_smoke.sh

# Daemon crash/resume smoke: boot the capyfleet daemon, submit a job,
# kill -9 it once checkpoints appear, restart it over the same store,
# and diff the resumed job's report against the single-process
# reference — byte-identical, with checkpointed chunks reloaded rather
# than recomputed.
fleet-resume-smoke:
	bash scripts/resume_smoke.sh

# The full verify path: what CI runs.
verify: build vet fmt-check test race
