GO ?= go
# bash for pipefail in the bench targets.
SHELL := /bin/bash

.PHONY: build test vet fmt-check race perfbench-check bench bench-short bench-compare chaos lease-stress fuzz-smoke fleet-remote-smoke fleet-resume-smoke verify

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

# perfbench is its own module over the engine's internal API, so the
# root build and tests never compile it; a change that breaks it must
# fail here, not in the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

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

# The fleet daemon's lease tests run on a clock the test moves, so
# each pass repeats the same lease timeline: expiries, backoffs and
# exhausted attempts at exact instants. Many race-checked passes catch
# a lease path that depends on goroutine scheduling instead.
LEASE_TESTS := ^(TestLease.*|TestExhaustedChunksListed|TestTakeLocalReturnsWhenCanceled|TestLocalLeasesNeverExpire|TestRemote(WorkerKilledMidRun|SoleWorkerReplaced|RefusedResultReleased|LeaseTimeoutReleased|AttemptsExhausted|ResumeRetriesOnlyFailed))$$
lease-stress:
	$(GO) test -race -count=50 -run '$(LEASE_TESTS)' ./internal/fleetsvc

# Short native-fuzzing smoke runs over the charge-sharing, task-commit,
# spec-resolve, prefix-store, store-entry, submit-body and journal-log
# targets; the checked-in corpus always runs under plain `go test`, this
# adds a few seconds of fresh exploration.
# FuzzSubmit skips minimization: shrinking an interesting input over the
# 64 KiB body cap took most of its 5 s, leaving about a quarter of the
# executions. FuzzJournal skips it for the same reason: inputs grown from
# its 25 KiB-line seed stalled the run after about 9 s, at a third of
# the executions of a run without it. FuzzPrefixesAcrossJobs skips it
# too: each input simulates up to four jobs, and minimizing its first
# interesting input stalled the run at 10 executions in 5 s, against
# about 100 without it.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzConnect -fuzztime=5s ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzCommitAtomicity -fuzztime=5s ./internal/task
	$(GO) test -run='^$$' -fuzz=FuzzResolveSpec -fuzztime=5s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzPrefixesAcrossJobs -fuzztime=5s -fuzzminimizetime=0 ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzPartialDecode -fuzztime=5s ./internal/fleetsvc
	$(GO) test -run='^$$' -fuzz=FuzzSubmit -fuzztime=5s -fuzzminimizetime=0 ./internal/fleetsvc
	$(GO) test -run='^$$' -fuzz=FuzzJournal -fuzztime=5s -fuzzminimizetime=0 ./internal/fleetsvc

# Distributed-path smoke: a loopback daemon that computes nothing
# itself (-jobs 0) and two remote worker processes (real capyfleet
# binaries, not in-process goroutines); the daemon is killed with -9
# mid-job and restarted on the same store while the workers keep
# running. The report must be byte-identical to the single-process
# report, with the chunks the workers finished before the kill
# reloaded, and the workers must exit 0 on SIGTERM.
fleet-remote-smoke:
	bash scripts/remote_smoke.sh

# Daemon crash/resume smoke: boot the capyfleet daemon, submit a job,
# kill -9 it once checkpoints appear, restart it over the same store,
# and diff the resumed job's report against the single-process
# reference — byte-identical, with checkpointed chunks reloaded rather
# than recomputed. Then resubmit the spec to the restarted daemon: it
# must compute nothing and serve the same bytes.
fleet-resume-smoke:
	bash scripts/resume_smoke.sh

# The full verify path: what CI runs.
verify: build vet fmt-check test race perfbench-check fleet-remote-smoke fleet-resume-smoke
