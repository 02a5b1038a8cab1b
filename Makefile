GO ?= go

.PHONY: all build test race vet vet-bitset fmt bench bench-smoke bench-diff bench-kernel bench-kernel-diff bench-scale bench-scale-smoke bench-scale-diff test-serve bench-serving bench-serving-smoke bench-serving-diff

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# vet-bitset is the dedicated vet gate for the word-parallel mask layer:
# every engine's per-seed state rides this package, so it stays vet-clean
# on its own (CI runs it even if the broad vet target is ever narrowed).
vet-bitset:
	$(GO) vet ./internal/bitset/...

fmt:
	gofmt -l .

# bench-smoke runs every benchmark exactly once: the CI smoke step that
# keeps the benchmark suite compiling and terminating.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# HOST_FINGERPRINT keys recorded bench baselines to the machine that
# produced them: benchdiff gates hard only when the two streams' hosts
# match, and downgrades regressions to warnings across hardware.
# Lazily expanded (=) so the sub-shells run only for targets that use it.
HOST_FINGERPRINT = $(shell $(GO) env GOOS)-$(shell $(GO) env GOARCH)-$(shell hostname)-$(shell nproc 2>/dev/null || echo ncpu)

# bench regenerates the seed-selection benchmark suite (the contribution-
# table engine vs its naive oracles in deframe, mis and lowdeg, plus the
# synthetic condexp shape) as a machine-readable test2json stream — with
# the recording host's fingerprint as the first line — so the perf
# trajectory is diffable across PRs and baselines are keyed per machine.
bench:
	@echo '{"Host":"$(HOST_FINGERPRINT)"}' > BENCH_seed_selection.json
	$(GO) test -run '^$$' -bench 'SeedSelection' -benchmem -count 1 -json \
		./internal/condexp ./internal/deframe ./internal/mis ./internal/lowdeg \
		>> BENCH_seed_selection.json
	@echo "wrote BENCH_seed_selection.json (host $(HOST_FINGERPRINT))"

# bench-diff gates the mask-based engine path against a recorded baseline
# stream: any table/* row more than 10% slower fails the target — when
# the baseline carries this host's fingerprint. On a host mismatch the
# comparison prints warnings and exits 0. The default baseline
# (BENCH_seed_selection_flat.json, captured just before the bitset
# refactor) predates host keying, so against it the gate is advisory
# everywhere; to gate hard on your machine, record a stamped snapshot
# once (`make bench && cp BENCH_seed_selection.json BENCH_baseline_$$(hostname).json`)
# and pass it via BENCH_BASELINE. Regenerate the current stream with
# `make bench` first.
BENCH_BASELINE ?= BENCH_seed_selection_flat.json
bench-diff:
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) \
		-new BENCH_seed_selection.json -tol 0.10 -filter table/

# bench-kernel streams the internal/kernel microbenchmarks — the
# unit-stride row add/reduce, compare-and-movemask, blocked-transpose,
# popcount and and-not inner loops under the seed-major tables — into
# BENCH_kernel.json, host-stamped like the seed-selection stream. Every
# kernel emits one row per dispatch path (dispatch=generic vs
# dispatch=avx2 on capable amd64 hosts), so the committed stream records
# the scalar-vs-vector gap, not just one number per shape.
bench-kernel:
	@echo '{"Host":"$(HOST_FINGERPRINT)"}' > BENCH_kernel.json
	$(GO) test -run '^$$' -bench 'Kernel' -benchmem -count 1 -json ./internal/kernel \
		>> BENCH_kernel.json
	@echo "wrote BENCH_kernel.json (host $(HOST_FINGERPRINT))"

# bench-kernel-diff gates the kernel stream against a recorded baseline
# at the same >10% threshold as the other streams (hard only when the
# baseline carries this host's fingerprint; advisory across hardware).
# Snapshot a baseline once per machine:
#   make bench-kernel && cp BENCH_kernel.json BENCH_kernel_$$(hostname).json
BENCH_KERNEL_BASELINE ?= BENCH_kernel.json
bench-kernel-diff:
	$(GO) run ./cmd/benchdiff -old $(BENCH_KERNEL_BASELINE) \
		-new BENCH_kernel.json -tol 0.10 -filter Kernel

# bench-scale sweeps the derandomized deframe solver and the classical
# randomized baselines (Jones–Plassmann, Luby) across graph sizes up to
# 10^6 vertices on gnp and Chung–Lu power-law workloads, streaming wall
# time, rounds, peak live heap and color count into BENCH_scale.json
# (host-stamped, benchdiff-gateable like the other streams). The full
# sweep takes minutes; CI runs bench-scale-smoke instead.
bench-scale:
	$(GO) run ./cmd/scalebench -sizes 10000,100000,1000000 -out BENCH_scale.json
	@echo "wrote BENCH_scale.json"

# bench-scale-smoke is the CI leg: a small-n sweep that keeps the whole
# harness (generators, baselines, stream format) exercised in seconds.
bench-scale-smoke:
	$(GO) run ./cmd/scalebench -sizes 2000 -out BENCH_scale_smoke.json
	$(GO) run ./cmd/benchdiff -old BENCH_scale_smoke.json -new BENCH_scale_smoke.json \
		-tol 0.10 -filter Scale/ > /dev/null
	@echo "scale smoke ok (stream parses and self-diffs clean)"

# bench-scale-diff gates BENCH_scale.json rows against a recorded
# baseline at the same >10% threshold as the kernel stream. Snapshot a
# baseline once per machine:
#   make bench-scale && cp BENCH_scale.json BENCH_scale_$$(hostname).json
BENCH_SCALE_BASELINE ?= BENCH_scale.json
bench-scale-diff:
	$(GO) run ./cmd/benchdiff -old $(BENCH_SCALE_BASELINE) \
		-new BENCH_scale.json -tol 0.10 -filter Scale/

# test-serve runs the HTTP serving layer and its trace dependency under
# the race detector: the request-path cancellation tests, the overload /
# 429 shedding test and the cache canonicalization suite all exercise
# cross-goroutine state on purpose.
test-serve:
	$(GO) test -race -count=1 ./internal/serve ./internal/trace

# bench-serving drives a mixed workload (3 generators × 2 sizes × 3
# algorithms, 50% repeats hitting the content-addressed cache) against
# an in-process colord over loopback HTTP and records serving latency
# percentiles, inverse throughput and cache hit rate as a host-stamped
# test2json stream — the serving-layer analogue of `make bench-scale`.
bench-serving:
	$(GO) run ./cmd/loadgen -inprocess -duration 20s -concurrency 8 \
		-repeat 0.5 -out BENCH_serving.json
	@echo "wrote BENCH_serving.json"

# bench-serving-smoke is the CI leg: a short in-process run that keeps
# the whole serving pipeline (server, loadgen, stream format, benchdiff
# parse) exercised in seconds, self-diffed so format drift fails fast.
bench-serving-smoke:
	$(GO) run ./cmd/loadgen -inprocess -duration 5s -requests 60 -concurrency 4 \
		-sizes 200,400 -out BENCH_serving_smoke.json
	$(GO) run ./cmd/benchdiff -old BENCH_serving_smoke.json -new BENCH_serving_smoke.json \
		-tol 0.10 -filter Serving/ > /dev/null
	@echo "serving smoke ok (stream parses and self-diffs clean)"

# bench-serving-diff gates BENCH_serving.json rows (all lower-is-better:
# p50/p99 latency, ns per solve) against a recorded baseline at the same
# >10% threshold as the other streams. Snapshot a baseline once per
# machine:
#   make bench-serving && cp BENCH_serving.json BENCH_serving_$$(hostname).json
BENCH_SERVING_BASELINE ?= BENCH_serving.json
bench-serving-diff:
	$(GO) run ./cmd/benchdiff -old $(BENCH_SERVING_BASELINE) \
		-new BENCH_serving.json -tol 0.10 -filter Serving/
