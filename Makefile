# Developer entry points. `make check` mirrors what CI runs.
#
# `make lint` runs asvlint, the project's own static analyzer (see
# internal/analysis): pool Get/Put pairing, goroutine lifecycle, dropped
# errors, golden-corpus determinism, and lock/atomic copy rules. `make
# lint-fix` is the cleanup loop: gofmt the tree, then print the remaining
# asvlint findings grouped by rule so related fixes land together.

# Every package is race-checked by default — new subsystems are covered the
# moment they appear, instead of opting in here.
RACE_PKGS := ./...

# Fuzz targets exercised by fuzz-smoke, as package:Target pairs.
FUZZ_TARGETS := \
	./internal/imgproc:FuzzReadPGM \
	./internal/imgproc:FuzzReadPFM \
	./internal/imgproc:FuzzImagePool \
	./internal/deconv:FuzzTransformEquivalence \
	./internal/schedule:FuzzCostModelInvariants \
	./internal/stereo:FuzzSatAdd \
	./internal/serve:FuzzSnapshotDecode \
	./internal/perception:FuzzCalibrationJSON \
	./internal/perception:FuzzCloudDecode

# Minimum total test coverage (percent) enforced by `make cover` and CI.
COVER_THRESHOLD := 80

.PHONY: build test test-workers race perfbench-test bench bench-json serve-bench-json kernels-json kernels-gate eval-json ladder-json perfbench serve-smoke cluster-smoke perception-smoke degrade-smoke fmt fmt-check vet lint lint-fix perf-gate check fuzz-smoke cover

build:
	go build ./...

# Same invocation as the release verification (`go build ./... && go test
# ./...`): keeping them identical means CI cannot pass on a subset of the
# suite that the verify step then fails on. Slow tests gate themselves on
# testing.Short(); use `go test -short ./...` locally for a quick loop.
test:
	go test ./...

# The par-split kernels and the concurrent SGM sweeps must give the same
# output at any worker count, but `go test` runs them only at the host's
# GOMAXPROCS; rerun the bit-identity suites serial and at an odd count.
WORKER_TESTS := 'Golden|Fixed|Naive|SGM|Pipeline|Stream'
WORKER_PKGS := . ./internal/stereo ./internal/pipeline

test-workers:
	ASV_WORKERS=1 go test -run $(WORKER_TESTS) $(WORKER_PKGS)
	ASV_WORKERS=3 go test -run $(WORKER_TESTS) $(WORKER_PKGS)

race:
	go test -race $(RACE_PKGS)

# perfbench/ is a nested module, so `go test ./...` never builds it, yet it
# is the benchmark's contract with the pipeline, quality and serve APIs.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate BENCH_pipeline.json (serial vs streaming-runtime throughput).
bench-json:
	go run ./cmd/asvbench -exp pipeline -json BENCH_pipeline.json

# Regenerate BENCH_serve.json (depth-serving latency + backpressure).
serve-bench-json:
	go run ./cmd/asvbench -exp serve -json BENCH_serve.json

# Regenerate BENCH_kernels.json, the committed ns/pixel baseline for the
# matching kernels (float vs fixed-point).
kernels-json:
	go run ./cmd/asvbench -exp kernels -json BENCH_kernels.json

# Measure the kernels fresh and fail if any regressed past 2.5x the
# committed baseline; the fresh JSON is left for CI to upload.
kernels-gate:
	go run ./cmd/asvbench -exp kernels -json BENCH_kernels.fresh.json -gate BENCH_kernels.json

# Run the repository benchmark (BENCHMARK.json, perfbench/README.md): each
# workload for 15 s, one JSON result line apiece, every output checked
# against the serial oracle. For per-layer timings run one workload with
# `python3 perfbench/run.py --workload <name> --trace 1`.
perfbench:
	@set -e; for w in ism_stream key_only serve_cameras; do \
		python3 perfbench/run.py --workload $$w --seconds 15 --trace 0; \
	done

# Regenerate BENCH_eval.json, the committed accuracy sweep (bad-pixel
# rates + depth RMSE per preset x matcher x PW) from the batch evaluator.
eval-json:
	go run ./cmd/asveval -json BENCH_eval.json

# Regenerate quality_ladder.json, the committed per-rung accuracy/cost
# pricing of the operating-point ladder the server degrades along.
ladder-json:
	go run ./cmd/asveval -ladder quality_ladder.json

# End-to-end smoke of the serving layer: boot asvserve on a random port,
# push ~50 requests through asvload, assert latency was reported and no
# request failed server-side, then drain via SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the sharded tier: two asvserve shards sharing a spill
# directory, an asvgate over them, load through the gateway, then a drain
# that must migrate every session and keep its stream serving.
cluster-smoke:
	./scripts/cluster_smoke.sh

# End-to-end smoke of the 3D perception path: render a raw (misaligned)
# pair with asvgen, serve it into a calibrated session, and check the
# disparity/depth/point-cloud responses are well-formed.
perception-smoke:
	./scripts/perception_smoke.sh

# End-to-end smoke of overload degradation: a starved asvserve (1 worker,
# paced key matcher) flooded with best-effort sessions must answer every
# frame by stepping down the quality ladder — zero 429s, some degraded.
degrade-smoke:
	./scripts/degrade_smoke.sh

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# Project-specific invariants; exits nonzero on any finding.
lint:
	go run ./cmd/asvlint ./...

# Format the tree, then show what asvlint still wants, grouped by rule.
# The lint step's exit status is propagated: a dirty tree must fail the
# target, not just print.
lint-fix:
	gofmt -w .
	go run ./cmd/asvlint -group ./...

# Compiler-diagnostics gate for the fixed-point kernels: rebuild
# internal/stereo with escape/inline/bounds-check diagnostics and compare
# per-function counts against internal/stereo/perf_contract.json. The fresh
# parsed report is left for CI to upload. After an intentional kernel
# change, regenerate the contract with
# `go run ./cmd/asvlint -perf -perf-update`.
perf-gate:
	go run ./cmd/asvlint -perf -perf-json PERF_stereo.fresh.json

# Run every native fuzz target briefly (seed corpus + ~10s of new inputs
# each); any crasher fails the build.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; target=$${t#*:}; \
		echo "fuzz $$pkg $$target"; \
		go test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s "$$pkg"; \
	done

# Total coverage across all packages must stay at or above COVER_THRESHOLD.
cover:
	go test -coverprofile=cover.out -coverpkg=./... ./...
	@go tool cover -func=cover.out | tail -1
	@total=$$(go tool cover -func=cover.out | tail -1 | sed 's/[^0-9.]*\([0-9.]*\)%.*/\1/'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_THRESHOLD)" 'BEGIN{print (t+0 >= m+0) ? 1 : 0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below the $(COVER_THRESHOLD)% floor" >&2; exit 1; fi

check: build vet lint perf-gate fmt-check test test-workers race perfbench-test bench fuzz-smoke serve-smoke cluster-smoke perception-smoke degrade-smoke cover kernels-gate
