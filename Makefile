# roborepair — reproduction of "Replacing Failed Sensor Nodes by Mobile
# Robots" (ICDCS Workshops 2006).

GO ?= go

.PHONY: all build test vet race bench bench-json bench-smoke telemetry-smoke invariant-smoke checkpoint-smoke conformance-smoke ftdc-smoke energy-smoke fuzz-smoke cover figures validate examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Full test suite under the race detector — the parallel experiment
# engine's correctness gate.
race:
	$(GO) test -race ./...

# Short-horizon benches: one per paper figure cell plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark record for the per-PR perf ratchet (see
# DESIGN.md §12.3): runs the end-to-end throughput bench (bare and with
# the flight recorder armed), the 10k-sensor world build and its booted
# per-sensor footprint, the paper-density field (10k sensors, 200
# robots), plus the kernel, radio (ideal and contended), wire-codec and
# sensor steady-state microbenches, and writes the parsed metrics to
# BENCH_PR28.json.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput$$|BenchmarkSimulatorThroughputFTDC|BenchmarkWorldBuild|BenchmarkFieldFootprint|BenchmarkPaperDensityField' -benchmem -benchtime 3x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSchedulerHotLoop$$|BenchmarkSchedulerChurn' -benchmem ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkNeighborsDense|BenchmarkMediumBroadcast$$|BenchmarkContendedSend' -benchmem ./internal/radio ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFrameBroadcast' -benchmem ./internal/wire ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSensorSteadyState' -benchmem ./internal/node ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_PR28.json
	@echo "wrote BENCH_PR28.json"

# Fast allocation check on the hot-path benchmarks only (seconds, not
# minutes): scheduler churn, medium broadcast, a codec broadcast, a
# contended codec unicast plus broadcast, a sensor field's beacon period,
# end-to-end throughput (bare, with the flight recorder, with telemetry
# and with the invariant checker), the 10k-sensor world build, that field's live
# heap per sensor after boot, and the paper-density field's live heap per
# sensor and allocations per sim-s. The ceilings are the perf ratchet — a
# regression past a previously banked number fails the build.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerChurn|BenchmarkMediumBroadcast$$|BenchmarkMediumUnicast' -benchtime 1000x ./internal/sim ./internal/radio
	{ $(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput(FTDC|Telemetry|Invariants)?$$|BenchmarkWorldBuild|BenchmarkFieldFootprint|BenchmarkPaperDensityField' -benchmem -benchtime 2x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSchedulerChurn' -benchmem -benchtime 100000x ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkNeighborsDense|BenchmarkMediumBroadcast$$|BenchmarkContendedSend' -benchmem -benchtime 10000x ./internal/radio ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFrameBroadcast' -benchmem -benchtime 10000x ./internal/wire ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSensorSteadyState' -benchmem -benchtime 100x ./internal/node ; } \
	| $(GO) run ./cmd/benchjson -o /dev/null \
		-ceiling 'BenchmarkSimulatorThroughput=allocs/op<=34210' \
		-ceiling 'BenchmarkSimulatorThroughputFTDC=allocs/op<=34270' \
		-ceiling 'BenchmarkSimulatorThroughputTelemetry=allocs/op<=34267' \
		-ceiling 'BenchmarkSimulatorThroughputInvariants=allocs/op<=35064' \
		-ceiling 'BenchmarkWorldBuild=allocs/op<=100200' \
		-ceiling 'BenchmarkWorldBuild=B/op<=10159434' \
		-ceiling 'BenchmarkFieldFootprint=live-B/sensor<=1125' \
		-ceiling 'BenchmarkPaperDensityField=live-B/sensor<=1659' \
		-ceiling 'BenchmarkPaperDensityField=allocs/sim-s<=1486' \
		-ceiling 'BenchmarkSensorSteadyState=allocs/op<=0' \
		-ceiling 'BenchmarkSchedulerChurn=allocs/op<=0' \
		-ceiling 'BenchmarkNeighborsDense=allocs/op<=0' \
		-ceiling 'BenchmarkMediumBroadcast=allocs/op<=0' \
		-ceiling 'BenchmarkFrameBroadcast=allocs/op<=0' \
		-ceiling 'BenchmarkContendedSend=allocs/op<=0'

# End-to-end exporter check: run a small telemetered simulation, then
# validate that the Chrome trace parses, the Prometheus text scrapes,
# and the time-series CSV is well-formed — and is exactly the run's
# flight recording rendered as CSV (one time-series store).
telemetry-smoke:
	$(GO) test -run 'TestTelemetryArtifacts' -count=1 ./cmd/repairsim

# Conservation-law sweep: every algorithm under every built-in chaos
# plan, with the runtime invariant checker on; exits nonzero on any
# violation. CI runs a reduced grid; the default (5 seeds, 8000 s) is the
# pre-release gate.
invariant-smoke:
	$(GO) run ./cmd/invck -seeds 2 -simtime 4000

# Checkpoint/restore gate: the differential test snapshots a mid-flight
# run under every algorithm, round-trips it through the binary format,
# restores, and requires the continuation to be bit-identical to an
# uninterrupted run (results JSON and trace events).
# The journal test proves a SIGKILLed sweep resumes to a byte-identical
# CSV.
checkpoint-smoke:
	$(GO) test -run 'TestCheckpointRestoreDifferential|TestRestoreRejectsTamperedSnapshot' ./internal/scenario
	$(GO) test -run 'TestSweepKillMinusNineResume' ./cmd/sweep

# Cross-algorithm conformance gate: every registered algorithm must
# satisfy the registry contract — serial-vs-pool determinism,
# snapshot→restore→continue bit-identity, zero invariant
# violations under the burst/blackout/corrupt chaos plans, and
# observability-off-is-absent. A newly registered algorithm is covered
# with no test edits.
conformance-smoke:
	$(GO) test -run 'TestConformance' -count=1 .
	$(GO) test ./internal/algorithm ./internal/geom

# Flight-recorder gate: the codec and wiring tests, then an end-to-end
# record → verify → decode → diff pass through the CLIs. Two same-seed
# runs must produce byte-identical recordings (ftdcdump -diff exits
# nonzero otherwise), and -verify enforces the canonical-form property
# (decode → re-encode byte-identical) on a real capture.
ftdc-smoke:
	$(GO) test ./internal/ftdc
	$(GO) test -run 'TestRecorder|TestTelemetryReadsTheRecording' ./internal/scenario
	$(GO) run ./cmd/repairsim -alg dynamic -simtime 4000 -ftdc /tmp/roborepair-a.ftdc > /dev/null
	$(GO) run ./cmd/repairsim -alg dynamic -simtime 4000 -ftdc /tmp/roborepair-b.ftdc > /dev/null
	$(GO) run ./cmd/ftdcdump -verify /tmp/roborepair-a.ftdc
	$(GO) run ./cmd/ftdcdump -diff /tmp/roborepair-a.ftdc /tmp/roborepair-b.ftdc
	$(GO) run ./cmd/ftdcdump /tmp/roborepair-a.ftdc

# Energy-layer gate: the battery ledger and power-model unit tests, the
# end-to-end battery scenarios (starvation, recharge, handoff, targeted
# drain, off-is-absent, seeded-mutation catch, checkpoint round-trip),
# then the invck grid with the layer live — every algorithm under the
# drain plans with the energy-conservation law armed.
energy-smoke:
	$(GO) test ./internal/energy
	$(GO) test -run 'TestBattery|TestEnergyConservation' -count=1 ./internal/scenario
	$(GO) run ./cmd/invck -seeds 2 -simtime 4000 -battery 60000

# Native fuzz smoke: 30 s per target over the checked-in seed corpora.
# The chaos target guards the fault-plan DSL round trip, the wire targets
# the binary codec's canonical-form property and the frame decoder's
# never-panic/never-wrongly-accept property under arbitrary mutation, and
# the kernel target drives the ladder scheduler and the test-only
# reference heap through random op sequences asserting identical fire
# traces. The snapshot and ftdc targets mutate encoded
# checkpoints/recordings asserting the decoders never panic and anything
# they accept re-encodes canonically.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzChaosParse -fuzztime 30s ./internal/chaos
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzFrameCorrupt -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzKernelOps -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 30s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzFTDCDecode -fuzztime 30s ./internal/ftdc

# Coverage gate: the simulation kernel, the scenario layer, the
# invariant checker, the wire codec (the hostile channel's attack
# surface), the flight-recorder codec, the algorithm registry, the
# energy model/ledger, and the failure injector must each stay at or
# above 80% statement coverage.
cover:
	@for pkg in ./internal/sim ./internal/scenario ./internal/invariant ./internal/wire ./internal/ftdc ./internal/algorithm ./internal/energy ./internal/failure; do \
		out=$$($(GO) test -cover $$pkg | tee /dev/stderr); \
		pct=$$(echo "$$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		ok=$$(echo "$$pct 80" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "FAIL: $$pkg coverage $$pct% < 80%"; exit 1; fi; \
	done

# Regenerate the paper's figures at the full 64000 s horizon (minutes).
figures:
	$(GO) run ./cmd/figures -fig all -seeds 3

# Cross-check the simulator against closed-form models.
validate:
	$(GO) run ./cmd/validate

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/algorithmduel
	$(GO) run ./examples/mobilityduel
	$(GO) run ./examples/telemetry > /dev/null
	$(GO) run ./examples/hostilechannel
	$(GO) run ./examples/attrition

clean:
	$(GO) clean ./...
