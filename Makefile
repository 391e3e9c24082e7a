GO ?= go

.PHONY: all vet lint build test race chaos chaos-disk cluster-diff fsck fuzz bench bench-search bench-discovery bench-tick bench-test paper-tables serve-test predict-diff adversarial loc check

all: check

vet:
	$(GO) vet ./...

# vet plus the repo's clock-discipline check: pipeline code reads time
# through simclock.Clock only (time.Now is allowed in simclock's Real
# implementation, cmd/, and tests) so instrumented runs stay deterministic.
# Then the reachability check: every non-test func outside bench/ is linked
# by a binary under cmd/ or examples/ (built with inlining off), reached from
# the root package's exported API, or named in lintreach.allow with a reason;
# it lists bench-only functions without failing on them. It builds every
# binary (~20 s cold on 2 vCPUs, a few seconds warm). And gofmt: any file it
# would rewrite fails the target.
lint: vet
	$(GO) run ./cmd/lintclock .
	$(GO) run ./cmd/lintreach .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pipeline fans interrogation out over worker pools; the race detector
# is part of the standard check, not an extra. The eval lab replays months
# of simulated scanning and needs more than go test's default 10m package
# timeout once the race detector's ~10x slowdown is on it.
race:
	$(GO) test -race -timeout 45m ./...

# The deterministic chaos suite: fault injection, crash-recovery
# differentials, and the facade-level recovery test, under the race
# detector (the injector and the per-shard task queues sit on the hot
# concurrent path).
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/core/ ./internal/cqrs/
	$(GO) test -race . -run TestSystemCrashRecoveryUnderChaos

# The disk-fault differential suite: crash a run to real partition files,
# corrupt them deterministically (bit flips, torn tails, truncations that cut
# two or more records off a partition file, missing files, a corrupt
# checkpoint mirror), and require recovery to come back either bit-identical
# or degraded with exactly the condemned partitions quarantined.
chaos-disk:
	$(GO) test -race ./internal/chaos/ \
		-run 'TestDiskCrashResumeCleanRoundTrip|TestDiskFaultDifferential|TestFsckDetectsInjectedCorruption|TestStorageTelemetryDeterministic'

# The cluster differential suite: the replication log's own tests (ship
# round trips, integrity refusals, wire records), then replicated multi-node
# runs (several node counts, several chaos seeds, quorum-preserving node
# kills/rejoins) that must be externally bit-identical to the serial
# pipeline — dataset, journal, per-partition replica state, follower-read
# answers — plus the degraded HTTP surface and metric determinism, all under
# the race detector.
cluster-diff:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race ./internal/chaos/ \
		-run 'TestClusterDifferential|TestClusterDegradedSurface|TestClusterTelemetryDeterministic|TestNodeFaultSchedule'

# Offline store verification: the storage engine's unit + golden-fixture
# tests, then censysfsck over the committed corrupted stores — it must flag
# both (exit 1), proving the operator tool sees what recovery sees — and over
# a store saved in the previous format (version 4), which it must refuse,
# naming both versions.
fsck:
	$(GO) test ./internal/durable/ ./cmd/censysfsck/
	! $(GO) run ./cmd/censysfsck -dir internal/durable/testdata/store_repairable
	! $(GO) run ./cmd/censysfsck -dir internal/durable/testdata/store_quarantine -json
	out=$$($(GO) run ./cmd/censysfsck -dir internal/durable/testdata/store_v4 2>&1); status=$$?; \
		echo "$$out"; [ $$status -ne 0 ] && echo "$$out" | grep -q 'store format version 4, want 5'

# Short coverage-guided fuzzing: the parsers that face untrusted bytes, plus the search differential (random queries against a naive
# reference evaluator, serial and partitioned engines must agree), the
# diffing index upsert (a byte-driven upsert/remove schedule against a fresh
# build), the byte-level tokenizer (against the FieldsFunc tokenizer), and the
# simnet path-table differential (a byte-driven probe schedule against the
# map-keyed model; each input builds a universe, so minimizing is capped by
# count, not the default 60 s), the cluster's replication wire records
# (an accepted event re-encodes to its own bytes), the checkpoint's binary
# sections (likewise; seeded from a real checkpoint, whose sections are large
# enough that minimizing is capped by count too), and FuzzScanResponse (every
# protocol scanner, plain and inside TLS-lite, against arbitrary server bytes
# split over reads: no panic, no banner over the cap). Seed corpora also run
# as part of plain `make test`.
fuzz:
	$(GO) test ./internal/fingerdsl/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/search/ -fuzz FuzzParseQuery -fuzztime 30s
	$(GO) test ./internal/search/ -fuzz FuzzSearchDifferential -fuzztime 30s
	$(GO) test ./internal/search/ -fuzz FuzzIndexUpserts -fuzztime 30s
	$(GO) test ./internal/search/ -fuzz FuzzTokenize -fuzztime 30s
	$(GO) test ./internal/durable/ -fuzz FuzzSegmentDecode -fuzztime 30s
	$(GO) test ./internal/durable/ -fuzz FuzzRecordDecode -fuzztime 30s
	$(GO) test ./internal/cluster/ -fuzz FuzzWireRecord -fuzztime 30s
	$(GO) test ./internal/cqrs/ -fuzz FuzzPayloadDecode -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzCheckpointDecode -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/serve/ -fuzz FuzzDecodeCursor -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzExportCursor -fuzztime 30s
	$(GO) test ./internal/predict/ -fuzz FuzzPrefixExclusion -fuzztime 30s
	$(GO) test ./internal/simnet/ -fuzz FuzzScenarioDecode -fuzztime 30s
	$(GO) test ./internal/simnet/ -fuzz FuzzPathTable -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/protocols/ -fuzz FuzzScanResponse -fuzztime 30s

# The serving-tier suite: HTTP conformance goldens over every /v2 route,
# the export byte-stability differential (writes interleaved between pages),
# the rendered-bytes differential (search, export pages and streams, and host
# point reads with their ETags and 304s, against the encoding/json oracle;
# history reads, rendered once per row version, against a fresh render;
# concurrent first renders, reads racing appends, a partition restore under
# rendered hosts), deterministic rate-limit/quota/shed accounting, the
# bounded-allocation guards for limited search, pinned export pages and
# unchanged host reads, the certificate→hosts pivot read from the index's
# services.cert_sha256 postings (lookup's CertHosts tests, search's
# CertLocations test), the search index's own differentials (queries against
# a naive evaluator with the cache on and off across interleaved upserts, the
# diffing upsert against a fresh build, Index.Verify), and the telemetry
# registry the serving path counts through (allocation-free label lookups) —
# all under the race detector.
serve-test:
	$(GO) test -race ./internal/serve/ ./internal/telemetry/
	$(GO) test -race ./internal/lookup/ -run 'TestSearchBounded|TestHostLookupBoundedAllocation|TestPlacement|CertHosts'
	$(GO) test -race ./internal/search/ -run 'Differential|Incremental|Verify|CertLocations'

# The end-to-end benchmark (BENCHMARK.json), the one measurement system:
# `make bench WORKLOAD=scan_sweep` (or scan_refresh, serve_live, recover)
# prints the layer table and the result JSON.
WORKLOAD ?= serve_live
bench:
	bash bench/run.sh --workload $(WORKLOAD) --trace 1

# The paper's tables and figures (EXPERIMENTS.md), rendered by cmd/benchtables
# on the default lab; `make paper-tables ARGS=-quick` uses the small one.
paper-tables:
	$(GO) run ./cmd/benchtables $(ARGS)

# Read-path query engine benchmarks (the EXPERIMENTS.md "Read path" table).
bench-search:
	$(GO) test -run '^$$' -bench 'BenchmarkSearch|BenchmarkIndexUpsert' \
		-benchmem -benchtime 20x ./internal/search/

# The discovery probe loop: one hourly tick of the three scan classes over
# scan_sweep's universe per op, as ns/probe and allocs/op, and the cyclic
# iterator's step under it.
bench-discovery:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineTick' -benchmem -benchtime 200x ./internal/discovery/
	$(GO) test -run '^$$' -bench 'BenchmarkCycleNext|BenchmarkIteratorNext' -benchmem ./internal/cyclic/

# The two tick phases that once cost what the map knows: the read side's
# cost of one drained event on a host of 1 and of 8 services (flat in the
# service count), and the refresh fill over 1x and 4x the services with the
# same 64 due (flat in the services: it tracks the due slots).
bench-tick:
	$(GO) test -run '^$$' -bench 'BenchmarkDrainEvent|BenchmarkRefreshFill' -benchmem ./internal/core/

# The predictive-scanning suite: the GPS-style scheduler's determinism and
# crash differentials (model, topology cursors, cooldown book, and budget
# ledger must survive a kill at any tick bit-identically), the probe-level
# exclusion invariant, and the equal-budget predictive-vs-exhaustive replay
# that gates on strictly more services per probe on every profile.
predict-diff:
	$(GO) test -race ./internal/chaos/ -run 'Predictive'
	$(GO) test ./internal/eval/ -run 'PredictDiff'
	$(GO) test ./internal/predict/ ./internal/discovery/

# The adversarial scenario suite: hostile-substrate generation and scenario
# codec under the race detector, the path-table differential
# (TestPathTableMatchesMapModel: dense host and path tables against the
# map-keyed model through rate blocks, detectors and injected faults),
# interrogation deadline budgets against tarpits (including pool liveness
# at 100% tarpit density), the scanners against short and hostile replies
# (FuzzScanResponse's seed corpus), honeypot-farm uniformity flagging, the
# predictive model's bounds against hosts no filter caught, adaptive
# backoff + scanner rotation, the chaos differentials over a hostile seed
# (same-seed, layout invariance, kill/resume), and the per-engine
# mislabel/blocking/freshness replay.
adversarial:
	$(GO) test -race ./internal/simnet/ ./internal/interro/ ./internal/protocols/ ./internal/discovery/
	$(GO) test -race ./internal/core/ -run 'Tarpit|Honeypot|Pseudo|Flagged|LearnsNothing'
	$(GO) test -race ./internal/predict/ -run 'PairsBounded'
	$(GO) test -race ./internal/chaos/ -run 'Adversarial'
	$(GO) test ./internal/eval/ -run 'Adversarial'

# The end-to-end benchmark (BENCHMARK.json) is a module of its own under
# bench/, outside `go build ./...`: vet it and run its unit tests so a change
# to an API it builds against fails here, not in the benchmark driver.
bench-test:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Non-test Go lines outside bench/ in the working tree (tracked or not yet
# staged, minus ignored and deleted files): the number every PR reports its
# delta of.
loc:
	@git ls-files -co --exclude-standard '*.go' ':!bench' | grep -v _test.go | \
		while read -r f; do [ -f "$$f" ] && cat "$$f"; done | wc -l

check: lint build race chaos chaos-disk cluster-diff fsck serve-test predict-diff adversarial bench-test
