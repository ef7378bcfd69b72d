# BTR reproduction — build / test / benchmark entry points.
#
# `make ci` is the gate every PR must pass (and exactly what
# .github/workflows/ci.yml runs): gofmt diff check, vet, build, the full
# test suite under the race detector, the live wall-clock tests repeated
# under it, and the benchmark module's vet, tests and smoke. Two
# questions, one command each: "does it still hold R?" is `make
# bench-check` (regenerate the campaign verdict bundle and fail on any of
# its gates); "did it get slower?" is the repository's benchmark,
# `go run -C benchmark btr/benchmark -compare` (benchmark/README.md).

GO ?= go
FUZZTIME ?= 30s
# Minimum total statement coverage `make cover` enforces.
COVER_MIN ?= 75

.PHONY: all build test vet fmt fmt-check race race-live bench-test bench-smoke profile-allocs ci cover docs-check bench bench-json bench-check fuzz campaign smoke-proc smoke-client clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-mutating gofmt gate: lists offending files and fails.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Mutating counterpart: rewrite files in place.
fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The wall-clock tests of internal/live, five times over under the race
# detector (~100 s on 2 vCPUs): an in-process live run dispatches every
# event, arrivals included, on its one executor goroutine, so a lagging
# executor delivers nothing late and the live verdicts equal the
# kernel's. A single pass of `race` does not catch an occasional flake.
race-live:
	$(GO) test -race -count=5 -run '^(TestLive|TestExecutorsAgreeOnVerdicts)' ./internal/live

# Short fuzz pass over the wire codecs and the fault-script text form
# (the seed corpora always run as part of `go test`; this digs further):
# the evidence record codec, the in-place evidence parser against the
# owning one, the in-place envelope-list view against a slice-based
# reference, the membership epoch-record codec, the
# transport H/M/B/G frame codec (the only code between a socket and the
# budgeted evidence handler), the client request/response (Q) frame
# codec, and the adversary.Script parser behind `btrlive -faults`.
# Override the budget with `make fuzz FUZZTIME=10s` (CI does).
fuzz:
	$(GO) test ./internal/evidence -fuzz=FuzzRecordRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/evidence -fuzz=FuzzEvidenceParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/evidence -fuzz=FuzzEnvelopeList -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/member -fuzz=FuzzEpochRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -fuzz='^FuzzFrameRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -fuzz=FuzzQFrameRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/adversary -fuzz=FuzzScriptParse -fuzztime=$(FUZZTIME)

# Coverage profile over the whole module plus a threshold gate: total
# statement coverage must stay at or above COVER_MIN.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/... ./cmd/... .
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { pct = $$3; sub("%","",pct); \
		if (pct+0 < $(COVER_MIN)) { printf "coverage %s%% below the $(COVER_MIN)%% floor\n", pct; exit 1 } \
		else printf "coverage %s%% (floor $(COVER_MIN)%%)\n", pct }'

# Docs gate: the FAULT_MODEL.md matrix must cover the full behavior
# catalog with citations resolving to real tests/bench gates, and every
# relative link/anchor in the markdown docs must resolve.
docs-check:
	$(GO) run ./cmd/btrfaultmodel -check
	$(GO) run ./cmd/btrfaultmodel -links README.md ROADMAP.md FAULT_MODEL.md BENCH_SCHEMA.md

# One-iteration benchmark smoke: the kernel-throughput and watchdog
# benchmarks, the verify/seal memo pairs, the evidence-flood
# encode-once/legacy pair, the wire batch-frame codec, and the transport
# coalescing/shedding paths.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/sim ./internal/sig ./internal/evidence ./internal/network ./internal/wire

# The campaign verdict bundle (BENCH_campaign.json, BENCH_SCHEMA.md):
# TestEmitCampaignBench runs the full families, writes the bundle, and
# fails on any rule of the gates table in bench_test.go or on a scenario
# id of the committed bundle missing from the fresh one. bench-json
# rewrites the committed bundle; bench-check writes BENCH_new.json.
bench-json:
	BTR_BENCH_OUT=$(CURDIR)/BENCH_campaign.json $(GO) test -run '^TestEmitCampaignBench$$' -v .

bench-check:
	BTR_BENCH_OUT=$(CURDIR)/BENCH_new.json $(GO) test -run '^TestEmitCampaignBench$$' -v .

# Full campaign, all scenario families, JSON bundle to stdout.
campaign:
	$(GO) run ./cmd/btrcampaign -json

# Multi-process deployment smoke: one OS process per node over real TCP
# sockets, SIGKILL the victim mid-run, respawn it, and require recovery
# within the provable bound plus transport-level rejoin; then a
# concurrent > f storm (SIGSTOP one node while partitioning another,
# parole clock on) that must be flagged, confined, and reconnected.
# The period and margin are the proven single-core constants (see
# internal/live); the timeout bounds a wedged orchestrator, not a slow
# one (a clean run is ~7s of wall clock per leg).
smoke-proc:
	timeout 120 $(GO) run ./cmd/btrlive -orchestrate -nodes 4 -f 1 \
		-period 500ms -margin 200ms -horizon 10 -at 3 -seed 7 -fault kill-restart
	timeout 120 $(GO) run ./cmd/btrlive -orchestrate -nodes 4 -f 1 \
		-period 500ms -margin 200ms -horizon 16 -seed 7 \
		-faults stop@3+3,partition@5+3 -forgive 1s

# Serving-surface smoke: the same orchestrated deployment with client
# sessions attached — epoch-aware quorum reads/writes riding through a
# SIGKILL-and-restart. The exit code carries the client-visible SLO
# verdict (zero errors, unavailability within R plus detection slack)
# on top of the plant's within-R verdict.
smoke-client:
	timeout 180 $(GO) run ./cmd/btrlive -orchestrate -nodes 4 -f 1 \
		-period 500ms -margin 200ms -horizon 10 -at 3 -seed 7 \
		-fault kill-restart -clients 8 -ops 200

# The repository's benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so `./...` above never reaches it: bench-test vets it and runs
# its own tests, and bench-smoke runs every workload at smoke size (0.3 s
# each, correctness wired to the exit code), so an internal API change
# that breaks it fails the gate instead of the next measured PR.
bench-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench-smoke: bench-test
	cd benchmark && $(GO) run . -short

# Where sim_campaign's allocations come from: one quick serial pass of each
# deterministic campaign family with every allocation sampled, merged into
# one table of the top 25 sites by allocated objects, then three
# drill-downs, each with its callers and callees: the planner (plan.Build
# and baseline.MinSpeed, and the sched and network rows of the
# allocation ledger: sched.Build, Topology.DiameterWithin and
# PathAvoiding), the record path (a node's finishTask, emit,
# acceptRecord, onMessage and onEvidenceMessage) and the seal path, the one exact-size buffer each
# caller of sig's in-place primitive, sig.(*Registry).SignAppended,
# allocates (runtime.sealFrame and bogusFrame, evidence.Sealed, and the
# seal memo's misses, sig.(*Registry).sealPayload). The profiles
# (alloc-*.pprof) are gitignored and removed by `make clean`.
PROFILE_FAMILIES = paper campaign churn faultrate
profile-allocs:
	@for f in $(PROFILE_FAMILIES); do \
		GODEBUG=memprofilerate=1 $(GO) run ./cmd/btrcampaign -quick -workers 1 -family $$f \
			-memprofile alloc-$$f.pprof > /dev/null || exit 1; \
	done
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 $(PROFILE_FAMILIES:%=alloc-%.pprof)
	$(GO) tool pprof -sample_index=alloc_objects -peek 'plan\.Build$$|baseline\.MinSpeed$$|sched\.Build$$|network\.\(\*Topology\)\.(DiameterWithin|PathAvoiding)$$' $(PROFILE_FAMILIES:%=alloc-%.pprof)
	$(GO) tool pprof -sample_index=alloc_objects -peek 'runtime\.\(\*Node\)\.(finishTask|acceptRecord)$$' $(PROFILE_FAMILIES:%=alloc-%.pprof)
	$(GO) tool pprof -sample_index=alloc_objects -peek 'runtime\.\(\*Node\)\.(emit|onMessage|onEvidenceMessage)$$' $(PROFILE_FAMILIES:%=alloc-%.pprof)
	$(GO) tool pprof -sample_index=alloc_objects -peek 'runtime\.(sealFrame|bogusFrame)$$|evidence\.Sealed\[|sig\.\(\*Registry\)\.sealPayload$$' $(PROFILE_FAMILIES:%=alloc-%.pprof)

ci: fmt-check vet build race race-live bench-test bench-smoke
	@echo "ci: OK"

clean:
	$(GO) clean ./...
	rm -f BENCH_new.json cover.out alloc-*.pprof
	rm -rf benchmark/out
