GO ?= go
BENCH_STAMP := $(shell date -u +%Y%m%dT%H%M%SZ)

.PHONY: build test race vet lint bench bench-json bench-diff bench-check compare-smoke directed-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint chains the static gates: go vet, gofmt (any tracked .go file it would
# reformat fails the target), staticcheck when installed (CI always runs it;
# local runs without the binary degrade to a notice), and fraglint — the
# repo's own diagnostics engine — over the built-in corpus apps the
# examples/ programs drive, failing on error-severity findings.
lint: vet
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) run ./cmd/fraglint -builtin -severity error

# bench writes the full benchmark log (the reproduction record) to a
# timestamped file so runs can be compared over time.
bench:
	$(GO) test -bench . -benchmem -run '^$$' . | tee BENCH_$(BENCH_STAMP).txt

# bench-json runs the perf-record benchmarks (cold write-through study vs
# warm disk-served study, and the Table I evaluation against a warm store)
# and renders the result as JSON. Each benchmark line is parsed by unit token
# rather than by column, so custom metrics flow through as JSON fields next
# to ns_per_op/bytes_per_op/allocs_per_op. The derived ratio warm_speedup is
# cold/warm on the study; host_cpus records GOMAXPROCS.
#
# On top of the microbenchmarks, the target streams a STUDY_N-app generated
# family through `fragstudy -corpus family -stream` (cache off: pure
# generate-build-scan-release throughput, no disk tier) and merges the
# resulting record in, adding the FamilyStudyStream row (ns_per_op is
# per-app wall time) and the top-level apps_per_sec / peak_heap_bytes
# numbers. BENCHTIME trades accuracy for time (CI uses a short count and a
# small STUDY_N as a smoke signal; the checked-in BENCH_PR10.json comes from
# BENCHTIME=10x, STUDY_N=10000).
BENCHTIME ?= 10x
BENCH_JSON ?= BENCH_PR10.json
STUDY_N ?= 10000

# bench-diff compares two bench-json records benchmark by benchmark:
# per-benchmark ns/op, B/op and allocs/op deltas plus both records' derived
# ratios. Defaults compare the current perf record against the previous one;
# CI reuses the script with --min-ratio and --min-rel floors as parity gates
# on smoke runs.
BENCH_DIFF_OLD ?= BENCH_PR9.json
BENCH_DIFF_NEW ?= $(BENCH_JSON)

bench-diff:
	python3 scripts/bench_diff.py $(BENCH_DIFF_OLD) $(BENCH_DIFF_NEW)

# bench-check vets and tests the repository benchmark (bench/fragbench). It
# is a module of its own (bench/go.mod), so the build, vet and test targets
# above never reach it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# compare-smoke runs the strategy bake-off — every registered strategy over
# the 15-app corpus, COMPARE_SEEDS seeds, COMPARE_BUDGET test cases/events
# per run — and writes the per-strategy coverage-at-budget table (mean and
# variance across seeds) as JSON. The checked-in BENCH_PR7.json comes from
# the defaults; CI runs the same target as a smoke signal on every PR.
COMPARE_BUDGET ?= 300
COMPARE_SEEDS ?= 3
COMPARE_JSON ?= BENCH_PR7.json

compare-smoke:
	$(GO) run ./cmd/fragstudy -compare all -budget $(COMPARE_BUDGET) \
		-seeds $(COMPARE_SEEDS) -seed 7 -cache off -comparejson $(COMPARE_JSON)
	@cat $(COMPARE_JSON)

# directed-smoke runs the PR8 directed-exploration study: the 313-site gap
# classification (dynamically confirmed / statically lifted-but-unreached /
# unliftable, rows summing to the 313-invocation static ceiling and the 269
# confirmed invocations) plus the directed-vs-undirected steps-to-target
# comparison over DIRECTED_SEED..+2, writing the bench summary as JSON. The
# checked-in BENCH_PR8.json comes from the defaults; CI runs the same target
# as a gate on every PR (the totals and the mean step ratio are deterministic).
DIRECTED_SEED ?= 1
DIRECTED_JSON ?= BENCH_PR8.json

directed-smoke:
	$(GO) run ./cmd/fragstudy -directed -seed $(DIRECTED_SEED) -cache off \
		-directedjson $(DIRECTED_JSON)
	@cat $(DIRECTED_JSON)

bench-json:
	$(GO) test -run '^$$' -bench 'StudyColdCache|StudyWarmCache|EvaluationWarmCache' \
		-benchtime $(BENCHTIME) -benchmem ./internal/report/ \
	| awk 'BEGIN { print "{"; print "  \"benchmarks\": [" } \
	/^Benchmark/ { \
		name = $$1; \
		if (match(name, /-[0-9]+$$/)) cpus = substr(name, RSTART + 1, RLENGTH - 1); \
		sub(/^Benchmark/, "", name); sub(/-[0-9]+$$/, "", name); \
		line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, $$2); \
		for (i = 3; i < NF; i += 2) { \
			v = $$i; u = $$(i+1); \
			if (u == "ns/op") { key = "ns_per_op"; ns[name] = v } \
			else if (u == "B/op") key = "bytes_per_op"; \
			else if (u == "allocs/op") key = "allocs_per_op"; \
			else { key = u; gsub(/[^A-Za-z0-9_]/, "_", key) } \
			line = line sprintf(", \"%s\": %s", key, v); \
		} \
		if (n++) printf ",\n"; \
		printf "%s}", line } \
	END { \
		printf "\n  ]"; \
		if (cpus == "") cpus = 1; \
		printf ",\n  \"host_cpus\": %s", cpus; \
		if (ns["StudyColdCache"] > 0 && ns["StudyWarmCache"] > 0) \
			printf ",\n  \"warm_speedup\": %.2f", ns["StudyColdCache"] / ns["StudyWarmCache"]; \
		print "\n}" }' > $(BENCH_JSON).micro
	$(GO) run ./cmd/fragstudy -corpus family -n $(STUDY_N) -stream -cache off \
		-streamjson $(BENCH_JSON).stream
	python3 scripts/bench_merge.py $(BENCH_JSON).micro $(BENCH_JSON).stream > $(BENCH_JSON)
	rm -f $(BENCH_JSON).micro $(BENCH_JSON).stream
	@cat $(BENCH_JSON)
