GO ?= go

.PHONY: build test race vet lint bench-smoke bench-check compare-smoke directed-smoke fuzz-smoke

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

# fuzz-smoke runs every fuzz target in the module, one after another, for
# 10 s each, starting from its seeds and its checked-in corpus under
# testdata/fuzz. `go test -list` finds the targets, so a new fuzzer joins
# without an edit here. Any finding fails the target and writes the input
# under the package's testdata/fuzz.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { names = names " " $$1 } /^ok/ { if (names != "") print $$2 names; names = "" }' | \
	{ n=0; while read pkg targets; do \
		for t in $$targets; do \
			n=$$((n + 1)); echo "fuzz-smoke: $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done; [ $$n -gt 0 ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; }

# bench-smoke runs every Go benchmark in the module once, so a benchmark that
# no longer runs fails the target; `go test -bench .` finds them, so a new
# benchmark joins without an edit here. One iteration measures nothing: the
# repository benchmark is bench/fragbench (see bench-check and bench/run.sh).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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
