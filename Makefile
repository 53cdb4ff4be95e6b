# Convenience targets for the uncertsched reproduction repository.
# Everything is plain `go` underneath; the Makefile only names the
# common invocations.

GO ?= go

.PHONY: all build test race lint check cover cover-floors loc bench bench-pair figs figs-check fuzz stress chaos loadtest clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-test every package so new packages are covered by default;
# -shuffle=on randomizes test (and subtest) execution order to flush
# inter-test order dependence the static analyzers cannot see.
race:
	$(GO) test -race -shuffle=on ./...

# The repo-native static-analysis suite (see LINTING.md, whose mutation
# table is why each rule is there): determinism, maporder, seed,
# ctxflow, errdrop, obsnames, floatcmp, plus the flow rules
# (locksafe, hotalloc). Any unsuppressed diagnostic fails the build; so
# does blowing the wall-clock budget, which keeps lint latency an
# enforced property.
LINT_BUDGET ?= 2m

lint:
	$(GO) run ./cmd/uncertlint -budget $(LINT_BUDGET) ./...

# Full gate: what CI runs. Vet, build, uncertlint, the whole test
# suite under the race detector with shuffled order, the chaos layer
# (make chaos), the per-package coverage floors, and the committed experiment
# outputs against a fresh regeneration.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/uncertlint -budget $(LINT_BUDGET) ./...
	$(GO) test -race -shuffle=on ./...
	$(MAKE) chaos
	$(MAKE) cover-floors
	$(MAKE) figs-check

# Per-package statement-coverage floors, one loop for the Makefile and
# CI alike: every package on the list must test at COVER_FLOOR% or
# better.
COVER_PKGS  := cluster front proxy sim lint wire experiments loadheap opt core memaware serve algo
COVER_FLOOR := 80.0

cover-floors:
	@for pkg in $(COVER_PKGS); do \
	  $(GO) test -coverprofile=$$pkg.cov ./internal/$$pkg/ || exit 1; \
	  pct=$$($(GO) tool cover -func=$$pkg.cov | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	  echo "internal/$$pkg coverage: $$pct%"; \
	  awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p >= f) ? 0 : 1 }' \
	    || { echo "coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; }; \
	done

cover:
	$(GO) test -cover ./internal/...

# The two sizes every ISSUE budget and CHANGES entry quotes: per package
# (root, cmd/*, internal/*), non-test .go files' `wc -l` and code-only
# lines (neither blank nor a whole-line // comment). Information, not a
# gate.
loc:
	@printf '%-28s %7s %7s\n' package lines code; \
	for pkg in . cmd/* internal/*; do \
	  files=$$(find $$pkg -maxdepth 1 -name '*.go' ! -name '*_test.go'); \
	  [ -n "$$files" ] || continue; \
	  printf '%-28s %7d %7d\n' $$pkg $$(cat $$files | wc -l) $$(cat $$files | grep -vcE '^\s*(//|$$)'); \
	done | awk '{ print; l += $$2; c += $$3 } END { printf "%-28s %7d %7d\n", "total", l, c }'

# Every go-test benchmark, tests skipped. For looking at one loop while
# working on it; no time measured here is a claim (bench-pair below is
# the one "is it faster"), and allocations are gated by the live
# TestKernelAllocations in `make test`.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# "Is it faster": cmd/bench built from BASE and from the working tree,
# PAIRS alternating pairs on workload W, a seed per pair; prints each
# end-to-end metric's medians, quartiles, wins and verdict (cmd/bench
# README, "Comparing two commits"). Everything lands in .bench_build/.
BASE  ?= HEAD
W     ?= pipeline-fresh
PAIRS ?= 10

bench-pair:
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(W) -pairs $(PAIRS)

# Regenerate every paper table/figure plus extension experiments into out/.
figs:
	$(GO) run ./cmd/paperfigs -exp all -out out/

# Did a change move any committed result? Regenerate everything into a
# temporary directory and compare it with out/ byte for byte, in both
# directions (a file on one side only fails too). e5.txt is skipped: its
# columns are wall-clock times.
figs-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	  $(GO) run ./cmd/paperfigs -exp all -out "$$tmp" >/dev/null && \
	  diff -rq -x e5.txt out "$$tmp" && echo "out/ matches a fresh regeneration (e5.txt skipped)"

# Every fuzz target, internal/<package>:<Target>, tests skipped, for
# FUZZ_TIME each. The one list: CI's fuzz smoke is `make fuzz`, so a new
# target is one word here.
FUZZ_TIME    := 30s
FUZZ_TARGETS := tick:FuzzTimeConv sim:FuzzGroupPartition sim:FuzzOpenWheel sim:FuzzRankSet sim:FuzzFailures \
	opt:FuzzEstimateKernels workload:FuzzReadCSV task:FuzzInstanceJSON task:FuzzNumber \
	wire:FuzzScanItem wire:FuzzEncodeResults wire:FuzzCheckCompact \
	serve:FuzzDecodeInstance serve:FuzzAppendResponse algo:FuzzExecute \
	sched:FuzzVerifyOrder sched:FuzzScheduleJSON loadheap:FuzzTree \
	cluster:FuzzDecodeBatch front:FuzzRing front:FuzzDecodeFrontBatch \
	memaware:FuzzReuse

fuzz:
	@for t in $(FUZZ_TARGETS); do \
	  echo "fuzz internal/$${t%%:*} $${t#*:} $(FUZZ_TIME)"; \
	  $(GO) test -run '^$$' -fuzz=$${t#*:} -fuzztime=$(FUZZ_TIME) ./internal/$${t%%:*}/ || exit 1; \
	done

# The serving layer's concurrency tests under the race detector:
# loopback traffic storm, saturation, graceful shutdown, and the shared
# substrate's pump, breaker, prober and admission-level tests.
stress:
	$(GO) test -race -run Stress -count=1 -v ./internal/serve/
	$(GO) test -race -count=1 -v ./internal/wire/

# The fault-injection tests under the race detector: clusterd backends
# and whole frontd shards killed and restarted mid-batch/mid-stream,
# the metamorphic relations of both policies, and the ownership of the
# bytes a tier reads: the body clusterd forwards outlives a cancelled
# hedge, and no answer reads a buffer after its release. The one
# statement of it: check and CI run this target.
chaos:
	$(GO) test -race -run 'TestChaos|TestMetamorphic|TestForwardedBytesOutliveACancelledHedge|TestNoAnswerReadsAReleasedBuffer' \
	  -count=2 ./internal/cluster/ ./internal/front/

# Checked load smoke: cmd/bench -smoke boots the full tier in-process on
# loopback TCP (frontd over two clusterd shards over two schedds, every
# knob at its default), drives every workload, library and serving,
# closed and open loop, traced and untraced, at toy sizes, checks every
# answer (re-solving a sample) and fails on any wrong, shed or errored
# one.
loadtest:
	$(GO) run ./cmd/bench -smoke

# Removes only what the tree ignores (.gitignore); out/ is tracked.
clean:
	rm -rf *.cov .bench_build/ bench
	$(GO) clean -testcache
