# Tier-1 check for this repo: `make ci` (lint + build + race tests + the
# fleetsim -> ingestd smoke run). The plain seed check `go build ./... &&
# go test ./...` remains a subset of this.

GO ?= go

.PHONY: ci vet lint repolint build test race cover equiv smoke fuzz fuzz-smoke bench bench-report clean

ci: lint build race equiv cover fuzz-smoke smoke bench-report

vet:
	$(GO) vet ./...

# Static-analysis gate: plain `go vet` plus the eight repolint analyzers
# (determinism, noalloc, severerr, units, obscopy, wiresize, goexit,
# lockhold — see DESIGN.md "Statically enforced invariants") driven through
# go vet's -vettool protocol, so per-package results are cached in the build
# cache like any other vet run. `make lint` is a strict superset of
# `make vet`. The human-readable vet pass gates the build; the -json pass
# archives the full finding set — suppressed findings and their
# justifications included — to bin/repolint_findings.json for CI to track.
lint: vet repolint
	$(GO) vet -vettool=$(abspath bin/repolint) ./...
	@bin/repolint -json ./... > bin/repolint_findings.json
	@echo "lint: findings archived to bin/repolint_findings.json"

repolint:
	@mkdir -p bin
	$(GO) build -o bin/repolint ./cmd/repolint

build:
	$(GO) build ./...
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Statement-coverage gate: the total must not fall below the floor in
# scripts/coverage_floor.txt (set ~3 points under the measured total, so
# normal churn passes but a PR that deletes tests or lands an untested
# subsystem fails).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat scripts/coverage_floor.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 >= f + 0 ? 0 : 1) }' || \
	  { echo "coverage $$total% is below the $$floor% floor" >&2; exit 1; }

# Columnar equivalence harness: 120 randomized fixed-seed traces through
# the per-record, FeedBatch and METR-3 StreamBatches paths must produce
# bit-identical accumulator state and results (see
# internal/analysis/equiv_test.go). Run with -count=1 so a cached pass
# never masks a codec change.
equiv:
	$(GO) test -run 'TestColumnarEquivalence' -count=1 ./internal/analysis/

# End-to-end load smoke: 200 synthetic devices stream one trace-day each
# into a local ingestd — once clean, once through the fault injector;
# fleetsim exits non-zero on any dropped or rejected record, and ingestd
# must drain gracefully on SIGTERM both times.
smoke: build
	./scripts/smoke.sh

# Short runs of every fuzz target (trace reader, METR-3 columnar decoder,
# parallel file reader, LZ codec, pcap reader, packet parser, ingest frame
# decoder, checkpoint decoder, tsq query parser).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzMETR3Decoder -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzReadFileParallel -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/lz/
	$(GO) test -run=NONE -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) ./internal/lz/
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/pcapio/
	$(GO) test -run=NONE -fuzz=FuzzDecodePacket -fuzztime=$(FUZZTIME) ./internal/netparse/
	$(GO) test -run=NONE -fuzz=FuzzFrameDecoder -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run=NONE -fuzz=FuzzCheckpointDecoder -fuzztime=$(FUZZTIME) ./internal/ingest/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzQueryParse -fuzztime=$(FUZZTIME) ./internal/tsq/

# The ci gate briefly fuzzes the most network-exposed decoder and the
# indexed trace-file decoders (whole-file read and range scan); run `make
# fuzz` for the full set.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzFrameDecoder -fuzztime=10s ./internal/ingest/
	$(GO) test -run=NONE -fuzz=FuzzReadFileParallel -fuzztime=10s ./internal/trace/

# Full benchmark suite with the regression gate: records BENCH_<date>.json
# and fails on a >15% regression in the apply pair or decode throughput
# against the previous run (scripts/bench.sh -no-compare to skip).
bench:
	./scripts/bench.sh

# Quick advisory run for ci: single iterations, output parked in /tmp so
# throwaway numbers never enter the BENCH_*.json history, and the leading
# '-' keeps a noisy shared machine from failing the gate.
bench-report:
	-BENCHTIME=1x COUNT=1 APPLY_BENCHTIME=1x APPLY_COUNT=1 \
	  TRACE_BENCHTIME=1x TRACE_COUNT=1 \
	  ./scripts/bench.sh -no-compare /tmp/netenergy_bench_ci.json

clean:
	rm -rf bin
