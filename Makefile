GO ?= go
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: all build test race vet fmt staticcheck check bench trajectory \
	serve-smoke serve-bench decode-bench trace-smoke \
	persist-smoke fleet-smoke isa-smoke fuzz

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Pinned lint pass, run via `go run` so nothing is installed into the
# module. Requires network/module-cache access for the first run.
staticcheck:
	$(GO) run $(STATICCHECK) ./...

# The full hygiene gate: build + vet + gofmt + staticcheck + race tests.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# Record a BENCH_<LABEL>.json sweep trajectory (wall times + datapoints).
LABEL ?= dev
trajectory:
	sh scripts/bench.sh $(LABEL)

# ccrpd end-to-end smoke: healthz, train/compress/decompress round trip
# byte-compared against ccpack, metrics scrape, SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Serving benchmark: mixed load against a local ccrpd -> BENCH_<LABEL>.json.
serve-bench:
	sh scripts/serve_bench.sh $(LABEL)

# Decode-kernel benchmark: the multi-symbol kernel against the canonical
# oracle, MB/s as Go benchmarks.
decode-bench:
	$(GO) test -run=^$$ -bench='BenchmarkDecode(Canonical|Multi)$$' -benchmem ./internal/huffman

# Tracing end-to-end smoke: ccrpd -trace under a ccrp-load burst, then
# ccrp-spans must decompose every instrumented request stage.
trace-smoke:
	sh scripts/trace_smoke.sh

# Restart-survival gate: train with -store, SIGTERM-drain, reboot on the
# same store, assert zero retrains and byte-identical served output.
persist-smoke:
	sh scripts/persist_smoke.sh

# Fleet serving gate: 3 shared-store backends behind ccrp-router,
# SLO-gated load through the hop, kill -9 one backend mid-run with zero
# client-visible 5xx, then ring re-stabilization and cross-hop traces.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# ISA-backend smoke: assemble + simulate the same program on every
# registered backend (mips, rv32), RVC expansion vector and
# differential gates, and the cross-backend disassembly round trip.
isa-smoke:
	sh scripts/isa_smoke.sh

# Short fuzz pass over the decode hardening targets.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeLine -fuzztime=$(FUZZTIME) ./internal/codepack
	$(GO) test -run=^$$ -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME) ./internal/huffman
	$(GO) test -run=^$$ -fuzz=FuzzMultiDecoderDifferential -fuzztime=$(FUZZTIME) ./internal/huffman
	$(GO) test -run=^$$ -fuzz=FuzzFSMDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzCAMDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzROMDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzMultiVsHardwareModels -fuzztime=$(FUZZTIME) ./internal/decoder
