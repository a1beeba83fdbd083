GO ?= go
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: all build test race vet fmt staticcheck check bench \
	decode-bench fuzz

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

# The full hygiene gate, what CI runs: build + vet + gofmt + staticcheck
# + race tests + every example + the ccrpbench module's vet and tests
# + every fuzz target for 2 s (CI's fuzz job gives each 5 s).
check:
	sh scripts/check.sh

# Every package's Go benchmarks, the root package's end-to-end pipeline
# among them. The paper's tables are timed by the ccrpbench module.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Decode-kernel benchmark: the multi-symbol kernel against the canonical
# oracle, MB/s as Go benchmarks.
decode-bench:
	$(GO) test -run=^$$ -bench='BenchmarkDecode(Canonical|Multi)$$' -benchmem ./internal/huffman

# Short fuzz pass over every fuzz target in the repository, FUZZTIME
# each. Patterns are anchored: go test -fuzz needs exactly one match.
# The two stored-coder decoders take 0.5-2 KB inputs, and the :batch
# handlers up to 5 KB (a batch at its 256-item limit); minimizing each
# new one for go test's default 60 s would spend all of FUZZTIME, so
# their lines cap minimization at 1 s.
FUZZTIME ?= 10s
FUZZ = $(GO) test -run=^$$ -fuzztime=$(FUZZTIME)
fuzz:
	$(FUZZ) -fuzz='^FuzzWriter$$' ./internal/bitio
	$(FUZZ) -fuzz='^FuzzReadROMFile$$' ./internal/core
	$(FUZZ) -fuzz='^FuzzDecodeLine$$' ./internal/codepack
	$(FUZZ) -fuzz='^FuzzTrainEncodeDecode$$' ./internal/codepack
	$(FUZZ) -fuzz='^FuzzUnmarshalCoder$$' -fuzzminimizetime=1s ./internal/codepack
	$(FUZZ) -fuzz='^FuzzDecode$$' ./internal/huffman
	$(FUZZ) -fuzz='^FuzzUnmarshalCode$$' ./internal/huffman
	$(FUZZ) -fuzz='^FuzzMultiDecoderDifferential$$' ./internal/huffman
	$(FUZZ) -fuzz='^FuzzFSMDecode$$' ./internal/decoder
	$(FUZZ) -fuzz='^FuzzCAMDecode$$' ./internal/decoder
	$(FUZZ) -fuzz='^FuzzROMDecode$$' ./internal/decoder
	$(FUZZ) -fuzz='^FuzzMultiVsHardwareModels$$' ./internal/decoder
	$(FUZZ) -fuzz='^FuzzAssemble$$' ./internal/asm
	$(FUZZ) -fuzz='^FuzzReadImage$$' ./internal/asm
	$(FUZZ) -fuzz='^FuzzDisassemblyRoundTrip$$' ./internal/isa
	$(FUZZ) -fuzz='^FuzzDecompress$$' ./internal/lzw
	$(FUZZ) -fuzz='^FuzzRoundTrip$$' ./internal/lzw
	$(FUZZ) -fuzz='^FuzzDecompressHandler$$' ./internal/server
	$(FUZZ) -fuzz='^FuzzCompressHandler$$' ./internal/server
	$(FUZZ) -fuzz='^FuzzCompressBatchHandler$$' -fuzzminimizetime=1s ./internal/server
	$(FUZZ) -fuzz='^FuzzDecompressBatchHandler$$' -fuzzminimizetime=1s ./internal/server
	$(FUZZ) -fuzz='^FuzzSimulateHandler$$' ./internal/server
	$(FUZZ) -fuzz='^FuzzDecodeRequest$$' ./internal/server
	$(FUZZ) -fuzz='^FuzzLoadStoredCoder$$' -fuzzminimizetime=1s ./internal/server
	$(FUZZ) -fuzz='^FuzzReadTrace$$' ./internal/trace
	$(FUZZ) -fuzz='^FuzzRecorder$$' ./internal/trace
	$(FUZZ) -fuzz='^FuzzRun$$' ./internal/sim
