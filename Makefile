# Targets mirror .github/workflows/ci.yml so local runs match the gate.

GO ?= go

.PHONY: all build test race bench benchmark-smoke fuzz-smoke service-smoke lint ci api api-check loc test-names

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/eventq/... ./internal/fairshare/... ./internal/flowsim/... ./internal/simcore/... ./internal/packetsim/... ./internal/hybrid/... ./internal/scenario/... ./internal/service/... ./api/wire/... ./internal/linkmodel/... ./internal/traffic/...
	$(GO) test -race -run 'TestParallel|TestE8Parallel|TestE6Shape|TestE10Parallel' ./internal/experiments/...
	$(GO) test -race -run='^$$' -fuzz=FuzzPortSchedule -fuzztime=2000x ./internal/packetsim/
	$(GO) test -race -run 'TestStreamEquivalence|TestReadAheadStopsWithRun' .

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# benchmark/ is a module of its own, so root `go test ./...` never
# compiles it: its tests run every BENCHMARK.json workload at 1/100
# scale and check the metric tables against BENCHMARK.json.
benchmark-smoke:
	$(GO) test -C benchmark ./...

# The two line counts every CHANGES entry states: non-test Go and test Go,
# both excluding benchmark/ (a module of its own).
GOFILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.*'
loc:
	@echo "non-test Go: $$($(GOFILES) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go:     $$($(GOFILES) -name '*_test.go' | xargs cat | wc -l)"

# A short native-fuzzing pass over the trace codec, the CSV writer
# against encoding/csv, the windowed streaming reader (its strict scanner
# and encoding/csv fallback against ReadCSV), the timing-wheel cascade/overflow paths, the wire
# Record-frame codec against encoding/json, the link-model parity
# property (any model parameters and seed run identically on the wheel
# and the heap), the port-schedule property (the FIFO transmitter,
# departures fixed at enqueue, agrees with the two-event reference model on any scenario
# of flows, failures, link models, external load and polls), and the
# fair-share exactness property (the heap-driven solver's rates and change
# lists are bit-identical to eager progressive filling through every
# recompute entry point; IXP-sized inputs make its execs slow), the
# in-order record emitter (emits exactly what the map-based reorder buffer
# it replaced did, on any index permutation with holes), the one
# control plane's parity property (a hybrid run at 0 % packet share equals
# the flow engine, at 100 % the packet engine, on random small fabrics,
# unsorted traces and scripted dynamics), and the hybrid's Load cursor
# (dispatches exactly the events of one first event per demand pushed at
# Load, on random tied traces at packet shares 0, 1 and random), and the
# flow table (Lookup equals a linear scan of the entries in match order
# after any Add/Delete/DeleteStrict/Expire sequence). Seed corpora
# are f.Add'd in the fuzz targets plus any checked-in testdata/fuzz
# entries; the whole-fabric simulation fuzzers run fewer iterations
# because every exec runs full simulations.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=1000x ./internal/traffic/
	$(GO) test -run='^$$' -fuzz=FuzzWriteCSV -fuzztime=1000x ./internal/traffic/
	$(GO) test -run='^$$' -fuzz=FuzzStreamVsReadCSV -fuzztime=1000x ./internal/traffic/
	$(GO) test -run='^$$' -fuzz=FuzzWheelVsHeap -fuzztime=1000x ./internal/eventq/
	$(GO) test -run='^$$' -fuzz=FuzzRecordFrameCodec -fuzztime=1000x ./api/wire/
	$(GO) test -run='^$$' -fuzz=FuzzLinkModelParity -fuzztime=25x ./internal/packetsim/
	$(GO) test -run='^$$' -fuzz=FuzzPortSchedule -fuzztime=2000x ./internal/packetsim/
	$(GO) test -run='^$$' -fuzz=FuzzSolveExact -fuzztime=200x ./internal/fairshare/
	$(GO) test -run='^$$' -fuzz=FuzzInOrder -fuzztime=2000x ./internal/stats/
	$(GO) test -run='^$$' -fuzz=FuzzPlaneParity -fuzztime=200x ./internal/hybrid/
	$(GO) test -run='^$$' -fuzz=FuzzLoadCursor -fuzztime=200x ./internal/hybrid/
	$(GO) test -run='^$$' -fuzz=FuzzFlowTable -fuzztime=2000x ./internal/openflow/

# End-to-end daemon smoke: horsed on a unix socket, horsectl submit with
# streamed records, a mid-run cancel, and a SIGTERM drain.
service-smoke:
	./scripts/service-smoke.sh

# Regenerate the checked-in public-API surface goldens (api/horse.txt,
# api/wire.txt, api/service.txt). Run after any deliberate change to a
# public surface; TestAPISurfaceGolden (and the lint job's api-check)
# diff the live source against these files.
api:
	$(GO) run ./cmd/horseapi -out api

# Fail if any committed surface golden is stale (the CI lint job's check).
api-check:
	$(GO) run ./cmd/horseapi -check -out api

# Fail if a -run/-fuzz name in this Makefile or the CI workflows matches
# no test in its package (go test -list): such a gate passes silently.
test-names:
	./scripts/check-test-names.sh

# golangci-lint (the CI lint job) when installed; vet+gofmt otherwise.
lint: api-check test-names
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; falling back to vet+gofmt"; \
		$(GO) vet ./...; \
		out=$$(gofmt -l .); if [ -n "$$out" ]; then \
			echo "gofmt needed on:"; echo "$$out"; exit 1; \
		fi \
	fi

ci: build lint test race bench benchmark-smoke fuzz-smoke service-smoke
