#!/bin/sh
# Benchmark harness: runs the Go benchmarks and records the results as a
# JSON baseline so future PRs can diff performance instead of guessing.
# Covers the analyzer suite, the BenchmarkCtxOverhead_* pairs that
# bound the context-first request path's checkpoint cost (the LiveCtx
# variant of each pair must stay within ~2% of Background), the
# fault-point fast path (BenchmarkPointDisabled must stay in the
# single-nanosecond range so disabled points cost <1% on the E1
# end-to-end figures), and the admission-control middleware
# (BenchmarkAdmissionOverhead unlimited vs maxInFlight64), the obs
# subsystem (BenchmarkCounterAddDisabled must stay ≤ ~10 ns so disarmed
# metric sites are free; BenchmarkSpanActive/SpanNoTrace bound the span
# cost on and off the traced path — together they keep the E1 end-to-end
# delta under 1%), and the compiled read path (BenchmarkPlanCacheHit vs
# Miss is the parse+plan cost the plan cache removes per request;
# storage's BenchmarkVectorScan vs RowScan is what Tx.ScanBatches — the
# column-block edge olap.Build reads through, no longer the SQL
# executor's — costs over the row callback; the E1 figure reports a hit_ratio column that perf_gate.sh holds at
# ≥ 0.90, and the _NoPlanCache variant is the cached-vs-uncached A/B).
# The wire path added in PR 10 rides the same harness: the proto frame
# codecs (BenchmarkFrameEncode/Decode must stay zero-alloc — the whole
# point of the reused-buffer design) and the closed-loop load harness
# (BenchmarkLoadHarness drives the binary protocol end to end over
# loopback and reports tail latency as a p99_ns column, gated by
# max_p99_ns in the budget).
# Each benchmark runs BENCH_COUNT times and the minimum ns/op is
# recorded — the min is the noise-robust estimator on shared CI
# hardware, where a single pass showed ±10% swings that dwarf the effect
# being measured. Output file defaults to BENCH_PR8.json at the repo
# root; override with BENCH_OUT.
set -eu

cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_PR8.json}"
PKGS="${BENCH_PKGS:-./internal/analysis/ ./internal/storage/ ./internal/sql/ ./internal/olap/ ./internal/fault/ ./internal/obs/ ./internal/server/ ./internal/replica/ ./internal/proto/ ./cmd/odbis-load/}"
# The experiment hot paths the context-first refactor must not regress:
# E1 (Fig. 1 end-to-end request) and E5 (Fig. 4 per-layer overhead).
ROOT_BENCH="${BENCH_ROOT:-Figure1_|Figure4_}"

echo "==> go test -bench (${PKGS} + root ${ROOT_BENCH}) -> ${OUT}"
{
	go test -bench . -benchmem -benchtime "${BENCH_TIME:-100x}" -count "${BENCH_COUNT:-5}" -run '^$' ${PKGS}
	go test -bench "${ROOT_BENCH}" -benchmem -benchtime "${BENCH_TIME:-100x}" -count "${BENCH_COUNT:-5}" -run '^$' .
} |
	awk -v out="$OUT" -f scripts/bench_emit.awk
echo "==> wrote ${OUT}"
