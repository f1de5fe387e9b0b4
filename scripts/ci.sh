#!/bin/sh
# CI pipeline for the ODBIS repo: build, vet (both the stock tool and the
# platform-invariant analyzers), tests, and the race detector over the
# concurrency-heavy packages. Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")/.."

# Formatting and stock vet run first: they are the cheapest checks and
# everything after them re-parses the same files, so a formatting drift
# should fail in seconds, not after the analyzer suite. Fixture trees
# under testdata are exempt (want-comments fight gofmt's alignment).
echo "==> gofmt -l (excluding testdata)"
UNFORMATTED="$(gofmt -l . | grep -v '/testdata/' || true)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

# One statement path: text -> DB.Prepare -> Stmt.QueryContext/QueryTx.
# The ctx-less shims, the parsed-statement entry points and the cache
# peeks that used to fork it were deleted, not deprecated; a declaration
# of any of them coming back under internal/ fails here, before anything
# is built. (Fixture trees impersonate package names and are exempt.)
# Likewise the redo record: internal/storage/record.go is its one encoder
# and one applier, so recovery's own applier (applyWALRecord) and the
# WAL's per-kind encoders (wal.log*) must not come back either.
echo "==> deleted entry points stay deleted"
REVIVED="$(grep -rnE --include='*.go' \
	-e 'func \([a-z]+ \*?DB\) (Query|Exec|ExecContext|QueryStatement|QueryStatementContext|QueryStatementTx|CachedSelect|HasCachedSelect|PrepareSelect)\(' \
	-e 'func \([a-z]+ \*?Stmt\) Query\(' \
	-e 'func \([a-z]+ \*?Catalog\) (HasCachedSelect|QueryOn|queryDB)\(' \
	-e 'applyWALRecord' \
	-e 'func \(w \*wal\) log' \
	internal | grep -v '/testdata/' || true)"
if [ -n "$REVIVED" ]; then
	echo "a deleted entry point was declared again (statements: DB.Prepare + Stmt.QueryContext/QueryTx; redo records: storage/record.go):" >&2
	echo "$REVIVED" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# The analyzer suite (including the interprocedural call-graph passes)
# must finish inside a wall-clock budget: an analysis that cannot keep up
# with CI is an analysis that gets turned off. The run always collects
# -timings; the per-phase breakdown is shown only when the stage fails,
# so a budget trip names the analyzer that ate the budget.
echo "==> odbis-vet ./... (budget: ${ODBIS_VET_BUDGET:-120}s)"
VET_LOG="$(mktemp /tmp/odbis_vet.XXXXXX.log)"
VET_STATUS=0
timeout "${ODBIS_VET_BUDGET:-120}" go run ./cmd/odbis-vet -timings ./... 2>"$VET_LOG" || VET_STATUS=$?
if [ "$VET_STATUS" -ne 0 ]; then
	if [ "$VET_STATUS" -eq 124 ]; then
		echo "odbis-vet: exceeded ${ODBIS_VET_BUDGET:-120}s budget; per-phase timings up to the kill:" >&2
	else
		echo "odbis-vet: failed (exit $VET_STATUS); per-phase timings:" >&2
	fi
	cat "$VET_LOG" >&2
	rm -f "$VET_LOG"
	exit "$VET_STATUS"
fi
rm -f "$VET_LOG"

echo "==> go test ./..."
go test ./...

# The plan/DDL time-of-check race and the replica-read routing bug were
# both invisible to a single run (the first failed one run in five, the
# second never): repeat exactly those tests until a regression cannot
# hide, plain for the count and under -race for the interleavings.
echo "==> plan-cache coherence + replica routing, -count=500 and -count=50 -race"
go test ./internal/sql ./internal/services -run 'PlanCacheCoherent|ReplicaRouted' -count=500
go test ./internal/sql ./internal/services -run 'PlanCacheCoherent|ReplicaRouted' -count=50 -race

# Fuzz smoke: ten seconds each of FuzzBuildCFG (the CFG builder's
# panic-freedom and structural invariants), FuzzDecodeFrame (the wire
# decoder against hostile bytes — truncation, oversized lengths,
# over-reads past the frame view) and FuzzApplyRecord (the redo record's
# one decoder/applier: no panic, a rejected payload changes nothing, an
# accepted one re-encodes to itself and applies idempotently) on every
# CI run without turning CI into a fuzz farm.
echo "==> fuzz smoke (FuzzBuildCFG, ${ODBIS_FUZZ_TIME:-10s})"
go test ./internal/analysis/ -run '^$' -fuzz '^FuzzBuildCFG$' -fuzztime "${ODBIS_FUZZ_TIME:-10s}"
echo "==> fuzz smoke (FuzzDecodeFrame, ${ODBIS_FUZZ_TIME:-10s})"
go test ./internal/proto/ -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime "${ODBIS_FUZZ_TIME:-10s}"
echo "==> fuzz smoke (FuzzApplyRecord, ${ODBIS_FUZZ_TIME:-10s})"
go test ./internal/storage/ -run '^$' -fuzz '^FuzzApplyRecord$' -fuzztime "${ODBIS_FUZZ_TIME:-10s}"

echo "==> go test -race (bus, etl, storage, tenant, sql, olap, services, server, fault, obs, replica, proto, netsrv, client)"
go test -race ./internal/bus/ ./internal/etl/ ./internal/storage/ ./internal/tenant/ \
	./internal/sql/ ./internal/olap/ ./internal/services/ ./internal/server/ \
	./internal/fault/ ./internal/obs/ ./internal/replica/ \
	./internal/proto/ ./internal/netsrv/ ./client/

# The fault suite re-runs under -race explicitly: panic recovery, bus
# redelivery, admission control and the child-process crash matrix are
# exactly the code the race detector exists for. PlanCacheCoherent is
# the plan-cache coherence test (DDL churning an index under concurrent
# cached reads) — the epoch check, the per-entry replan lock, and the
# LRU mutex are all load-bearing exactly there. DDLWriteAhead,
# RecoversParentDataDir and RecoveredPrimaryMatchesReplica are the redo
# record's write-ahead, on-disk-compatibility and recovery-vs-replica
# proofs.
echo "==> fault-injection + cache-coherence suite under -race"
go test -race -run 'Fault|Crash|TornTail|TornFrame|Panic|Admission|Redeliver|DeadLetter|PlanCacheCoherent|Replica|TestDDLWriteAhead|RecoversParentDataDir|RecoveredPrimaryMatchesReplica' \
	./internal/fault/ ./internal/storage/ ./internal/bus/ ./internal/etl/ ./internal/server/ \
	./internal/sql/ ./internal/services/ ./internal/replica/ ./internal/netsrv/


# Perf regression gate: re-run the benchmark harness and compare against
# the ceilings in scripts/perf_budget.json. ODBIS_PERF_TOLERANCE widens
# the ceilings (default 0.25); ODBIS_PERF_GATE=0 skips the stage (e.g.
# for doc-only changes on battery-powered laptops).
if [ "${ODBIS_PERF_GATE:-1}" = "1" ]; then
	echo "==> perf gate (tolerance ${ODBIS_PERF_TOLERANCE:-0.25})"
	FRESH="$(mktemp /tmp/odbis_bench.XXXXXX.json)"
	trap 'rm -f "$FRESH"' EXIT
	BENCH_OUT="$FRESH" BENCH_COUNT="${BENCH_COUNT:-3}" sh scripts/bench.sh >/dev/null
	sh scripts/perf_gate.sh "$FRESH"
else
	echo "==> perf gate skipped (ODBIS_PERF_GATE=0)"
fi

echo "CI OK"
