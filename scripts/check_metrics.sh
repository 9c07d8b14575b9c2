#!/bin/sh
# Runs one traced search and validates its observability outputs
# against each other: the -metrics JSON schema, the -trace JSONL event
# multiplicities and the -json solution report must all describe the
# same search — including the -timings wall-clock attribution, whose
# phase.end/eval.miss nanosecond sums must equal the report's
# phaseNanos exactly and the solve.phase.* histograms up to float
# rounding. Then runs one traced grid-aware sweep and cross-checks
# the reuse counters its -progress lines print (warm replays,
# frontier reuses, walk replays, carried on sweep.point events)
# against the per-hit trace events and the registry counters, checks
# that the sweep's effort counters (candidates, prunes, evaluations,
# cache hits) equal their trace event counts, since a replay charges
# only its reuse counter, plus the same phase histogram checks. Finally lints the Prometheus text exposition the
# same sweep wrote via a .prom -metrics path. Run from the repository
# root; CI runs this on every push.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/aved -paper apptier -load 1000 -downtime 60m -json -timings \
	-trace "$tmp/trace.jsonl" -metrics "$tmp/metrics.json" >"$tmp/solution.json"
go run scripts/check_metrics.go "$tmp/metrics.json" "$tmp/trace.jsonl" "$tmp/solution.json"
# Twelve budgets per load chain: enough that later cells' budgets fall
# inside earlier tier walks' budget intervals, so the walk-replay rows
# are not vacuous. Every cell of this grid is feasible, as the effort
# rows need: an infeasible cell flushes no counters.
go run ./cmd/avedsweep -fig 6 -loads 4 -budgets 12 -workers 1 -progress \
	-trace "$tmp/sweep_trace.jsonl" -metrics "$tmp/sweep_metrics.json" \
	>/dev/null 2>"$tmp/progress.txt"
go run scripts/check_metrics.go -sweep "$tmp/sweep_metrics.json" "$tmp/sweep_trace.jsonl"
go run ./cmd/avedsweep -fig 8 -budgets 3 -workers 1 \
	-metrics "$tmp/metrics.prom" >/dev/null
go run scripts/check_metrics.go -prom "$tmp/metrics.prom"
