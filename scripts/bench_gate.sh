#!/usr/bin/env sh
# Benchmark regression gate: takes a fresh bench_snapshot and compares it
# against the committed baseline (results/BENCH_AFTER_PR10_T4.json by
# default, override with $1). Every snapshot field is deterministic —
# states, nnz, solver cycles, residual, BER, Monte-Carlo results, sweep
# cache counts, main-thread allocation counts — and must be
# bit-identical. A second stage runs the same analyze twice with
# --metrics and feeds both artifacts to `stochcdr diff`, gating on the
# instrumentation's own determinism contract; that one call also writes
# the rendered regression report to target/OBS_DIFF_REPORT.txt (before
# it exits 2 on drift) for CI to upload.
#
# The worker pool is pinned to the baseline's recorded thread count so the
# fresh run reproduces the baseline's configuration.
set -eu

cd "$(dirname "$0")/.."
baseline="${1:-results/BENCH_AFTER_PR10_T4.json}"
fresh="target/BENCH_GATE_FRESH.json"

# Pull the thread count and grid refinement the baseline was recorded at
# (bare integer fields in the snapshot JSON); fall back to 4 threads and
# the snapshot binary's default refinement of 16 if absent. The fresh
# snapshot must reproduce the baseline's configuration, or every
# deterministic metric would differ for config reasons, not drift.
threads=$(sed -n 's/^ *"threads": *\([0-9][0-9]*\),*$/\1/p' "$baseline")
threads="${threads:-4}"
refinement=$(sed -n 's/^ *"refinement": *\([0-9][0-9]*\),*$/\1/p' "$baseline")
refinement="${refinement:-16}"
echo "bench gate: pinning STOCHCDR_THREADS=$threads, refinement $refinement (baseline's config)"

cargo build --release --offline -p stochcdr-bench -p stochcdr-cli

STOCHCDR_THREADS="$threads" ./target/release/bench_snapshot --out "$fresh" --refinement "$refinement"
./target/release/bench_gate "$baseline" "$fresh"

# Determinism gate on the instrumentation itself: two analyze runs with
# the same configuration and pinned thread count must produce metrics
# artifacts whose counters, events, span counts, and histogram bins are
# identical (timing payloads are advisory). `stochcdr diff` exits 2 on
# drift.
echo "bench gate: stochcdr diff determinism check (2 identical analyze runs)"
./target/release/stochcdr analyze --refinement "$refinement" --threads "$threads" \
    --metrics target/BENCH_GATE_METRICS_A.jsonl --metrics-format jsonl >/dev/null
./target/release/stochcdr analyze --refinement "$refinement" --threads "$threads" \
    --metrics target/BENCH_GATE_METRICS_B.jsonl --metrics-format jsonl >/dev/null
./target/release/stochcdr diff --baseline target/BENCH_GATE_METRICS_A.jsonl \
    --fresh target/BENCH_GATE_METRICS_B.jsonl --out target/OBS_DIFF_REPORT.txt
