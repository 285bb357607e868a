#!/usr/bin/env sh
# Memory smoke: proves the zero-allocation claims still hold under the
# accounting allocator, then takes two instrumented reference runs and
# renders their `stochcdr diff` regression report
# (target/MEM_SMOKE_DIFF.txt, uploaded by CI).
#
# The allocation proofs are the workspace's allocator-assertion tests —
# each binary installs stochcdr_obs::mem::TrackingAlloc as its global
# allocator: warm multigrid cycles allocate zero times, disabled obs
# entry points allocate zero times, and the sweep engine's warm paths
# never allocate more than cold ones.
set -eu

cd "$(dirname "$0")/.."
STOCHCDR_THREADS=1 cargo test -q --offline -p stochcdr-multigrid --test no_alloc_cycle
STOCHCDR_THREADS=1 cargo test -q --offline -p stochcdr-obs --test no_alloc
STOCHCDR_THREADS=1 cargo test -q --offline -p stochcdr-sweep --test warm_alloc

# Reference solve under the tracking allocator, twice, with the metrics
# stream on; the diff gates on the deterministic records (counters,
# events, span counts, histogram bins) and reports memory advisories.
cargo build --release --offline -p stochcdr-cli
./target/release/stochcdr analyze --refinement 16 --threads 4 \
    --metrics target/MEM_SMOKE_A.jsonl --metrics-format jsonl >/dev/null
./target/release/stochcdr analyze --refinement 16 --threads 4 \
    --metrics target/MEM_SMOKE_B.jsonl --metrics-format jsonl >/dev/null
./target/release/stochcdr diff --baseline target/MEM_SMOKE_A.jsonl \
    --fresh target/MEM_SMOKE_B.jsonl --out target/MEM_SMOKE_DIFF.txt >/dev/null

# The artifacts must really carry stochcdr-obs/3 memory telemetry: span
# attribution from the tracking allocator and the process gauges.
grep -q '"alloc_bytes"' target/MEM_SMOKE_A.jsonl
grep -q 'mem.peak_rss' target/MEM_SMOKE_A.jsonl
echo "mem smoke: PASS"
