#!/usr/bin/env sh
# Profiler smoke check: runs one reference analyze with the wall-clock
# sampling profiler armed (--profile-folded) alongside a jsonl metrics
# stream, asserts the folded-stack file is non-empty, and validates it
# through `stochcdr report --check-folded`, which requires every frame
# of every sampled stack to resolve to a span name recorded in the
# artifact's span paths. The folded file is flamegraph.pl/speedscope
# input and is uploaded by the CI job for inspection.
#
# Sample *counts* are wall-clock dependent, but at 0.2 ms sampling a
# refinement-16 solve always lands samples, and the frame-name
# validation itself is deterministic, so the check blocks CI (through
# scripts/ci.sh).
set -eu

cd "$(dirname "$0")/.."
folded="target/ci_profile.folded"
metrics="target/ci_profile_metrics.jsonl"

cargo build --release --offline -p stochcdr-cli
# A refinement-16 solve runs long enough (hundreds of ms) that 0.2 ms
# sampling lands hundreds of samples.
./target/release/stochcdr analyze --refinement 16 --threads 2 \
    --profile-folded "$folded" --profile-interval 0.2 \
    --metrics "$metrics" --metrics-format jsonl >/dev/null

echo "profile_smoke: checking $folded is non-empty"
test -s "$folded"
echo "profile_smoke: validating frames against $metrics"
./target/release/stochcdr report --in "$metrics" --check-folded "$folded" \
    | grep "folded profile ok"
echo "profile_smoke: PASS"
