#!/bin/sh
# Single-entry CI gate: release build, full test suite, clippy (warnings
# are errors, all crates), and the seven end-to-end smokes (tracing,
# record/replay, engine throughput, runtime overhead/METG, the elastic
# controller, streaming observability at scale, and the charm-kv serving
# workload — the last five also validate the committed BENCH_engine.json /
# BENCH_overhead.json / BENCH_elastic.json / BENCH_scale.json /
# BENCH_service.json).
# Exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release -q

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> lint (clippy -D warnings, all crates)"
sh scripts/lint.sh

echo "==> trace smoke"
sh scripts/trace_smoke.sh

echo "==> replay smoke"
sh scripts/replay_smoke.sh

echo "==> bench smoke"
sh scripts/bench_smoke.sh

echo "==> overhead smoke"
sh scripts/overhead_smoke.sh

echo "==> elastic smoke"
sh scripts/elastic_smoke.sh

echo "==> scale smoke"
sh scripts/scale_smoke.sh

echo "==> service smoke"
sh scripts/service_smoke.sh

echo "CI OK"
