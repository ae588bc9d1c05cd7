#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — exactly what a PR must pass.
#
#   ci.sh          full gate
#   ci.sh --quick  fast sweep only: the pass manager's unit tests (with
#                  the runner's jobs-invariance checks), the trace crate's
#                  unit tests (JSON reader included), the dormancy-state
#                  crate's unit tests (its single write path), the build
#                  driver's unit tests, the
#                  `quick_`-prefixed subset of the fault-injection
#                  matrix (cold crash matrix, truncation
#                  boundaries, recovery counters, durability sync points),
#                  of the observability suite (trace well-formedness,
#                  report schema, metrics consistency, CLI contracts), and
#                  of the dependency-soundness suite (clean-build audit,
#                  per-task-kind seeded lies, E15 fuzz matrix), the
#                  function-granularity suite and its E16 gate, the
#                  parallel byte-identity suite and its E13 fan-out
#                  overhead gate, the shared-artifact-store soundness
#                  suite and its E17 sharing gate, the warm-daemon
#                  differential suite and its E18 warm-latency gate,
#                  plus a traced demo build validated with `trace-check`
#                  and a depcheck run over the demo project
set -euo pipefail
cd "$(dirname "$0")"

# Trace smoke: build the demo with --trace into a scratch copy (so the
# checked-in demo/ stays free of .sfcc-report.json), then validate the
# exported trace's schema and span nesting.
trace_smoke() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    cp demo/*.mc "$scratch"/
    cargo run -q -p sfcc-buildsys --bin minicc -- \
        build "$scratch" --trace "$scratch/trace.json" > /dev/null
    cargo run -q -p sfcc-buildsys --bin minicc -- \
        trace-check "$scratch/trace.json"
}

# Depcheck smoke: audit the demo build's dependency soundness in a scratch
# copy; a nonzero exit (findings or build failure) fails the gate.
depcheck_smoke() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    cp demo/*.mc "$scratch"/
    cargo run -q -p sfcc-buildsys --bin minicc -- depcheck "$scratch"
}

if [[ "${1:-}" == "--quick" ]]; then
    # The pass manager's unit tests, including the pipeline runner's
    # jobs-invariance checks (no pool vs a 4- and 1-worker pool).
    cargo test -q -p sfcc-passes
    # The JSON reader every daemon reply and `minicc stats` goes through,
    # including its large multi-byte round-trip.
    cargo test -q -p sfcc-trace
    # The dormancy state's single write path (StateDb::ingest and the
    # stamp an optimize task records ahead of the wave commit), and the
    # build driver's unit tests.
    cargo test -q -p sfcc-state
    cargo test -q -p sfcc-buildsys --lib
    cargo test -q -p sfcc --test integration_crash quick_
    cargo test -q -p sfcc --test integration_trace quick_
    cargo test -q -p sfcc --test integration_depcheck quick_
    cargo test -q -p sfcc-buildsys --test cli quick_
    cargo test -q -p sfcc-bench --lib quick_every_mutation_is_caught_before_divergence
    cargo test -q -p sfcc --test integration_fngrain
    cargo test -q -p sfcc-bench --lib quick_one_function_edit_beats_module_grain_five_fold
    cargo test -q -p sfcc --test integration_parallel quick_
    cargo test -q -p sfcc --test integration_cas quick_
    cargo test -q -p sfcc-bench --lib quick_followers_hit_the_shared_surface_byte_identically
    cargo test -q -p sfcc --test integration_serve quick_
    cargo test -q -p sfcc-bench --lib quick_warm_serves_beat_cold_sessions_and_nothing_is_rejected
    # Fan-out overhead smoke: jobs=8 optimize time must stay within 5% of
    # jobs=1 on the single-module sweep (pure overhead on a 1-core host).
    cargo run -q -p sfcc-bench --release --bin exp_parallel_scaling -- --quick --gate-overhead 5
    # Warm-latency smoke: a warm daemon serve of a one-function edit must
    # be at least 3x faster (p50) than an equivalent cold CLI session.
    cargo run -q -p sfcc-bench --release --bin exp_serve_warm -- --quick --gate-speedup 3
    trace_smoke
    depcheck_smoke
    exit 0
fi

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
cargo fmt --check
trace_smoke
depcheck_smoke
# Smoke-run the parallel-scaling, observability-overhead, and
# dependency-soundness sweeps, plus the function-granularity,
# shared-store, and warm-daemon comparisons (write BENCH_parallel.json /
# BENCH_trace.json / BENCH_depcheck.json / BENCH_fngrain.json /
# BENCH_cas.json / BENCH_serve.json).
cargo run -q -p sfcc-bench --release --bin exp_parallel_scaling -- --quick --gate-overhead 5
cargo run -q -p sfcc-bench --release --bin exp_trace_overhead -- --quick
cargo run -q -p sfcc-bench --release --bin exp_depcheck_fuzz -- --quick
cargo run -q -p sfcc-bench --release --bin exp_fngrain -- --quick
cargo run -q -p sfcc-bench --release --bin exp_cas_sharing -- --quick
cargo run -q -p sfcc-bench --release --bin exp_serve_warm -- --quick --gate-speedup 3
# Crash-consistency and golden-trace sweeps run inside `cargo test` above;
# `--quick` reruns just the fast subsets for tight edit loops.
