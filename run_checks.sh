#!/bin/bash
# Repository health gate: formatting, lints, and the full test suite.
# Used standalone and as the preflight for run_experiments.sh.
set -u
cd "$(dirname "$0")"

fail=0
step() {
  name=$1; shift
  echo "=== check: $name ==="
  if ! "$@"; then
    echo "FAILED: $name"
    fail=1
  fi
}

step fmt    cargo fmt --all --check
step clippy cargo clippy --workspace --all-targets -- -D warnings
step tests  cargo test -q --workspace
# Workspace lint pass: builds the interprocedural call graph and exits
# non-zero when library code regresses against AUDIT_baseline.json
# (panic reachability from declared entry points, inferred hot-set
# allocations, float determinism, total-order floats, CSR encapsulation,
# # Errors docs). Reports: target/audit/AUDIT_report.json and
# target/audit/CALLGRAPH.json.
step audit  cargo run -q -p roadpart-audit
# The frozen benchmark (benchmark/, its own cargo package) compiles against
# the library's public API; its self-tests check traced labels against
# partition_network and counting-operator eigenvectors against
# embedding_recovering, bit for bit. Own target dir, like the benchmark's.
step roadbench env CARGO_TARGET_DIR=target/roadbench \
  cargo test -q --offline --release --manifest-path benchmark/Cargo.toml
# Concurrency model checking of the snapshot store under --cfg loom (own
# target dir so the flag does not invalidate the main build cache).
step loom   env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p roadpart-stream --test loom_snapshot
# Thread-pool join/panic-propagation model checking (same loom setup).
step loom-pool env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p roadpart-linalg --test loom_pool
# Parallel-kernel determinism: the differential suite re-runs with a
# multi-thread default pool, so every kernel also proves bit-identity when
# ROADPART_THREADS (not an explicit pool) selects the parallelism.
step parallel-diff env ROADPART_THREADS=4 \
  cargo test -q -p roadpart --test integration_parallel
# Self-healing gate: fault-injection replay suite (corrupt feeds,
# blockades, solver faults, blown deadlines), the drift bench smoke run,
# whose internal validity checks (replays complete, metrics finite,
# disruptions detected) gate the exit code, and the disruption drill: a
# refused feed, solver-fault retries and ladder degradation end to end on
# a simulated city.
step disruption-replay cargo test -q -p roadpart-stream --test integration_disruption
# The CI strict-invariants job: release-mode tests with the stage and
# epoch-boundary validators compiled in (debug builds always have them).
step strict-invariants cargo test -q --release -p roadpart -p roadpart-stream \
  --features roadpart-stream/strict-invariants
step drift-smoke cargo run -q --release -p roadpart-bench --bin drift_bench -- --smoke
step disruption-drill cargo run -q --release -p roadpart-stream --example disruption_drill
step drift-json  test -s target/experiments/BENCH_drift.json
# Serving-layer gates: the differential suite pins partition-aware routes
# cost-exact against a whole-network Dijkstra; the loom suite model-checks
# the oracle/epoch swap.
step serve-diff cargo test -q -p roadpart-serve --test integration_serve
step serve-loom env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p roadpart-serve --test loom_oracle

if [ "$fail" -ne 0 ]; then
  echo CHECKS_FAILED
  exit 1
fi
echo ALL_CHECKS_PASSED
