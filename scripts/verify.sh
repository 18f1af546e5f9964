#!/usr/bin/env bash
# Tier-1 verification: offline release build, lint wall, full test suite,
# the benchmark's output check, smoke runs of the checker and replicate
# binaries, and full runs of the faults, scale and mobility binaries.
# Exits non-zero if anything fails to build, clippy reports any warning,
# any test fails, a run panics or breaks one of its asserts (non-finite
# throughput, MACAW not ahead of MACA on a corrupting channel, sparse !=
# reference, serial != sharded), or a fresh BENCH_faults.json,
# BENCH_scale.json or BENCH_mobility.json differs from the committed file
# by a single byte.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test -q --workspace

echo "== queue backends agree (ladder vs heap: random traces + every table family) =="
cargo test -q --release -p macaw-sim --test proptest_queue
cargo test -q --release -p macaw-bench --test determinism ladder_and_heap

echo "== model-checker smoke (exhaustive proofs + reduction-ratio guard + --jobs determinism + seeded-bug detection) =="
cargo run --release -p macaw-bench --bin check -- --smoke
cargo test -q --release -p macaw-check --test proofs
cargo test -q --release -p macaw-check --test regression

echo "== reduction soundness (reduced explorer vs oracle + parallel split determinism) =="
cargo test -q --release -p macaw-check --test reduction
cargo test -q --release -p macaw-bench --test check_par

echo "== benchmark (transparency suite + one-second output check of every workload) =="
# Each workload's outputs are checked against perfbench/expected.txt: the
# 30 paper-table reports, the office-floor and campus reports, and the 12
# proof rows. Four JSON lines, each correct with no failed run.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
bench_json="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload all --seed 1 --seconds 1 --trace 0 | grep '^{' || true)"
echo "$bench_json"
bench_lines="$(printf '%s\n' "$bench_json" | grep -c '^{' || true)"
bench_ok="$(printf '%s\n' "$bench_json" | grep '"correct": true' | grep -c '"failed": 0,' || true)"
if [ "$bench_lines" -ne 4 ] || [ "$bench_ok" -ne 4 ]; then
  echo "perfbench output check failed: $bench_ok of $bench_lines workloads correct (want 4 of 4)" >&2
  exit 1
fi

echo "== fault ablation (full run, byte-compared with the committed BENCH_faults.json) =="
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
cargo run --release -p macaw-bench --bin faults -- --out "$out_dir/BENCH_faults.json"
cmp "$out_dir/BENCH_faults.json" BENCH_faults.json

echo "== scaling sweep (full run: sparse == reference, serial == 2 shards, byte-compared with BENCH_scale.json) =="
cargo run --release -p macaw-bench --bin scale -- --out "$out_dir/BENCH_scale.json"
cmp "$out_dir/BENCH_scale.json" BENCH_scale.json

echo "== mobility sweep (full run, byte-compared with BENCH_mobility.json) =="
cargo run --release -p macaw-bench --bin mobility -- --out "$out_dir/BENCH_mobility.json"
cmp "$out_dir/BENCH_mobility.json" BENCH_mobility.json

echo "== medium churn suite (slab vs reference oracle under end_tx-heavy schedules) =="
cargo test -q --release -p macaw-phy --test churn_medium

echo "== sharded-engine invariance suite =="
cargo test -q --release -p macaw-bench --test sharding

echo "== replicate smoke (executor + multi-seed sweep) =="
cargo run --release -p macaw-bench --bin replicate -- --quick
cargo test -q --release -p macaw-bench --test executor

echo "verify: OK"
