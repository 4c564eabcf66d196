#!/usr/bin/env bash
# Repo gate: formatting, lints and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny rustdoc warnings)"
# Only the sushi crates: vendor/ stand-ins are out of scope for the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p sushi-cells -p sushi-sim -p sushi-arch -p sushi-snn -p sushi-ssnn \
  -p sushi-serve -p sushi-core -p sushi-bench -p sushi-par

echo "==> every declared dependency is named by one of its crate's targets"
# A manifest entry that no source names is dead weight. Each dependency
# must appear as `<crate>::` or `use <crate>` in the crate's directory or
# in one of its targets (examples and integration tests may live outside
# the crate's directory).
unused="$(cargo metadata --offline --no-deps --format-version 1 | jq -r '
  .packages[] | . as $p | .dependencies[]
  | [$p.name, ($p.manifest_path | rtrimstr("/Cargo.toml")),
     ((.rename // .name) | gsub("-"; "_")),
     ([$p.targets[].src_path] | join(" "))]
  | @tsv' |
  while IFS=$'\t' read -r pkg dir dep srcs; do
    # $srcs is deliberately unquoted: a space-separated path list.
    grep -rqE --include='*.rs' "\b${dep}::|use ${dep}\b" "$dir" $srcs ||
      echo "  $pkg declares $dep, which none of its targets names"
  done)"
if [[ -n "$unused" ]]; then
  echo "unused dependencies:"
  echo "$unused"
  exit 1
fi

echo "==> one CPU-feature probe (sushi_par::cpu_tier)"
# Every SIMD kernel matches on the tier sushi-par probes; a second probe
# elsewhere would let kernels disagree on what the host supports. The
# bare name also catches `use ... as` aliases of the macro.
probes="$(grep -rl --include='*.rs' --exclude-dir=target --exclude-dir=.git \
  'is_x86_feature_detected' . | grep -v '^\./crates/par/' || true)"
if [[ -n "$probes" ]]; then
  echo "is_x86_feature_detected outside crates/par/:"
  echo "$probes"
  exit 1
fi

echo "==> one host-size lookup (sushi_par::host_workers)"
# The pool's size and every default worker count read the cached
# lookup; an uncached call elsewhere costs ~28 µs (it reads cgroup
# files) and could size work differently from the pool. perfbench/ is
# its own workspace and labels each run with its own lookup.
lookups="$(grep -rl --include='*.rs' --exclude-dir=target --exclude-dir=.git \
  'available_parallelism' . | grep -v -e '^\./crates/par/' -e '^\./perfbench/' || true)"
if [[ -n "$lookups" ]]; then
  echo "available_parallelism outside crates/par/ and perfbench/:"
  echo "$lookups"
  exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> serve_backends example (engines agree offline and when served)"
cargo run --release -q -p sushi-serve --example serve_backends

echo "==> fault_and_jitter example (jittered chips verify, a dead cell is caught)"
cargo run --release -q -p sushi-core --example fault_and_jitter

echo "==> bench metrics smoke run"
# Capture, then grep: grep -q on a pipe would close it early and the
# binary's println! would die on SIGPIPE.
bench_out="$(cargo run --release -q -p sushi-bench -- --quick bench)"
grep -q "hot cells:" <<<"$bench_out"
grep -q "packed SSNN engine" <<<"$bench_out"
grep -q "bitplane batch engine" <<<"$bench_out"
grep -q "serving pipeline (sharded micro-batching)" <<<"$bench_out"
grep -q "shards .* | executors " <<<"$bench_out"
grep -q "training kernels" <<<"$bench_out"
# The verdicts, not just the headers: scalar, packed and bitplane agree
# on the compiled network, and served classes equal the offline ones.
for verdict in "predictions agree: true" "served classes match offline: true"; do
  grep -q "$verdict" <<<"$bench_out" \
    || { echo "bench smoke run did not print '$verdict'" >&2; exit 1; }
done

echo "==> perfbench build + tests (its own workspace)"
# The benchmark depends on the crates' public API by path; build and
# test it here so an API change it relies on fails the gate, not the
# benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> criterion + serve bench smoke (scripts/bench.sh --smoke)"
# Also covers BENCH_serve.json assembly: the smoke run executes the
# serving scenarios at reduced budget and validates the JSON structure.
scripts/bench.sh --smoke

echo "All checks passed."
