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

echo "==> docs name only items that exist (sushi-<crate>:: paths)"
# Every backticked `sushi-<crate>::a::b` (or `sushi_<crate>::a::b`) path
# in DESIGN.md and README.md must resolve segment by segment: each
# segment after the crate is declared in crates/<crate>/src as a mod,
# fn, struct, enum, trait, type, const or static, or is named by a
# `pub use`. Brace groups expand first; a trailing `()` is dropped.
expand_braces() {
  if [[ "$1" =~ ^([^{]*)\{([^{}]*)\}(.*)$ ]]; then
    local pre="${BASH_REMATCH[1]}" post="${BASH_REMATCH[3]}" alt
    local -a alts
    IFS=, read -ra alts <<<"${BASH_REMATCH[2]}"
    for alt in "${alts[@]}"; do
      expand_braces "$pre${alt// /}$post"
    done
  else
    echo "${1%()}"
  fi
}
stale=""
while read -r doc_path; do
  while read -r path; do
    crate="${path%%::*}"
    src="crates/${crate#sushi?}/src"
    rest="${path#*::}"
    for seg in ${rest//::/ }; do
      if [[ ! -d "$src" || ! "$seg" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]] ||
        ! { grep -rqE --include='*.rs' \
              "\b(mod|fn|struct|enum|trait|type|const|static)\s+${seg}\b" "$src" ||
            grep -rqzE --include='*.rs' "pub use [^;]*\b${seg}\b" "$src"; }; then
        stale+="  \`$doc_path\`: no \`$seg\` in $src"$'\n'
      fi
    done
  done < <(expand_braces "$doc_path")
done < <(grep -ohE '`sushi[-_][a-z]+::[^`]*`' DESIGN.md README.md | tr -d '`' | sort -u)
if [[ -n "$stale" ]]; then
  echo "docs name items that do not exist:"
  printf '%s' "$stale"
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
# binary's println! would die on SIGPIPE. The header names the SIMD tier;
# then fig16's instrumented run and the behavioural evaluation report.
bench_out="$(cargo run --release -q -p sushi-bench -- --quick bench)"
grep -q "| cpu tier: [a-z0-9]* |" <<<"$bench_out"
grep -q "hot cells:" <<<"$bench_out"
grep -q "## Bench: end-to-end behavioural evaluation" <<<"$bench_out"

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
