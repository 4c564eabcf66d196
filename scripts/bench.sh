#!/usr/bin/env bash
# Runs the criterion benchmarks and the serving-throughput scenarios and
# writes machine-readable summaries with the commit hash and headline
# throughput numbers.
#
#   scripts/bench.sh            full run -> BENCH_sim.json + BENCH_ssnn.json
#                               + BENCH_serve.json + BENCH_train.json
#                               (tracked baselines)
#   scripts/bench.sh --smoke    tiny budget -> temp files, structural checks
#
# The vendored criterion stand-in appends one JSON line per benchmark to
# $CRITERION_JSON; the serve scenarios write one JSON object to
# $SERVE_JSON. This script assembles those with jq, validates the result,
# and only then moves it into place (temp file + atomic rename), so a
# failed or interrupted run never leaves a truncated tracked baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
[[ "${1:-}" == "--smoke" ]] && mode=smoke

raw_sim="$(mktemp)"
raw_ssnn="$(mktemp)"
raw_serve="$(mktemp)"
raw_train="$(mktemp)"
tmp_sim="$(mktemp sushi-bench-sim.XXXXXX)"
tmp_ssnn="$(mktemp sushi-bench-ssnn.XXXXXX)"
tmp_serve="$(mktemp sushi-bench-serve.XXXXXX)"
tmp_train="$(mktemp sushi-bench-train.XXXXXX)"
cleanup() {
  rm -f "$raw_sim" "$raw_ssnn" "$raw_serve" "$raw_train" \
    "$tmp_sim" "$tmp_ssnn" "$tmp_serve" "$tmp_train"
}
trap cleanup EXIT

serve_args=()
if [[ "$mode" == smoke ]]; then
  # One warm-up plus two samples per benchmark: exercises the full path
  # (bench targets, JSON emission, jq assembly) in seconds.
  export CRITERION_SAMPLES=2 CRITERION_MEASUREMENT_MS=200
  serve_args=(--quick)
fi

echo "==> cargo bench -p sushi-bench --bench sim_engine ($mode)"
CRITERION_JSON="$raw_sim" cargo bench -q -p sushi-bench --bench sim_engine

echo "==> cargo bench -p sushi-bench --bench table3_inference ($mode)"
CRITERION_JSON="$raw_ssnn" cargo bench -q -p sushi-bench --bench table3_inference

echo "==> cargo bench -p sushi-bench --bench train_pipeline ($mode)"
CRITERION_JSON="$raw_train" cargo bench -q -p sushi-bench --bench train_pipeline

echo "==> serving-throughput scenarios ($mode)"
SERVE_JSON="$raw_serve" cargo run --release -q -p sushi-bench -- "${serve_args[@]}" serve

# Benchmark ids must be unique within each raw file: a duplicated id
# (e.g. a dynamic "<n>_workers" row colliding with a static one on an
# n-core host) would silently shadow its twin in every jq `first`
# selector below.
for raw in "$raw_sim" "$raw_ssnn" "$raw_train"; do
  jq -es 'map(.id) | length == (unique | length)' "$raw" >/dev/null \
    || { echo "bench.sh: duplicate benchmark ids in $raw:" >&2; \
         jq -rs 'group_by(.id) | map(select(length > 1) | .[0].id) | .[]' "$raw" >&2; exit 1; }
done

commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
git diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
stamp="$(date -u +%FT%TZ)"

cpus="$(nproc 2>/dev/null || echo 1)"

jq -s --arg commit "$commit" --arg mode "$mode" --arg date "$stamp" --argjson cpus "$cpus" '
  (map(select(.id == "jtl_pipeline_200x100_pulses")) | first) as $jtl
  | (map(select(.id == "jtl_batch32_sequential")) | first) as $batch
  | (map(select(.id == "partitioned_mesh_sequential")) | first) as $mseq
  | (map(select(.id == "partitioned_mesh_4w")) | first) as $mpar
  | {
      commit: $commit,
      mode: $mode,
      generated_utc: $date,
      host_cpus: $cpus,
      headline: {
        jtl_pipeline_200x100_melem_per_s:
          (if $jtl then ($jtl.elem_per_s / 1e6 * 1000 | round / 1000) else null end),
        jtl_batch32_sequential_items_per_s:
          (if $batch then (32e9 / $batch.mean_ns * 1000 | round / 1000) else null end),
        partitioned_mesh_sequential_melem_per_s:
          (if $mseq then ($mseq.elem_per_s / 1e6 * 1000 | round / 1000) else null end),
        partitioned_mesh_4w_melem_per_s:
          (if $mpar then ($mpar.elem_per_s / 1e6 * 1000 | round / 1000) else null end),
        partitioned_mesh_speedup:
          (if ($mseq and $mpar and ($mseq.elem_per_s > 0))
           then ($mpar.elem_per_s / $mseq.elem_per_s * 100 | round / 100)
           else null end)
      },
      benchmarks: .
    }' "$raw_sim" > "$tmp_sim"

# Sanity-gate the sim output in both modes: all eight benchmarks
# reported and every headline rate present and positive.
jq -e '
  .commit and (.benchmarks | length) >= 8
  and .headline.jtl_pipeline_200x100_melem_per_s > 0
  and .headline.jtl_batch32_sequential_items_per_s > 0
  and .headline.partitioned_mesh_sequential_melem_per_s > 0
  and .headline.partitioned_mesh_4w_melem_per_s > 0
  and .headline.partitioned_mesh_speedup > 0
' "$tmp_sim" >/dev/null || { echo "bench.sh: sim summary failed validation" >&2; exit 1; }

# Partitioned-engine gate in full mode only: the 4-worker mesh run must
# hold at least a 2x lead over the sequential event loop — but only
# where the hardware can actually run the workers in parallel. A
# single-CPU host records the honest sub-1x (the workers time-slice one
# core across every window barrier; see EXPERIMENTS.md).
if [[ "$mode" == full ]]; then
  if jq -e '.host_cpus >= 4' "$tmp_sim" >/dev/null; then
    jq -e '.headline.partitioned_mesh_speedup >= 2' "$tmp_sim" >/dev/null \
      || { echo "bench.sh: partitioned mesh speedup below 2x on a >=4-core host" >&2; exit 1; }
  fi
fi

# The SSNN engine headlines: packed-vs-scalar images/s on the paper's
# 784-800-10 shape, and the bitplane batch engine against the per-image
# packed path over the *same* 64 images at the same worker count (both
# rows live in the ssnn_bitplane group so the ratio isolates the
# layout+kernel win).
jq -s --arg commit "$commit" --arg mode "$mode" --arg date "$stamp" '
  (map(select(.id == "packed_predict_784_800_10")) | first) as $packed
  | (map(select(.id == "scalar_predict_784_800_10")) | first) as $scalar
  | (map(select(.id == "bitplane_predict_batch64_784_800_10")) | first) as $plane
  | (map(select(.id == "packed_predict_batch64_784_800_10")) | first) as $packed64
  | {
      commit: $commit,
      mode: $mode,
      generated_utc: $date,
      headline: {
        packed_images_per_s:
          (if $packed then ($packed.elem_per_s * 1000 | round / 1000) else null end),
        scalar_images_per_s:
          (if $scalar then ($scalar.elem_per_s * 1000 | round / 1000) else null end),
        packed_over_scalar_speedup:
          (if ($packed and $scalar and ($scalar.elem_per_s > 0))
           then ($packed.elem_per_s / $scalar.elem_per_s * 100 | round / 100)
           else null end),
        bitplane_images_per_s:
          (if $plane then ($plane.elem_per_s * 1000 | round / 1000) else null end),
        bitplane_over_packed_speedup:
          (if ($plane and $packed64 and ($packed64.elem_per_s > 0))
           then ($plane.elem_per_s / $packed64.elem_per_s * 100 | round / 100)
           else null end)
      },
      benchmarks: .
    }' "$raw_ssnn" > "$tmp_ssnn"

# Structural gate in both modes: every headline rate present and positive
# and both speedups computable.
jq -e '
  .commit and (.benchmarks | length) >= 11
  and .headline.packed_images_per_s > 0
  and .headline.scalar_images_per_s > 0
  and .headline.packed_over_scalar_speedup > 0
  and .headline.bitplane_images_per_s > 0
  and .headline.bitplane_over_packed_speedup > 0
' "$tmp_ssnn" >/dev/null || { echo "bench.sh: ssnn summary failed validation" >&2; exit 1; }

# Performance gates in full mode only (smoke budgets are too noisy): the
# packed engine must hold at least an 8x throughput lead over the scalar
# oracle, and the bitplane batch engine at least 3x per-image packed at
# batch 64 — the PR acceptance bars.
if [[ "$mode" == full ]]; then
  jq -e '.headline.packed_over_scalar_speedup >= 8' "$tmp_ssnn" >/dev/null \
    || { echo "bench.sh: packed speedup below 8x" >&2; exit 1; }
  jq -e '.headline.bitplane_over_packed_speedup >= 3' "$tmp_ssnn" >/dev/null \
    || { echo "bench.sh: bitplane batch-64 speedup below 3x packed" >&2; exit 1; }
fi

# The training-pipeline headlines: BPTT forward/backward/epoch samples/s
# and held-out evaluation images/s on the paper's 784-800-10 shape, plus
# the epoch speedup against the
# pre-SIMD baseline (commit 9ce6bef5a06c, spawn-per-matmul crossbeam
# kernels, allocating BPTT) measured on the same single-CPU host class.
train_baseline_epoch=1855.99
train_baseline_commit="9ce6bef5a06c"
jq -s --arg commit "$commit" --arg mode "$mode" --arg date "$stamp" \
  --argjson cpus "$cpus" --argjson base "$train_baseline_epoch" \
  --arg basecommit "$train_baseline_commit" '
  (map(select(.id == "train_forward_784_800_10")) | first) as $fwd
  | (map(select(.id == "train_backward_784_800_10")) | first) as $bwd
  | (map(select(.id == "train_epoch_784_800_10")) | first) as $epoch
  | (map(select(.id == "train_evaluate_784_800_10")) | first) as $eval
  | {
      commit: $commit,
      mode: $mode,
      generated_utc: $date,
      host_cpus: $cpus,
      baseline: {
        commit: $basecommit,
        epoch_samples_per_s: $base
      },
      headline: {
        forward_samples_per_s:
          (if $fwd then ($fwd.elem_per_s * 1000 | round / 1000) else null end),
        backward_samples_per_s:
          (if $bwd then ($bwd.elem_per_s * 1000 | round / 1000) else null end),
        epoch_samples_per_s:
          (if $epoch then ($epoch.elem_per_s * 1000 | round / 1000) else null end),
        evaluate_images_per_s:
          (if $eval then ($eval.elem_per_s * 1000 | round / 1000) else null end),
        epoch_speedup_vs_baseline:
          (if ($epoch and ($base > 0))
           then ($epoch.elem_per_s / $base * 100 | round / 100)
           else null end)
      },
      benchmarks: .
    }' "$raw_train" > "$tmp_train"

# Structural gate in both modes: all four rows reported with positive
# rates and the baseline speedup computable.
jq -e '
  .commit and (.benchmarks | length) >= 4
  and .headline.forward_samples_per_s > 0
  and .headline.backward_samples_per_s > 0
  and .headline.epoch_samples_per_s > 0
  and .headline.evaluate_images_per_s > 0
  and .headline.epoch_speedup_vs_baseline > 0
' "$tmp_train" >/dev/null || { echo "bench.sh: train summary failed validation" >&2; exit 1; }

# Training-kernel gate in full mode only: the SIMD + pooled-thread +
# allocation-free hot path must hold at least a 2x epoch-throughput lead
# over the pre-PR baseline — the PR acceptance bar.
if [[ "$mode" == full ]]; then
  jq -e '.headline.epoch_speedup_vs_baseline >= 2' "$tmp_train" >/dev/null \
    || { echo "bench.sh: training epoch speedup below 2x baseline" >&2; exit 1; }
fi

# The serving summary: the serve binary already emits the full payload;
# stamp it with commit/mode/date plus the pre-pipeline baseline (the
# tracked BENCH_serve.json recorded at commit 9ce6bef0454e: one global
# dispatcher, bool-frame requests, per-request channels).
serve_baseline_batched=26425.82
serve_baseline_commit="9ce6bef0454e"
jq --arg commit "$commit" --arg mode "$mode" --arg date "$stamp" \
  --argjson base "$serve_baseline_batched" --arg basecommit "$serve_baseline_commit" \
  '{commit: $commit, mode: $mode, generated_utc: $date,
    baseline: {commit: $basecommit, batched_images_per_s: $base}} + .' \
  "$raw_serve" > "$tmp_serve"

# Structural gate in both modes: all three scenarios reported with
# positive served throughput, latency percentiles present, and the
# sharded-pipeline headline fields populated.
jq -e '
  .commit and .host_cpus >= 1
  and .headline.serialized_images_per_s > 0
  and .headline.serialized_p50_us > 0
  and .headline.batched_images_per_s > 0
  and .headline.mean_batch_size > 1
  and .headline.shards >= 1
  and .headline.executors >= 1
  and .headline.stolen_batches >= 0
  and .serialized.latency.p99_us > 0
  and .batched.latency.p99_us > 0
  and .overload.sent > 0
' "$tmp_serve" >/dev/null || { echo "bench.sh: serve summary failed validation" >&2; exit 1; }

# Serving gates in full mode only. Overload at 2x the measured rate must
# be handled by admission control: requests shed (not queued without
# bound) and the p99 of *served* requests bounded by the queue depth —
# 250 ms is ~10x the worst-case drain of the 64-deep queue. The >= 3x
# micro-batching speedup only materializes where batches can fan out
# across cores, so it is gated on host parallelism; single-core hosts
# record the honest ~1x (see EXPERIMENTS.md).
if [[ "$mode" == full ]]; then
  jq -e '.headline.bitplane_batches > 0' "$tmp_serve" >/dev/null \
    || { echo "bench.sh: batched run never took the bitplane path" >&2; exit 1; }
  jq -e '.headline.overload_rejected > 0' "$tmp_serve" >/dev/null \
    || { echo "bench.sh: overload run shed nothing - admission control inert" >&2; exit 1; }
  jq -e '.headline.overload_p99_us < 250000' "$tmp_serve" >/dev/null \
    || { echo "bench.sh: overload p99 unbounded (>= 250 ms)" >&2; exit 1; }
  if jq -e '.host_cpus >= 4' "$tmp_serve" >/dev/null; then
    jq -e '.headline.batch_speedup >= 3' "$tmp_serve" >/dev/null \
      || { echo "bench.sh: micro-batch speedup below 3x on a >=4-core host" >&2; exit 1; }
    # Regression gate against the pre-pipeline baseline stamped above:
    # the sharded multi-executor pipeline must hold at least a 1.3x
    # batched-throughput lead. Gated on host parallelism for the same
    # reason as the speedup gate above — shards and executors only help
    # where cores exist to run them.
    jq -e '.headline.batched_images_per_s >= 1.3 * .baseline.batched_images_per_s' \
      "$tmp_serve" >/dev/null \
      || { echo "bench.sh: batched throughput below 1.3x the $serve_baseline_commit baseline ($serve_baseline_batched img/s)" >&2; exit 1; }
  fi
fi

if [[ "$mode" == smoke ]]; then
  echo "smoke bench OK ($(jq -r '.benchmarks | length' "$tmp_sim")+$(jq -r '.benchmarks | length' "$tmp_ssnn")+$(jq -r '.benchmarks | length' "$tmp_train") benchmarks + serve scenarios, outputs validated)"
else
  # Validated: move the summaries into place atomically.
  mv "$tmp_sim" BENCH_sim.json
  mv "$tmp_ssnn" BENCH_ssnn.json
  mv "$tmp_serve" BENCH_serve.json
  mv "$tmp_train" BENCH_train.json
  for f in BENCH_sim.json BENCH_ssnn.json BENCH_serve.json BENCH_train.json; do
    echo "wrote $f:"
    jq '.headline' "$f"
  done
fi
