#!/usr/bin/env bash
# Alternating A/B pairs of the repository benchmark (perfbench):
#
#   scripts/ab.sh <rev> <workload> <pairs>
#
# Builds perfbench for <rev> ("base") and for HEAD ("head") in git
# worktrees at paths of equal length, target/ab/base and target/ab/head
# (the checkout path alone has moved train's bulk_per_s by ~10%). Pair i
# runs seed 1+i on both sides for BENCHMARK.json's run_seconds; even pairs
# run base first, odd pairs head first. Each run appends one JSON line (side, rev, pair,
# order, seed, then perfbench's own result object) to
# target/ab/<workload>.jsonl, rewritten by every call. The script ends by
# printing two markdown tables: for each end-to-end metric in
# BENCHMARK.json, both sides' medians and quartiles, how much worse head's
# median is against the metric's bound, base's spread (IQR over median),
# how many pairs head won in the metric's "better" direction, and a
# verdict ("unresolved" where base's spread exceeds the bound and not
# every head run beats every base run), with the failure counts; then
# every run. The worktrees are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh <rev> <workload> <pairs>" >&2
  exit 2
}
[[ $# -eq 3 ]] || usage
rev="$1"
workload="$2"
pairs="$3"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
seconds="$(jq -r .run_seconds BENCHMARK.json)"
root="$PWD/target/ab"
out="$root/$workload.jsonl"
declare -A sha
sha[base]="$(git rev-parse --verify "$rev^{commit}")"
sha[head]="$(git rev-parse --verify HEAD)"

remove_worktrees() {
  for side in base head; do
    git worktree remove --force "$root/$side" 2>/dev/null || rm -rf "${root:?}/$side"
  done
  git worktree prune
}
trap remove_worktrees EXIT
trap 'exit 130' INT TERM

mkdir -p "$root"
remove_worktrees # left over from an interrupted run
for side in base head; do
  git worktree add --quiet --detach "$root/$side" "${sha[$side]}"
  echo "==> building perfbench for $side (${sha[$side]:0:12})" >&2
  cargo build --release --quiet --offline --manifest-path "$root/$side/perfbench/Cargo.toml"
done

# run <side> <pair> <order>: one perfbench run, appended to $out.
run() {
  local side="$1" pair="$2" order="$3" seed=$((1 + $2)) last
  echo "==> pair $pair: $side, seed $seed" >&2
  last="$(cd "$root/$side" &&
    ./perfbench/target/release/sushi-perfbench --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
  jq -c --arg side "$side" --arg rev "${sha[$side]}" --arg workload "$workload" \
    --argjson pair "$pair" --argjson order "$order" --argjson seed "$seed" \
    '{side: $side, rev: $rev, workload: $workload, pair: $pair, order: $order, seed: $seed} + .' \
    <<<"$last" >>"$out"
}

: >"$out"
for ((pair = 0; pair < pairs; pair++)); do
  if ((pair % 2 == 0)); then
    run base "$pair" 0
    run head "$pair" 1
  else
    run head "$pair" 0
    run base "$pair" 1
  fi
done

echo "$workload: $pairs pairs, base ${sha[base]:0:12} vs head ${sha[head]:0:12}, ${seconds} s runs ($out)"
echo
# Markdown, so the tables paste into EXPERIMENTS.md as printed: the
# summary per end-to-end metric, then every run.
jq -rs --slurpfile spec BENCHMARK.json '
  def quantile($p): sort | if length == 0 then null
    else ($p * (length - 1)) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
    | .[$lo] + (.[$hi] - .[$lo]) * ($i - $lo) end;
  def fmt: if . == null then "-" elif . >= 100 then (. * 10 | round / 10 | tostring)
    else (. * 10000 | round / 10000 | tostring) end;
  def summary: "\(quantile(0.5) | fmt) [\(quantile(0.25) | fmt)–\(quantile(0.75) | fmt)]";
  def row: "| " + join(" | ") + " |";
  def pct: . * 1000 | round / 10 | tostring + "%";
  . as $runs
  | [$spec[0].end_to_end[].name] as $names
  | ($runs | map(.pair) | unique) as $pair_ids
  | (["metric", "better", "base median [q1–q3]", "head median [q1–q3]",
      "head worse by (bound)", "base IQR / median", "pairs won by head", "verdict"]
     | row, (map("---") | row)),
    ($spec[0].end_to_end[] as $m
     | ($runs | map(select(.side == "base") | .metrics[$m.name].value)) as $b
     | ($runs | map(select(.side == "head") | .metrics[$m.name].value)) as $h
     | ($b | quantile(0.5)) as $bm
     | ($h | quantile(0.5)) as $hm
     | (if $m.better == "higher" then ($bm - $hm) / $bm else ($hm - $bm) / $bm end) as $worse
     | ((($b | quantile(0.75)) - ($b | quantile(0.25))) / $bm) as $spread
     | (if $m.better == "higher" then ($h | min) > ($b | max) else ($h | max) < ($b | min) end)
       as $all_better
     | ([$pair_ids[] as $p
         | ($runs | map(select(.pair == $p)) | map({(.side): .metrics[$m.name].value}) | add)
         | select(.base != null and .head != null)
         | if $m.better == "higher" then .head > .base else .head < .base end
         | select(.)] | length) as $won
     | ["`\($m.name)`", $m.better, ($b | summary), ($h | summary),
        "\($worse | pct) (\($m.bound | pct))", ($spread | pct), "\($won)/\($pair_ids | length)",
        (if $spread > $m.bound and ($all_better | not) then "unresolved: spread > bound"
         elif $worse > $m.bound then "worse than bound"
         else "within bound" end)] | row),
    (["failed / attempted", "lower",
      ($runs | map(select(.side == "base")) | "\(map(.failed) | add) / \(map(.attempted) | add)"),
      ($runs | map(select(.side == "head")) | "\(map(.failed) | add) / \(map(.attempted) | add)"),
      "-", "-", "-", "-"] | row),
    "",
    (["pair", "seed", "first", "base: \($names | join(" / "))", "head: \($names | join(" / "))"]
     | row, (map("---") | row)),
    ($pair_ids[] as $p
     | ($runs | map(select(.pair == $p))) as $pr
     | ($pr | map({(.side): [.metrics[$names[]].value | fmt] | join(" / ")}) | add) as $v
     | [($p | tostring), ($pr[0].seed | tostring), ($pr | min_by(.order) | .side),
        ($v.base // "-"), ($v.head // "-")] | row)
' "$out"
