#!/usr/bin/env bash
# bench-compare: this tree against another revision, by alternating runs.
#
#   make bench-compare BASE=<rev> [WORKLOADS="em3d.su em3d.sc"]
#   (or: bash scripts/bench_compare.sh <rev> [workload...])
#   ROUNDS=10 SECS=6 SEED=1 are the defaults; set any of them to override.
#   Workload names restrict the alternation to those workloads; with none,
#   every workload of BENCHMARK.json runs.
#
# The host drifts 10-20 % in a quarter of an hour, so two commits are never
# compared across time: BASE is unpacked (git archive) into a temporary
# directory, each tree's benchmark/ is built into that tree's own
# .bench_build/, and for every workload the two binaries take turns —
# ROUNDS plain runs each, the order swapped every round, then one traced
# run each for the exact message counts. The rounds become the samples of
# two result files in the benchmark's own format, which its -compare
# judges: per metric b/a, the spread across rounds, the bound, and
# ok / worse / unresolved. After the verdicts, each side's value of every
# end-to-end metric is printed round by round, then per workload and
# metric the median and quartiles of the per-round ratio new/base and the
# number of rounds the new tree won (a round's two runs are one pair). A
# gain claimed from medians alone can hide rounds that spread wider than
# their bound; the wins show whether the pairs agree. Exit status is
# -compare's (1 on a worse row or a differing message count). This tree
# is measured as it stands, uncommitted changes included.
set -euo pipefail

BASE=${1:?usage: bench_compare.sh <base-rev> [workload...]}
shift
ROUNDS=${ROUNDS:-10}
SECS=${SECS:-6}
SEED=${SEED:-1}

command -v jq >/dev/null || { echo "bench-compare: needs jq" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
cd "$root"
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
if (($# > 0)); then
    for w in "$@"; do
        grep -qxF -- "$w" <<<"$workloads" || { echo "bench-compare: no workload $w in BENCHMARK.json" >&2; exit 2; }
    done
    workloads="$*"
fi
base_commit=$(git rev-parse --verify "$BASE^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base_commit" | tar -x -C "$work/base"

# build <tree>: what benchmark/run.sh does, without running anything.
build() {
    local out="$1/.bench_build"
    mkdir -p "$out"
    GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
        go build -C "$1/benchmark" -o "$out/acebenchmark" .
}
declare -A tree=([base]="$work/base" [new]="$root")
for side in base new; do
    build "${tree[$side]}"
done

# run <side> <workload> <trace> <file>: one run from the side's own root;
# the driver's line (the last of stdout) is appended to <file>.
run() {
    (cd "${tree[$1]}" && ./.bench_build/acebenchmark --workload "$2" --seed "$SEED" --seconds "$SECS" \
        --trace "$3" --out "$work/out-$1" | tail -n 1) >>"$4"
}
for w in $workloads; do
    for round in $(seq 1 "$ROUNDS"); do
        order="base new"
        if ((round % 2 == 0)); then order="new base"; fi
        for side in $order; do
            run "$side" "$w" 0 "$work/$side.$w.plain"
        done
        echo "bench-compare: $w round $round/$ROUNDS" >&2
    done
    for side in base new; do
        run "$side" "$w" 1 "$work/$side.$w.traced"
    done
done

# envelope <side> <commit>: the rounds of every workload as one result file;
# each metric is the median of its rounds and the rounds are its samples.
envelope() {
    local side=$1 commit=$2 w
    for w in $workloads; do
        jq -s --arg w "$w" '
            def median: sort | if length % 2 == 1 then .[(length - 1) / 2]
                               else (.[length / 2 - 1] + .[length / 2]) / 2 end;
            . as $rounds | {key: $w, value: {
                correct: all(.[]; .correct),
                attempted: (map(.attempted) | add),
                failed: (map(.failed) | add),
                metrics: (.[0].metrics | with_entries(.key as $k
                    | .value.value = ([$rounds[].metrics[$k].value] | median))),
                samples: (.[0].metrics | with_entries(.key as $k
                    | .value = [$rounds[].metrics[$k].value]))}}' "$work/$side.$w.plain"
    done | jq -s 'from_entries' >"$work/$side.plain.json"
    for w in $workloads; do
        jq --arg w "$w" '{key: $w, value: .}' "$work/$side.$w.traced"
    done | jq -s 'from_entries' >"$work/$side.traced.json"
    jq -n --arg commit "$commit" --arg go "$(go env GOVERSION)" --argjson nproc "$(nproc)" \
        --argjson seed "$SEED" --argjson secs "$SECS" --argjson rounds "$ROUNDS" \
        --slurpfile plain "$work/$side.plain.json" --slurpfile traced "$work/$side.traced.json" \
        '{commit: $commit, go_version: $go, nproc: $nproc, seed: $seed, scale: "full",
          seconds_per_workload: $secs, alternating_rounds: $rounds,
          plain: $plain[0], traced: $traced[0]}'
}
new_commit=$(git rev-parse HEAD)
git diff --quiet HEAD || new_commit="$new_commit+uncommitted"
results="$root/.bench_build/results"
mkdir -p "$results"
stamp=$(date -u +%Y%m%dT%H%M%S)
envelope base "$base_commit" >"$results/compare-$stamp-base.json"
envelope new "$new_commit" >"$results/compare-$stamp-new.json"
echo "bench-compare: a = $BASE, b = this tree; $ROUNDS alternating rounds of ${SECS}s per workload"
status=0
./.bench_build/acebenchmark -compare "$results/compare-$stamp-base.json" "$results/compare-$stamp-new.json" || status=$?
echo "bench-compare: per-round values, round 1 first"
for w in $workloads; do
    for m in $(jq -r '.end_to_end[].name' BENCHMARK.json); do
        for side in base new; do
            printf '%-15s %-17s %-4s %s\n' "$w" "$m" "$side" \
                "$(jq -r --arg m "$m" '.metrics[$m].value | . * 10000 | round / 10000' "$work/$side.$w.plain" | tr '\n' ' ')"
        done
    done
done
echo "bench-compare: per-round ratio new/base (p25 median p75) and rounds the new tree won"
for w in $workloads; do
    jq -r -n --arg w "$w" --slurpfile base "$work/base.$w.plain" --slurpfile new "$work/new.$w.plain" \
        --slurpfile spec BENCHMARK.json '
        def q($p): sort as $x | (($x | length) - 1) * $p
            | $x[floor] + ($x[ceil] - $x[floor]) * (. - floor);
        def r3: . * 1000 | round / 1000;
        $spec[0].end_to_end[] as $m
        | [range($base | length) | {b: $base[.].metrics[$m.name].value, n: $new[.].metrics[$m.name].value}
           | select(.b > 0 and .n != null)] as $pairs
        | [$pairs[] | .n / .b] as $r
        | ($pairs | map(select(if $m.better == "higher" then .n > .b else .n < .b end)) | length) as $wins
        | if ($r | length) == 0 then "\($w)\t\($m.name)\tno rounds"
          else "\($w)\t\($m.name)\t\($r | q(0.25) | r3) \($r | q(0.5) | r3) \($r | q(0.75) | r3)\twins \($wins)/\($pairs | length)" end' |
        awk -F '\t' '{ printf "%-15s %-17s %-22s %s\n", $1, $2, $3, $4 }'
done
exit "$status"
