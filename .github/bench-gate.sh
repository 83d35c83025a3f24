#!/usr/bin/env bash
# Paired benchmark gate: runs the repository benchmark (benchmark/) on a
# base revision and on the checked-out tree, in alternating pairs, and
# exits with `compare`'s status, which is non-zero when an end-to-end
# metric regressed beyond its bound in BENCHMARK.json.
#
#   .github/bench-gate.sh BASE_REV
#
# BASE_REV is checked out in a temporary git worktree. Each side is built
# into its own target directory under target/bench-gate/, and both run
# from the repository root, so they share one .lotus-cache/sjpg store.
# Every run measures for the benchmark's declared run length. A run
# whose output checks fail stops the gate. The verdict is the base
# revision's `compare` with its BENCHMARK.json bounds, so a change that
# edits the judge or loosens a bound is still judged by the old rules.
#
# CI does not run this gate yet: the benchmark's tune-sim metrics move
# between runs of one build by more than their bound, so two identical
# builds can read `regressed` (ROADMAP item 2).
set -euo pipefail

# Pairs of runs, one seed per pair. The side that runs first alternates
# from pair to pair.
PAIRS=5
FIRST_SEED=263

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BASE_REV" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
work="$root/target/bench-gate"
rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"

base_src=$(mktemp -d)
cleanup() {
  git worktree remove --force "$base_src" 2>/dev/null || true
  rm -rf "$base_src"
}
trap cleanup EXIT
git worktree add --detach --quiet "$base_src" "$base_rev"

build() {
  CARGO_TARGET_DIR="$work/target-$2" \
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
build "$base_src" parent
build "$root" change

for ((i = 0; i < PAIRS; i++)); do
  seed=$((FIRST_SEED + i))
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    echo "pair $((i + 1))/$PAIRS, seed $seed: $side" >&2
    "$work/target-$side/release/lotus-benchmark" run --seed "$seed" --out "$work/$side"
  done
done

"$work/target-parent/release/lotus-benchmark" compare "$work/parent" "$work/change"
