#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
#
#   bash atlasbench/run_benchmark.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is its JSON result
#   bash atlasbench/run_benchmark.sh [--seed N] [--smoke]
#       every workload, a timed run then a traced run each (--smoke: 2 s phases)
#
# Run from anywhere inside a checkout; every file it writes stays under
# <checkout>/.bench_build/. The exit code is 0 only when every output check
# of every run passed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build_dir="$root/.bench_build/atlasbench-build"

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run_benchmark.sh: no replica sources at $root" >&2
  exit 3
fi

cmake -S "$here" -B "$build_dir" >&2
cmake --build "$build_dir" -j "$(nproc)" >&2
bench="$build_dir/atlas_bench"

single=0
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    single=1
  fi
done
# atlas_bench writes traces and durable logs under .bench_build/ of its
# working directory.
cd "$root"
if [ "$single" = 1 ]; then
  exec "$bench" "$@"
fi

seed=1
seconds=20
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --smoke) seconds=4; shift ;;
    *) echo "usage: run_benchmark.sh [--seed N] [--smoke]" >&2; exit 2 ;;
  esac
done

status=0
for workload in micro_p1 micro_p4 micro_p4_durable ycsb_n5; do
  for trace in 0 1; do
    echo "=== $workload seed=$seed seconds=$seconds trace=$trace ==="
    if ! "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace"; then
      status=1
    fi
  done
done
exit "$status"
