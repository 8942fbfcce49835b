#!/bin/sh
# bench_check.sh — gate BENCH_*.json against the ROADMAP perf floors and the
# checked-in baselines in bench/results/.
#
# Two classes of metric, because the JSONs mix host-independent numbers with
# raw wall-clock ones:
#
#   * ratio-class (names matching _vs_ / speedup / parity / balance): shard
#     speedups come from deterministic simulated time and the wallclock
#     ratios divide out the host, so they are comparable across machines.
#     These FAIL when they drop more than the tolerance below the checked-in
#     baseline, and additionally must clear the ROADMAP floors hard-coded
#     below.
#   * absolute-class (ns_per_op / items_per_sec of individual points): raw
#     wall-clock, meaningless to diff at 10% across different hosts. These
#     WARN by default and only fail under ATLAS_BENCH_STRICT=1 (same-host
#     trend tracking).
#
# Usage: bench_check.sh [-c current_dir] [-b baseline_dir] [-t tolerance]
#   current_dir   where the fresh BENCH_*.json live (default: build)
#   baseline_dir  checked-in baselines          (default: bench/results)
#   tolerance     allowed fractional drop       (default: 0.10)
# Exit: 0 clean, 1 any ratio-class regression or floor violation.
set -u

CUR=build
BASE=bench/results
TOL=0.10
while getopts "c:b:t:" opt; do
  case "$opt" in
    c) CUR=$OPTARG ;;
    b) BASE=$OPTARG ;;
    t) TOL=$OPTARG ;;
    *) echo "usage: $0 [-c current_dir] [-b baseline_dir] [-t tolerance]" >&2
       exit 2 ;;
  esac
done

STRICT=${ATLAS_BENCH_STRICT:-0}
FAILS=0
WARNS=0

# jget FILE NAME FIELD -> prints the numeric field of the named row, or "".
jget() {
  awk -v name="$2" -v field="$3" '
    index($0, "\"name\": \"" name "\"") {
      if (match($0, "\"" field "\": *-?[0-9.eE+-]+")) {
        v = substr($0, RSTART, RLENGTH)
        sub(/.*: */, "", v)
        print v
      }
      exit
    }' "$1"
}

# cmp_ge VALUE FLOOR -> 0 if VALUE >= FLOOR
cmp_ge() {
  awk -v a="$1" -v b="$2" 'BEGIN { exit (a + 0 >= b + 0) ? 0 : 1 }'
}

fail() { echo "FAIL: $*"; FAILS=$((FAILS + 1)); }
warn() { echo "warn: $*"; WARNS=$((WARNS + 1)); }

# --- ROADMAP floors (host-independent; tolerance already folded in) --------
floor_check() { # file row field floor label
  f=$CUR/$1
  [ -f "$f" ] || { warn "$1 missing from $CUR ($5 not checked)"; return; }
  v=$(jget "$f" "$2" "$3")
  [ -n "$v" ] || { fail "$1: row '$2' missing"; return; }
  if cmp_ge "$v" "$4"; then
    echo "ok:   $5 = $v (floor $4)"
  else
    fail "$5 = $v below floor $4"
  fi
}

slack() { # FLOOR -> FLOOR * (1 - TOL)
  awk -v x="$1" -v t="$TOL" 'BEGIN { printf "%.4f", x * (1 - t) }'
}

echo "== bench_check: floors (tolerance $TOL) =="
floor_check BENCH_shard.json shard_sweep_speedup_p4_vs_p1 items_per_sec \
  "$(slack 1.5)" "fig_shard P=4 vs P=1 speedup"
floor_check BENCH_shard.json shard_sweep_speedup_p8_vs_p2 items_per_sec \
  "$(slack 1.0)" "fig_shard P=8 vs P=2 speedup"
if [ -f "$CUR/BENCH_wallclock.json" ]; then
  for proto in atlas epaxos mencius; do
    floor_check BENCH_wallclock.json "wallclock_${proto}_p8_vs_p2" \
      items_per_sec "$(slack 1.0)" "fig_wallclock $proto P=8 vs P=2"
  done
  # Durability overhead (commit log + batched fsync at P=4): raw filesystem
  # behaviour varies too much across hosts/runners to gate, so this is
  # warn-only — it flags when persistence costs more than half the inline
  # throughput but never fails the check.
  for proto in atlas epaxos mencius; do
    v=$(jget "$CUR/BENCH_wallclock.json" \
      "wallclock_${proto}_p4_durable_vs_inline" items_per_sec)
    [ -n "$v" ] || continue
    if cmp_ge "$v" 0.5; then
      echo "ok:   fig_wallclock $proto P=4 durable vs inline = ${v}x (warn floor 0.5x)"
    else
      warn "fig_wallclock $proto P=4 durable vs inline = ${v}x (< 0.5x; fsync overhead, warn-only)"
    fi
  done
fi

# --- baseline diff ---------------------------------------------------------
echo "== bench_check: baseline diff vs $BASE =="
for tag in micro shard; do
  cf=$CUR/BENCH_$tag.json
  bf=$BASE/BENCH_$tag.json
  [ -f "$cf" ] || { warn "BENCH_$tag.json missing from $CUR"; continue; }
  [ -f "$bf" ] || { warn "BENCH_$tag.json has no baseline in $BASE"; continue; }
  # Every row name in the baseline, with its fields, checked in the current.
  grep -o '"name": "[^"]*"' "$bf" | sed 's/"name": "//; s/"$//' |
  while IFS= read -r row; do
    for field in ns_per_op items_per_sec; do
      b=$(jget "$bf" "$row" "$field")
      c=$(jget "$cf" "$row" "$field")
      [ -n "$b" ] && [ -n "$c" ] || continue
      # Zero rows carry no signal for this field.
      awk -v b="$b" 'BEGIN { exit (b + 0 > 0) ? 0 : 1 }' || continue
      # Regression = worse than baseline by > TOL in the field's bad
      # direction (ns up, rates down).
      if [ "$field" = "ns_per_op" ]; then
        bad=$(awk -v b="$b" -v c="$c" -v t="$TOL" \
          'BEGIN { print (c > b * (1 + t)) ? 1 : 0 }')
      else
        bad=$(awk -v b="$b" -v c="$c" -v t="$TOL" \
          'BEGIN { print (c < b * (1 - t)) ? 1 : 0 }')
      fi
      [ "$bad" = 1 ] || continue
      case "$row" in
        *_vs_*|*speedup*|*parity*|*balance*)
          echo "FAILROW $tag/$row $field: $c vs baseline $b" ;;
        *cores*) ;;  # provenance, not a metric
        *)
          if [ "$STRICT" = 1 ]; then
            echo "FAILROW $tag/$row $field: $c vs baseline $b (strict)"
          else
            echo "warnrow $tag/$row $field: $c vs baseline $b (wall-clock, cross-host)"
          fi ;;
      esac
    done
  done > /tmp/bench_check_rows.$$
  # The while ran in a subshell; fold its findings into our counters.
  if [ -s /tmp/bench_check_rows.$$ ]; then
    while IFS= read -r line; do
      case "$line" in
        FAILROW*) fail "${line#FAILROW }" ;;
        warnrow*) warn "${line#warnrow }" ;;
      esac
    done < /tmp/bench_check_rows.$$
  else
    echo "ok:   BENCH_$tag.json: no regressions beyond $TOL vs baseline"
  fi
  rm -f /tmp/bench_check_rows.$$
done

echo "== bench_check: $FAILS failure(s), $WARNS warning(s) =="
[ "$FAILS" = 0 ] || exit 1
exit 0
