#!/usr/bin/env bash
# Regression: an out-of-range or non-numeric flag value must make the tool
# print the reason and exit 2 (a usage error) — not reach an estimator's
# internal ε < 1 check and abort, and not silently become 0 or its numeric
# prefix. A targets file with a non-numeric line fails like the other load
# errors (exit 1). A valid run still exits 0.
#
# Usage: rank_flags_test.sh /path/to/saphyra_rank /path/to/saphyra_serve
set -u

USAGE="usage: rank_flags_test.sh /path/to/saphyra_rank /path/to/saphyra_serve"
RANK="${1:?$USAGE}"
SERVE="${2:?$USAGE}"
TMP="$(mktemp -d /tmp/saphyra_rank_flags.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

# A ring over 24 nodes: tiny, connected, fast to rank.
for i in $(seq 0 23); do
  echo "$i $(( (i + 1) % 24 ))"
done > "$TMP/ring.txt"

fails=0
# expect_exit WANT TOOL ARGS...: run TOOL on the ring with an empty stdin.
expect_exit() {
  local want="$1" tool="$2"; shift 2
  "$tool" --graph "$TMP/ring.txt" --no-cache "$@" \
    < /dev/null > "$TMP/out.tsv" 2> "$TMP/stderr.log"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $(basename "$tool") $* exited $got (expected $want)" >&2
    cat "$TMP/stderr.log" >&2
    fails=1
  fi
}

# KADABRA is one of the estimators that asserts ε < 1.
for bad in "--epsilon 1" "--epsilon 0" "--epsilon abc" "--epsilon 0.1x" \
           "--delta 0" "--delta 1"; do
  expect_exit 2 "$RANK" --algorithm kadabra $bad
done
for bad in "--topk 2q" "--seed xyz" "--random-targets abc" "--seed -1" \
           "--topk 18446744073709551616"; do
  expect_exit 2 "$RANK" --algorithm kadabra --epsilon 0.3 $bad
done
printf '1\n2\nseven\n' > "$TMP/targets.txt"
expect_exit 1 "$RANK" --algorithm kadabra --epsilon 0.3 \
  --targets "$TMP/targets.txt"
expect_exit 0 "$RANK" --algorithm kadabra --epsilon 0.3 --delta 0.1

# The server's integer flags go through the same parser; --concurrency is
# 32-bit, so 2^32 + 1 must not wrap to 1.
for bad in "--max-queue abc" "--concurrency 2x" "--memo-capacity -1" \
           "--concurrency 4294967297"; do
  expect_exit 2 "$SERVE" $bad
done
expect_exit 0 "$SERVE" --max-queue 4 --concurrency 2

[ "$fails" -eq 0 ] || exit 1
echo "PASS: bad flag values exit 2, a bad targets file exits 1, valid runs exit 0"
