#!/usr/bin/env bash
# Regression: an out-of-range or non-numeric --epsilon/--delta must make
# saphyra_rank print the reason and exit 2 (a usage error), not reach an
# estimator's internal ε < 1 check and abort. A valid run still exits 0.
#
# Usage: rank_flags_test.sh /path/to/saphyra_rank
set -u

RANK="${1:?usage: rank_flags_test.sh /path/to/saphyra_rank}"
TMP="$(mktemp -d /tmp/saphyra_rank_flags.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

# A ring over 24 nodes: tiny, connected, fast to rank.
for i in $(seq 0 23); do
  echo "$i $(( (i + 1) % 24 ))"
done > "$TMP/ring.txt"

fails=0
expect_exit() {
  local want="$1"; shift
  "$RANK" --graph "$TMP/ring.txt" --no-cache "$@" \
    > "$TMP/out.tsv" 2> "$TMP/stderr.log"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: saphyra_rank $* exited $got (expected $want)" >&2
    cat "$TMP/stderr.log" >&2
    fails=1
  fi
}

# KADABRA is one of the estimators that asserts ε < 1.
for bad in "--epsilon 1" "--epsilon 0" "--epsilon abc" "--epsilon 0.1x" \
           "--delta 0" "--delta 1"; do
  expect_exit 2 --algorithm kadabra $bad
done
expect_exit 0 --algorithm kadabra --epsilon 0.3 --delta 0.1

[ "$fails" -eq 0 ] || exit 1
echo "PASS: bad --epsilon/--delta exit 2, a valid run exits 0"
