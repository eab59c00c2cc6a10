#!/usr/bin/env bash
# Docs lint, run from anywhere; CI runs it on every push. Checks:
#   1. The build/verify command users copy out of README.md is the repo's
#      actual tier-1 verification line from ROADMAP.md.
#   2. The saphyra_rank accuracy/mode flags stay documented in README.md
#      and parsed by the tool (both directions).
#   3. The headline benchmark metrics stay documented in README.md.
#   4. Every --flag a tools/*.cc binary parses appears in docs/cli.md.
#   5. Every metric key in BENCH_micro.json appears somewhere in the docs
#      (README.md, DESIGN.md, or docs/*.md), and every *_speedup key the
#      docs name is in BENCH_micro.json (retired keys cannot linger).
#   6. The serving robustness contract holds: the deadline/backpressure
#      flags stay parsed by saphyra_serve and documented in
#      docs/serving.md, and the error-taxonomy wire codes stay in sync
#      with src/util/status.cc.
#   7. Every relative markdown link in the doc set resolves to a file
#      that exists.
#   8. Retired estimator options stay retired: the per-estimator Lemma 4
#      constant and n0-floor knobs, ABRA's own options struct and the
#      direct-estimation baseline do not reappear in src/, tools/ or docs/.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

# --- 1. tier-1 verify line -------------------------------------------------
tier1="$(sed -n 's/^\*\*Tier-1 verify:\*\* `\(.*\)`$/\1/p' "$REPO_ROOT/ROADMAP.md")"
if [[ -z "$tier1" ]]; then
  echo "check_docs: could not extract the tier-1 verify line from ROADMAP.md" >&2
  exit 1
fi
if ! grep -qF "$tier1" "$REPO_ROOT/README.md"; then
  echo "check_docs: README.md build commands drifted from ROADMAP.md" >&2
  echo "  ROADMAP tier-1: $tier1" >&2
  echo "  (README.md must contain that exact command line)" >&2
  fail=1
fi

# --- 2. saphyra_rank accuracy flags, both directions -----------------------
for flag in --epsilon --delta --topk --strategy; do
  if ! grep -qF -- "$flag" "$REPO_ROOT/README.md"; then
    echo "check_docs: README.md no longer documents the $flag flag" >&2
    fail=1
  fi
  if ! grep -qF -- "\"$flag\"" "$REPO_ROOT/tools/saphyra_rank.cc"; then
    echo "check_docs: tools/saphyra_rank.cc no longer parses $flag" >&2
    fail=1
  fi
done

# --- 3. headline metrics in README -----------------------------------------
for metric in adaptive_sample_reduction binary_load_speedup \
              cached_preprocess_speedup; do
  if ! grep -qF "$metric" "$REPO_ROOT/README.md"; then
    echo "check_docs: README.md no longer documents the $metric metric" >&2
    fail=1
  fi
done

# --- 4. every tool flag is in docs/cli.md ----------------------------------
# A "parsed flag" is any quoted --long-option literal in a tools/*.cc file
# (the comparison strings of the argument loops).
cli_doc="$REPO_ROOT/docs/cli.md"
if [[ ! -f "$cli_doc" ]]; then
  echo "check_docs: docs/cli.md is missing" >&2
  fail=1
else
  for tool_src in "$REPO_ROOT"/tools/*.cc; do
    while IFS= read -r flag; do
      if ! grep -qF -- "$flag" "$cli_doc"; then
        echo "check_docs: $(basename "$tool_src") parses $flag but docs/cli.md does not document it" >&2
        fail=1
      fi
    done < <(grep -oE '"--[a-z0-9-]+"' "$tool_src" | tr -d '"' | sort -u)
  done
fi

# --- 4b. the canonicalization contract stays documented ------------------
# Every `.sgr` decomposition section and every served bit rests on the
# canonical component numbering; docs/architecture.md must keep saying so.
if ! grep -qF "Canonicalization contract" "$REPO_ROOT/docs/architecture.md"; then
  echo "check_docs: docs/architecture.md lost its \"Canonicalization contract\" paragraph" >&2
  fail=1
fi

# --- 5. every BENCH_micro.json key is documented somewhere -----------------
bench_json="$REPO_ROOT/BENCH_micro.json"
doc_files=("$REPO_ROOT/README.md" "$REPO_ROOT/DESIGN.md" "$REPO_ROOT"/docs/*.md)
if [[ -f "$bench_json" ]]; then
  while IFS= read -r key; do
    if ! grep -qF -- "$key" "${doc_files[@]}"; then
      echo "check_docs: BENCH_micro.json metric '$key' is not documented in any doc" >&2
      fail=1
    fi
  done < <(grep -oE '"[A-Za-z0-9_]+"[[:space:]]*:' "$bench_json" \
             | sed -E 's/"([A-Za-z0-9_]+)".*/\1/' | sort -u)
  # The reverse: a *_speedup key named in the docs must still be emitted.
  while IFS= read -r key; do
    if ! grep -qF -- "\"$key\"" "$bench_json"; then
      echo "check_docs: the docs name '$key' but BENCH_micro.json has no such key" >&2
      fail=1
    fi
  done < <(grep -ohE '[A-Za-z0-9_]+_speedup' "${doc_files[@]}" | sort -u)
else
  echo "check_docs: BENCH_micro.json is missing" >&2
  fail=1
fi

# --- 6. serving robustness contract ----------------------------------------
# The deadline/backpressure flags must stay parsed by saphyra_serve AND
# documented in docs/serving.md, and every wire-format error code named in
# the serving docs' taxonomy must exist in src/util/status.cc (and vice
# versa for the codes the robustness layer introduced).
serving_doc="$REPO_ROOT/docs/serving.md"
if [[ ! -f "$serving_doc" ]]; then
  echo "check_docs: docs/serving.md is missing" >&2
  fail=1
else
  for flag in --default-deadline-ms --max-queue --drain-ms; do
    if ! grep -qF -- "\"$flag\"" "$REPO_ROOT/tools/saphyra_serve.cc"; then
      echo "check_docs: tools/saphyra_serve.cc no longer parses $flag" >&2
      fail=1
    fi
    if ! grep -qF -- "$flag" "$serving_doc"; then
      echo "check_docs: docs/serving.md no longer documents $flag" >&2
      fail=1
    fi
  done
  # The multi-graph tenancy flags are the same kind of contract: the pool
  # knobs must stay parsed by saphyra_serve and explained in serving.md
  # (docs/cli.md coverage already comes from check 4).
  for flag in --max-graphs --preload --memo-capacity-bytes; do
    if ! grep -qF -- "\"$flag\"" "$REPO_ROOT/tools/saphyra_serve.cc"; then
      echo "check_docs: tools/saphyra_serve.cc no longer parses $flag" >&2
      fail=1
    fi
    if ! grep -qF -- "$flag" "$serving_doc"; then
      echo "check_docs: docs/serving.md no longer documents $flag" >&2
      fail=1
    fi
  done
  if ! grep -qF "Multi-graph tenancy" "$serving_doc"; then
    echo "check_docs: docs/serving.md lost the 'Multi-graph tenancy' section" >&2
    fail=1
  fi
  # The sharded-tier flags carry the same parsed-AND-documented contract,
  # and the section explaining the stripe/bitwise-identity argument and
  # the failure matrix must survive.
  for flag in --workers --shard-socket --retry-budget --heartbeat-ms; do
    if ! grep -qF -- "\"$flag\"" "$REPO_ROOT/tools/saphyra_serve.cc"; then
      echo "check_docs: tools/saphyra_serve.cc no longer parses $flag" >&2
      fail=1
    fi
    if ! grep -qF -- "$flag" "$serving_doc"; then
      echo "check_docs: docs/serving.md no longer documents $flag" >&2
      fail=1
    fi
  done
  if ! grep -qF "Sharded serving" "$serving_doc"; then
    echo "check_docs: docs/serving.md lost the 'Sharded serving' section" >&2
    fail=1
  fi
  # Dynamic graphs: the mutation flags must stay parsed AND explained in
  # serving.md, the section itself must survive, and the update wire
  # fields must stay documented (clients build requests from this page).
  for flag in --allow-updates; do
    if ! grep -qF -- "\"$flag\"" "$REPO_ROOT/tools/saphyra_serve.cc"; then
      echo "check_docs: tools/saphyra_serve.cc no longer parses $flag" >&2
      fail=1
    fi
    if ! grep -qF -- "$flag" "$serving_doc"; then
      echo "check_docs: docs/serving.md no longer documents $flag" >&2
      fail=1
    fi
  done
  # Each epoch's CSR is spliced from its parent's; the delta overlay and
  # its compaction knob are gone and must not come back.
  if grep -rnE 'compact-threshold|delta_overlay' \
       "$REPO_ROOT/tools" "$REPO_ROOT/src" "$REPO_ROOT/docs" \
       | grep -v '^[^:]*/tools/check_docs\.sh:' >&2; then
    echo "check_docs: the delta overlay or --compact-threshold reappeared (above)" >&2
    fail=1
  fi
  if ! grep -qF "Dynamic graphs" "$serving_doc"; then
    echo "check_docs: docs/serving.md lost the 'Dynamic graphs' section" >&2
    fail=1
  fi
  for field in '"op"' '"action"' '"edge"' '"epoch"' '"fingerprint"'; do
    if ! grep -qF -- "$field" "$serving_doc"; then
      echo "check_docs: docs/serving.md update schema is missing the $field field" >&2
      fail=1
    fi
  done
  # The memo's eviction rule and its two counters: saphyra_serve must keep
  # emitting the keys, and serving.md must keep explaining them next to
  # the credit formula they are read against.
  for key in memo_evictions memo_saved_s; do
    if ! grep -qF -- "\\\"$key\\\"" "$REPO_ROOT/tools/saphyra_serve.cc"; then
      echo "check_docs: tools/saphyra_serve.cc no longer emits $key" >&2
      fail=1
    fi
    if ! grep -qF -- "$key" "$serving_doc"; then
      echo "check_docs: docs/serving.md no longer documents $key" >&2
      fail=1
    fi
  done
  for phrase in "Memo eviction rule (GreedyDual-frequency)" \
                "H = L + uses × cost"; do
    if ! grep -qF -- "$phrase" "$serving_doc"; then
      echo "check_docs: docs/serving.md lost the memo eviction-rule paragraph ('$phrase')" >&2
      fail=1
    fi
  done
  for code in INVALID_ARGUMENT DEADLINE_EXCEEDED RESOURCE_EXHAUSTED \
              CANCELLED INTERNAL UNAVAILABLE; do
    if ! grep -qF "\"$code\"" "$REPO_ROOT/src/util/status.cc"; then
      echo "check_docs: src/util/status.cc no longer emits wire code $code" >&2
      fail=1
    fi
    if ! grep -qF "$code" "$serving_doc"; then
      echo "check_docs: docs/serving.md error taxonomy is missing $code" >&2
      fail=1
    fi
  done
fi

# --- 7. relative doc links resolve -----------------------------------------
# Markdown inline links [text](target); URLs and pure #anchors are skipped,
# in-file anchors of relative targets are stripped before the existence test.
for doc in "${doc_files[@]}"; do
  dir="$(dirname "$doc")"
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      echo "check_docs: $(basename "$doc") links to '$target' which does not resolve" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 8. retired estimator options ------------------------------------------
# Every estimator shares one SamplingOptions base; Lemma 4's constant and
# the n0 floor are the constants kVcSampleConstant / kMinInitialSamples.
# The names are split across quotes so this script does not match itself.
if grep -rnwE 'vc_''constant|min_initial_''samples|Abra''Options|RunDirect''Estimation' \
     "$REPO_ROOT/tools" "$REPO_ROOT/src" "$REPO_ROOT/docs" >&2; then
  echo "check_docs: a retired estimator option reappeared (above)" >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_docs: README/ROADMAP tier-1 line, rank flags, headline metrics," \
     "tool flags vs docs/cli.md, BENCH_micro.json key coverage, serving" \
     "error taxonomy, doc links and retired options all consistent"
