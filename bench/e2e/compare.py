#!/usr/bin/env python3
"""Summarise or compare sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py BASE_DIR            # one set: quartiles
    python3 bench/e2e/compare.py BASE_DIR --json     # the same, as JSON
    python3 bench/e2e/compare.py BASE_DIR NEW_DIR    # compare two sets

A set is a directory of results files written by `bench/e2e/run.sh`
(build-bench/e2e/results/ by default, or its --out DIR). For every workload
and metric it prints the median and quartiles of each set. Comparing two
sets, it flags

  * an end-to-end metric whose NEW median is worse than the BASE median by
    more than the metric's bound in BENCHMARK.json, or, for the end-to-end
    metrics only some workloads have, by more than its bound in
    WORKLOAD_BOUNDS below;
  * an output_digest that differs between runs of the same workload and
    seed, within a set or across the two;
  * a run that was not correct or had failed requests;

and it applies the pair rule a claimed gain must meet: runs are paired in
file-name order per workload, NEW must win at least 9 of every 10 pairs
(ties count for neither side; at least ten pairs are needed), and the gap
between the medians must exceed BASE's quartile spread. The exit code is 1
when anything was flagged, 0 otherwise. Python standard library only.
"""

import json
import os
import statistics
import sys

SCHEMA = "saphyra-e2e/1"
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# End-to-end metrics that only some workloads have. BENCHMARK.json's
# end_to_end list holds the metrics every workload reports, never as 0, so
# these are listed with the per-layer metrics there and bounded here.
# name: (kind, bound, workloads): a "relative" bound is a share of the base
# median, as in BENCHMARK.json; an "absolute" bound is in the metric's unit.
# The latency bounds are host-calibrated, like BENCHMARK.json's, for the
# reason README.md's "Noise and bounds" gives.
WORKLOAD_BOUNDS = {
    "query_p99_cal_ms": ("relative", 0.25, {"serve-mixed"}),
    "update_p50_cal_ms": ("relative", 0.10, {"serve-mutating"}),
    "update_p95_cal_ms": ("relative", 0.25, {"serve-mutating"}),
    "error_rate": ("absolute", 0.0, None),
    "rank_spearman": ("absolute", 0.005, {"rank-social", "rank-road-sharded"}),
    "eps_miss_rate": ("absolute", 0.005, {"rank-social", "rank-road-sharded"}),
}


def load_set(directory):
    """{workload: [run, ...]} of the non-smoke results files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            try:
                run = json.load(f)
            except ValueError:
                continue
        if run.get("schema") != SCHEMA or run.get("smoke"):
            continue
        runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_table(runs):
    """{metric: (values, unit)} over `runs`, in first-seen order."""
    table = {}
    for run in runs:
        for name, m in run["metrics"].items():
            table.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return table


def summarise(runs_by_workload):
    out = {}
    for workload, runs in sorted(runs_by_workload.items()):
        metrics = {}
        for name, (values, unit) in metric_table(runs).items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(values), "unit": unit}
        out[workload] = {"runs": len(runs), "seeds": sorted({r["seed"] for r in runs}),
                         "host": runs[0]["host"], "metrics": metrics}
    return out


def digest_problems(label, runs_by_workload, seen):
    """Record every (workload, seed) digest in `seen`; report disagreements."""
    problems = []
    for workload, runs in runs_by_workload.items():
        for run in runs:
            key = (workload, run["seed"])
            first = seen.setdefault(key, (label, run["output_digest"]))
            if first[1] != run["output_digest"]:
                problems.append(f"{workload} seed {run['seed']}: output_digest "
                                f"{first[1]} ({first[0]}) != {run['output_digest']} ({label})")
    return problems


def run_problems(label, runs_by_workload):
    return [f"{label} {w} seed {r['seed']}: correct={r['correct']} failed={r['failed']}"
            for w, runs in runs_by_workload.items() for r in runs
            if not r["correct"] or r["failed"]]


def worse_by(kind, base, new, better):
    """How much worse `new` is than `base`: a share of `base` for a
    "relative" bound, a difference in the metric's unit for "absolute"."""
    diff = new - base if better == "lower" else base - new
    if kind == "absolute":
        return diff
    return diff / base if base else 0.0


def bound_of(workload, name, bench_bounds):
    """(kind, bound) for `name` on `workload`, or None when unbounded."""
    if name in bench_bounds:
        return "relative", bench_bounds[name]
    kind, bound, workloads = WORKLOAD_BOUNDS.get(name, (None, None, ()))
    if kind is None or (workloads is not None and workload not in workloads):
        return None
    return kind, bound


def format_bound(kind, bound):
    return f"{bound:.0%}" if kind == "relative" else f"{bound:g} absolute"


def compare(base, new, bench):
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flags = run_problems("base", base) + run_problems("new", new)
    seen = {}
    flags += digest_problems("base", base, seen) + digest_problems("new", new, seen)

    print(f"{'workload':18s} {'metric':44s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_table, n_table = metric_table(base[workload]), metric_table(new[workload])
        for name, (b_vals, unit) in b_table.items():
            if name not in n_table:
                continue
            n_vals = n_table[name][0]
            if not any(b_vals) and not any(n_vals):
                continue  # a metric this workload does not have
            bq1, bmed, bq3 = quartiles(b_vals)
            nq1, nmed, nq3 = quartiles(n_vals)
            better = directions.get(name)
            verdict = ""
            if better is not None:
                bound = bound_of(workload, name, bounds)
                if bound is not None:
                    kind, limit = bound
                    worse = worse_by(kind, bmed, nmed, better)
                    if worse > limit:
                        shown = f"{worse:+.1%}" if kind == "relative" else f"{worse:+.4g}"
                        verdict = f"REGRESSION (bound {format_bound(kind, limit)})"
                        flags.append(f"{workload} {name}: {shown} worse than base "
                                     f"(bound {format_bound(kind, limit)})")
                pairs = list(zip(b_vals, n_vals))
                wins = sum(1 for b, n in pairs if (n < b if better == "lower" else n > b))
                gap = (bmed - nmed) if better == "lower" else (nmed - bmed)
                if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > bq3 - bq1:
                    verdict = (verdict + " " if verdict else "") + \
                        f"gain holds ({wins}/{len(pairs)} pairs)"
            change = f"{(nmed - bmed) / bmed:+.1%}" if bmed else "n/a"
            print(f"{workload:18s} {name:44s} "
                  f"{bmed:12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
                  f"{nmed:12.6g} [{nq1:9.4g}, {nq3:9.4g}] {change:>8s}  {verdict} {unit}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'base' if workload in base else 'new'}")
    if flags:
        print("\nflagged:")
        for f in flags:
            print("  " + f)
    return 1 if flags else 0


def main(argv):
    args = [a for a in argv if a != "--json"]
    if len(args) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base = load_set(args[0])
    if not base:
        print(f"compare.py: no results files in {args[0]}", file=sys.stderr)
        return 2
    if len(args) == 2:
        return compare(base, load_set(args[1]), bench)
    summary = summarise(base)
    if "--json" in argv:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, seeds {s['seeds']}")
        for name, m in s["metrics"].items():
            if m["q1"] == m["q3"] == 0:
                continue
            print(f"  {name:44s} {m['median']:12.6g} [{m['q1']:10.5g}, {m['q3']:10.5g}] {m['unit']}")
    problems = run_problems("set", base) + digest_problems("set", base, {})
    for p in problems:
        print("flagged: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
