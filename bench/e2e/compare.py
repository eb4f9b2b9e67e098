#!/usr/bin/env python3
"""Compares two run sets of the rdfsr end-to-end benchmark (stdlib only).

  python3 bench/e2e/compare.py BASE NEW
  python3 bench/e2e/compare.py --self-test

BASE and NEW are run-set files written by `run.py --out` (or directories of
them), typically the parent commit's runs and a change's runs. For every
(end-to-end metric, workload) the report gives each side's median and
quartiles over its runs (one value per run) and a verdict, using the metric's
bound from BENCHMARK.json:

  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, unless every new run reads better than every base run
  regressed   the new median is worse than the base median by more than the
              bound
  improved    the new side wins at least 9 of 10 pairs (runs paired by seed;
              ties count for neither) and the medians differ by more than the
              base side's quartile distance
  unchanged   otherwise

Per-layer metrics, when both sides have traced runs, are listed with their
medians and no verdict. Exits 1 when a metric regressed, when a workload's
failed/attempted ratio rose, or when a NEW run failed its checks.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        runs.extend(json.loads(f.read_text())["runs"])
    return runs


def verdict(base, new, bound, better):
    """Verdict for one metric: `base` and `new` hold one value per run, in
    seed order (so zip pairs runs of the same seed)."""
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0: worse
    mb, mn = statistics.median(base), statistics.median(new)
    qb, qn = statistics.quantiles(base, n=4), statistics.quantiles(new, n=4)
    spread = max((qb[2] - qb[0]) / abs(mb), (qn[2] - qn[0]) / abs(mn))
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (mn - mb) / abs(mb) > bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (wins >= 0.9 * len(pairs) and sign * (mn - mb) < 0 and
            abs(mn - mb) > qb[2] - qb[0]):
        return "improved"
    return "unchanged"


def values_by_workload(runs, metric):
    out = {}
    for run in sorted(runs, key=lambda r: r["seed"]):
        entry = run["metrics"].get(metric)
        if entry is not None and entry["value"] is not None:
            out.setdefault(run["workload"], []).append(entry["value"])
    return out


def failed_ratio(runs, workload):
    attempted = sum(r["attempted"] for r in runs if r["workload"] == workload)
    failed = sum(r["failed"] for r in runs if r["workload"] == workload)
    return failed / attempted if attempted else 0.0


def summary(values):
    """'median [q1, q3] spread', spread being (q3 - q1) / median."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    m = statistics.median(values)
    return f"{m:.4g} [{q[0]:.4g}, {q[2]:.4g}] {(q[2] - q[0]) / abs(m):5.1%}"


def compare(spec, base_runs, new_runs, out=sys.stdout):
    """Prints the report; returns True when nothing regressed."""
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':20s} {'metric':18s} {'base median [q1, q3] spread':>34s} "
          f"{'new median [q1, q3] spread':>34s} {'change':>7s} {'pairs':>6s}  "
          f"verdict", file=out)
    for workload in workloads:
        for m in spec["end_to_end"]:
            base = values_by_workload(base_runs, m["name"]).get(workload)
            new = values_by_workload(new_runs, m["name"]).get(workload)
            if not base or not new:
                continue
            v = verdict(base, new, m["bound"], m["better"])
            ok &= v != "regressed"
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
            change = statistics.median(new) / statistics.median(base) - 1
            print(f"{workload:20s} {m['name'] + ' (' + m['unit'] + ')':18s} "
                  f"{summary(base):>34s} {summary(new):>34s} "
                  f"{change:+7.1%} {wins:>2d}/{min(len(base), len(new)):<3d}  "
                  f"{v}", file=out)
        before = failed_ratio(base_runs, workload)
        after = failed_ratio(new_runs, workload)
        if after > before:
            ok = False
            print(f"{workload:20s} failed/attempted rose: {before:.3f} -> "
                  f"{after:.3f}", file=out)
    for run in new_runs:
        if not run["correct"]:
            ok = False
            print(f"{run['workload']} seed {run['seed']}: checks failed",
                  file=out)
    layer_rows = []
    for workload in workloads:
        for m in spec["per_layer"]:
            base = values_by_workload(base_runs, m["name"]).get(workload)
            new = values_by_workload(new_runs, m["name"]).get(workload)
            if base and new:
                layer_rows.append(
                    f"{workload:20s} {m['name'] + ' (' + m['unit'] + ')':34s} "
                    f"{statistics.median(base):12.5g} -> "
                    f"{statistics.median(new):12.5g}")
    if layer_rows:
        print("\nper-layer medians (no verdict):", file=out)
        print("\n".join(layer_rows), file=out)
    return ok


def self_test():
    rng = random.Random(7)

    def noisy(center, spread, n=10):
        return [center * (1 + rng.uniform(-spread, spread)) for _ in range(n)]

    assert verdict(noisy(1.0, 0.01), noisy(1.0, 0.01), 0.1, "lower") == "unchanged"
    assert verdict(noisy(1.0, 0.01), noisy(0.8, 0.01), 0.1, "lower") == "improved"
    assert verdict(noisy(1.0, 0.01), noisy(1.3, 0.01), 0.1, "lower") == "regressed"
    assert verdict(noisy(1.0, 0.01), noisy(1.3, 0.01), 0.1, "higher") == "improved"
    assert verdict(noisy(1.0, 0.5), noisy(1.0, 0.5), 0.1, "lower") == "unresolved"
    # Too noisy for the bound, but every new run is better: not unresolved.
    assert verdict(noisy(1.0, 0.2), noisy(0.3, 0.2), 0.1, "lower") == "improved"
    # Clearly better median but only 8 of 10 pairs won: unchanged.
    base = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    new = [v - 0.2 for v in base[:8]] + [1.2, 1.2]
    assert verdict(base, new, 0.5, "lower") == "unchanged"

    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "e2e_s", "unit": "s", "better": "lower",
                            "bound": 0.1}],
            "per_layer": [{"name": "ilp.mip_nodes", "unit": "count",
                           "better": "lower"}]}

    def runs(center, failed=0, correct=True):
        return [{"workload": "w", "seed": s, "attempted": 10, "failed": failed,
                 "correct": correct,
                 "metrics": {"e2e_s": {"value": v, "unit": "s"},
                             "ilp.mip_nodes": {"value": 5, "unit": "count"}}}
                for s, v in enumerate(noisy(center, 0.01))]

    sink = open("/dev/null", "w")
    assert compare(spec, runs(1.0), runs(1.0), sink)
    assert compare(spec, runs(1.0), runs(0.8), sink)
    assert not compare(spec, runs(1.0), runs(1.5), sink)
    assert not compare(spec, runs(1.0), runs(1.0, failed=1), sink)
    assert not compare(spec, runs(1.0), runs(1.0, correct=False), sink)
    sink.close()
    print("compare.py self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.base or not args.new:
        parser.error("give BASE and NEW run sets")
    spec = json.loads(SPEC.read_text())
    return 0 if compare(spec, load_runs(args.base), load_runs(args.new)) else 1


if __name__ == "__main__":
    sys.exit(main())
