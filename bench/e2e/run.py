#!/usr/bin/env python3
"""rdfsr end-to-end benchmark runner (standard library only).

Builds bench/e2e/rdfsr_bench into .bench_build/ at the repository root, then
for each workload generates its N-Triples input from --seed in one process
and runs the jobs in a fresh process, so peak RSS belongs to that workload.

  python3 bench/e2e/run.py --workload wordnet_exact --seed 42 --seconds 30
  python3 bench/e2e/run.py --seed 42            # every workload, in turn
  python3 bench/e2e/run.py --smoke              # 1 job per workload, all checks
  python3 bench/e2e/run.py --workload W --seed S --trace 1 --out runs.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes .bench_build/trace-<workload>.json, a Chrome
trace-event file Perfetto opens). Every timing is the fastest of the run's
per-job samples (see fastest). --out appends the run, with its per-job
samples and host description, to a run-set file that compare.py reads.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit status: 0 when every check passed, 1 when a check failed,
2 when the benchmark could not run (build failure, usage).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD = ROOT / ".bench_build"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    log = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rdfsr_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if code != 0:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                if "--build" not in step:  # configure again next time
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build failed (see {log})")
    return BUILD / "rdfsr_bench"


def quantile(values, q):
    """The q-quantile of the samples (statistics.quantiles, inclusive)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def fastest(values, better="lower"):
    """How every per-job sample is summarized: the run's fastest job (the
    largest value for a metric where higher is better).

    A shared host adds time to a job in bursts, and a job never runs faster
    than its work allows, so the fastest job is the one that tracks rdfsr.
    On a shared 4-vCPU virtual machine, over ten back-to-back 35 s windows,
    the fastest job spread 6.5% (quartile distance over the median) where
    the median job spread 14%.
    """
    if not values:
        return float("nan")
    return min(values) if better == "lower" else max(values)


def end_to_end(result):
    ok = [job for job in result["jobs"] if job["ok"]]
    return {
        "e2e_s": fastest([job["e2e_s"] for job in ok]),
        "setup_s": fastest([job["setup_s"] for job in ok]),
        "query_s": fastest([job["query_s"] for job in ok]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, metrics):
    traced = result["traced_jobs"]
    untraced = [job["e2e_s"] for job in result["jobs"] if job["ok"]]
    values = {}
    for m in metrics:
        name = m["name"]
        if name == "trace.overhead_frac":
            values[name] = (fastest([t["wall_s"] for t in traced]) /
                            fastest(untraced) - 1.0)
        elif name in result["probes"]:
            values[name] = result["probes"][name]
        else:
            values[name] = fastest([t["layers"][name] for t in traced
                                    if name in t["layers"]], m["better"])
    return values


def distribution(result):
    """Median and the highest percentile with ten jobs beyond it, per
    timing: printed for reading, not bounded."""
    ok = [job for job in result["jobs"] if job["ok"]]
    tail = math.floor(100 * (1 - 10 / len(ok))) if len(ok) >= 20 else None
    lines = []
    for key in ("e2e_s", "setup_s", "query_s"):
        values = [job[key] for job in ok]
        line = f"   {key} over {len(ok)} jobs: median {quantile(values, 0.5):.6g}"
        if tail:
            line += f", p{tail} {quantile(values, tail / 100):.6g}"
        lines.append(line)
    return lines


def run_workload(binary, name, seed, seconds, trace, smoke):
    """Generates the input, runs the jobs, returns the harness's result."""
    inputs = BUILD / "inputs"
    inputs.mkdir(exist_ok=True)
    data = inputs / f"{name}-{seed}.nt"
    cmd = [str(binary), "run", "--workload", name, "--file", str(data),
           "--seconds", str(seconds)]
    if smoke:
        cmd += ["--min-jobs", "1", "--warmup", "0"]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{name}.json")]
    try:
        subprocess.run([str(binary), "gen", "--workload", name, "--seed",
                        str(seed), "--out", str(data)], check=True, timeout=30)
        # Bounded so that a run at run_seconds ends within 180 s.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 100)
    except (OSError, subprocess.SubprocessError) as err:
        fail(f"{name}: {err}")
    finally:
        data.unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{name}: harness exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty", "--abbrev=12"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def append_run(path, record):
    path = Path(path)
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 job per workload, traced, every check")
    parser.add_argument("--out", help="append the run to this run-set file")
    args = parser.parse_args()
    if args.smoke:
        args.seconds, args.trace = 0, 1

    binary = build()
    names = [args.workload] if args.workload else workloads
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sections = ["per_layer"] if args.trace else ["end_to_end"]
    if args.smoke:
        sections = ["end_to_end", "per_layer"]
    reported = [m["name"] for s in sections for m in spec[s]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(binary, name, args.seed, args.seconds,
                              args.trace, args.smoke)
        values = end_to_end(result)
        if args.trace:
            values.update(per_layer(result, spec["per_layer"]))
        correct = not result["errors"]
        answer = result.get("answer", {})
        print(f"== {name}: seed {args.seed}, {result['attempted']} jobs "
              f"({result['failed']} failed) in {result['measured_s']:.1f} s, "
              f"{result['lanes']} lane (gate: {result['gate_lanes'] or 'none'}); "
              f"answer theta={answer.get('theta')} "
              f"sorts={answer.get('sorts')} optimal={answer.get('optimal')} "
              f"instances={answer.get('instances')}; "
              f"checks {'passed' if correct else 'FAILED'}")
        for error in result["errors"]:
            print(f"   error: {error}")
        for job in result["jobs"]:
            if not job["ok"]:
                print(f"   job failed: {job['error']}")
        for line in distribution(result):
            print(line)
        for metric in reported:
            print(f"   {metric:28s} {values[metric]:14.6g} {units[metric]}")
        # NaN (no successful job to summarize) is not JSON.
        metrics = {m: {"value": values[m] if math.isfinite(values[m]) else None,
                       "unit": units[m]} for m in reported}
        if args.out:
            append_run(args.out, {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "commit": commit(),
                "host": {"nproc": result["nproc"], "compiler": result["compiler"],
                         "build_type": result["build_type"]},
                "correct": correct, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics,
                "answer": answer, "jobs": result["jobs"],
                "traced_jobs": result["traced_jobs"]})
        summary["correct"] &= correct
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for metric, value in metrics.items():
            summary["metrics"][prefix + metric] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
