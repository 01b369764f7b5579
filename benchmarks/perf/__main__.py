"""Keep BENCHMARK.json and the benchmark in step, and see how steady it is.

    python -m benchmarks.perf --check
    python -m benchmarks.perf --repeat 10 [--workload W ...] [--seed N] [--fixed-seed]

``--check`` holds BENCHMARK.json against the tables in the code and against
what the command really prints. ``--repeat N`` runs each workload N times
(seed, seed+1, … unless ``--fixed-seed``) and prints, per end-to-end
metric, the median and the spread — the distance between the quartiles as
a share of the median — next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.perf import metrics, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the benchmark's own command; returns its result object."""
    command = [sys.executable if part == "python3" else part for part in load_spec()["command"]]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def check(seconds: float) -> list[str]:
    """Every disagreement between BENCHMARK.json, the code and the output."""
    spec = load_spec()
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"unexpected top-level keys: {sorted(spec)}")
    declared = [(w["name"], w["why"]) for w in spec["workloads"]]
    if declared != [(w.name, w.why) for w in workloads.WORKLOADS]:
        problems.append("workloads differ from workloads.WORKLOADS (names, order or why)")
    for key, table, limit in (("end_to_end", metrics.END_TO_END, 16), ("per_layer", metrics.PER_LAYER, 128)):
        rows = [metrics.Metric(r["name"], r["unit"], r["better"], r.get("bound")) for r in spec[key]]
        if rows != list(table):
            problems.append(f"{key} differs from metrics.{key.upper()}: "
                            f"{sorted(set(rows) ^ set(table), key=lambda m: m.name)}")
        if len(rows) > limit:
            problems.append(f"{key} has {len(rows)} metrics, over the limit of {limit}")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    problems += [f"name {name!r} is not allowed" for name in names if not NAME.match(name)]
    problems += [f"name {name!r} is used twice" for name in set(names) if names.count(name) > 1]
    problems += [f"unit {m['unit']!r} is not allowed" for k in ("end_to_end", "per_layer") for m in spec[k]
                 if not UNIT.match(m["unit"])]
    problems += [f"why of {w['name']} is not one line of at most 200 characters" for w in spec["workloads"]
                 if len(w["why"]) > 200 or "\n" in w["why"]]
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append(f"{len(spec['workloads'])} workloads, outside 2..8")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"]):
        problems.append("no setup_s metric in end_to_end")
    problems += [f"bound of {m['name']} is {m['bound']}, over 0.25" for m in spec["end_to_end"] if m["bound"] > 0.25]
    # and what the command really prints, on a short run of each kind
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload.name, 1, seconds, trace)
            printed = {name: value["unit"] for name, value in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if printed != wanted:
                problems.append(f"{workload.name} --trace {trace} printed {sorted(set(printed.items()) ^ set(wanted.items()))}")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{workload.name} --trace {trace}: bad result object or incorrect run")
            print(f"  checked {workload.name} --trace {trace}: {result['attempted']} ops, {len(printed)} metrics")
    return problems


def spread(values: list[float]) -> float:
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def repeat(names: list[str], count: int, seed: int, seconds: float, fixed_seed: bool) -> int:
    bounds = {metric.name: metric.bound for metric in metrics.END_TO_END}
    wide = 0
    for name in names:
        runs = [run(name, seed if fixed_seed else seed + index, seconds, 0) for index in range(count)]
        print(f"{name}: {count} runs, {sum(r['attempted'] for r in runs)} ops, {sum(r['failed'] for r in runs)} failed")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            share = spread(values)
            flag = "" if share <= bound / 3 or metric == "setup_s" else ("  > bound/3" if share <= bound else "  > BOUND")
            wide += share > bound and metric != "setup_s"
            print(f"  {metric:16s} median {statistics.median(values):10.4f}  spread {share:6.2%}  bound {bound:4.0%}{flag}")
    return wide


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--fixed-seed", action="store_true")
    args = parser.parse_args()
    if args.check:
        problems = check(args.seconds or 1.0)
        print("\n".join(problems) or "BENCHMARK.json, the tables and the output agree")
        return 1 if problems else 0
    if args.repeat:
        seconds = args.seconds or load_spec()["run_seconds"]
        names = args.workload or [workload.name for workload in workloads.WORKLOADS]
        return 1 if repeat(names, args.repeat, args.seed, seconds, args.fixed_seed) else 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
