"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] [--trace] [--append LABEL]

Run it from the root of a source checkout.  For each workload it runs the
command in BENCHMARK.json once per seed, then prints for every end-to-end
metric the median, the quartiles and their distance as a share of the
median, next to the metric's bound.  ``--trace`` adds one traced run per
workload (the first seed).  ``--append LABEL`` adds the summary as one entry
to trajectory.json, the benchmark's record of measured commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--append", metavar="LABEL", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    entry = {"label": args.append, "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, env = _run(bench, name, seed, 0)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: outputs incorrect")
            runs.append(result["metrics"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        record = {"env": env, "end_to_end": {}}
        for metric in bounds:
            s = _summary([r[metric]["value"] for r in runs])
            s["unit"] = runs[0][metric]["unit"]
            record["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {metric}: median {s['median']:.4f} {s['unit']}, q1 {s['q1']:.4f}, "
                  f"q3 {s['q3']:.4f}, spread {s['spread']:.3f} (bound {bounds[metric]}){flag}")
        if args.trace:
            result, _ = _run(bench, name, seeds[0], 1)
            record["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced: overhead {record['per_layer']['trace.overhead_ratio']:.3f}")
        entry["workloads"][name] = record
    if args.append:
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
