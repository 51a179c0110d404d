"""twinbeams benchmark: one workload, timed, checked, one JSON result line.

    python3 perfbench/run.py --workload run_compare_m256 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports twinbeams from
``src/`` of that checkout and nothing else.  The process started here only
orchestrates.  A worker process imports twinbeams, parses the config, runs
one warm-up operation, then runs operations back to back (a closed loop
with one client) for ``--seconds``, checking each one's outputs after
timing it.  Two more processes repeat the set-up alone, so ``setup_s`` is a
median of three.  With ``--trace 1`` the worker alternates untraced and
traced operations and reports per-layer metrics instead (see tracing.py).

The last line of standard output is the JSON result; the lines before it
give every metric with its unit and sample count, and the environment.
Each result is also appended to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Defined in workloads.py, which this process does not import (it imports twinbeams).
WORKLOAD_NAMES = ("run_compare_m256", "sweep_theta_m64", "spectrum_paths_m512")
SETUPS = 3
#: Wall-clock budget of one benchmark invocation, all processes included.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------- worker side


def _environment(seed: int) -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            runtime[Path(lib_path).name] = {
                "threads": threads(),
                "config": config().decode().strip(),
            }
            break
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": _nproc(),
        "cpu": cpu,
        "seed": seed,
    }


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _worker(args) -> None:
    import twinbeams

    if not Path(twinbeams.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"twinbeams imported from {twinbeams.__file__}, not from {SRC}")
    import tracing
    from workloads import PROBE_M, WORKLOADS, artifact_digest

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        cls = WORKLOADS[args.workload]
        workload = cls.from_seed(args.seed, work)
        attempted = failed = 0
        problems: list[str] = []
        first_digest = None

        def run_one(op_id, tracer=None):
            """Time one operation, then check it; returns (seconds, bytes)."""
            nonlocal attempted, failed, first_digest
            out = work / f"op{op_id}"
            attempted += 1
            errors: list[str] = []
            if tracer is not None:
                tracer.install()
                tracer.begin_op(op_id)
            start = time.perf_counter()
            try:
                result = workload.op(out)
            except Exception as exc:  # a failing operation is counted, not fatal
                errors.append(f"op {op_id} raised {exc!r}")
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(failed=bool(errors))
                tracer.uninstall()
            size = 0
            if not errors:
                try:
                    errors += workload.check(result, out)
                    if workload.writes_artifacts:
                        digest, size = artifact_digest(out)
                        first_digest = first_digest or digest
                        if digest != first_digest:
                            errors.append(f"op {op_id}: artifacts differ from the first operation's")
                except Exception as exc:  # e.g. an expected output file is missing
                    errors.append(f"op {op_id}: check raised {exc!r}")
            shutil.rmtree(out, ignore_errors=True)
            failed += bool(errors)
            problems.extend(errors)
            return elapsed, size

        run_one(0)
        _emit({"ready_at": time.monotonic()})
        if args.probe:
            _emit({"attempted": attempted, "failed": failed, "problems": problems})
            return

        tracer = tracing.Tracer() if args.trace else None
        times = {"untraced": [], "traced": []}
        sizes = []
        window = time.perf_counter()
        op_id = 1
        # Trace mode alternates, so both kinds see the same machine state.
        kinds = ("untraced", "traced") if tracer is not None else ("untraced",)
        while time.perf_counter() - window < args.seconds or not all(times[k] for k in kinds):
            traced = tracer is not None and op_id % 2 == 0
            elapsed, size = run_one(op_id, tracer if traced else None)
            times["traced" if traced else "untraced"].append(elapsed)
            sizes.append(size)
            op_id += 1

        result = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "times": times,
            "units_per_op": workload.units_per_op,
            "artifact_bytes": statistics.median(sizes),
            "peak_rss_mb": _peak_rss_mb(),
            "env": _environment(args.seed),
        }
        if tracer is not None:
            small = cls.from_seed(args.seed, work, m=PROBE_M)
            wrapped, profiled = tracing.count_calls(tracer, lambda: small.op(work / "bindings"))
            missed = {n: (wrapped[n], profiled[n]) for n in profiled if wrapped[n] != profiled[n]}
            result["attempted"] += 1
            if missed:
                result["failed"] += 1
                result["problems"].append(f"calls that bypassed the tracer (wrapped, real): {missed}")
            result["layers"], result["checks"] = tracing.layer_metrics(tracer.spans)
            result["spans_file"] = str(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(result["spans_file"])
        _emit(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


# ------------------------------------------------------------ orchestrator side


def _spawn(args, probe: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (set-up seconds, its final record)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker exceeded the {DEADLINE_S:.0f} s budget")
    records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(records) != 2:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return records[0]["ready_at"] - spawned, records[1]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" q1={q1:.4f} q3={q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        sys.path.insert(0, str(HERE))
        _worker(args)
        return 0

    if not (SRC / "twinbeams" / "__init__.py").is_file():
        print(f"error: no twinbeams source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setup, record = _spawn(args, probe=False, deadline=deadline)
    setups = [setup]
    attempted, failed = record["attempted"], record["failed"]
    problems = list(record["problems"])
    if not args.trace:
        for _ in range(SETUPS - 1):
            setup, probe = _spawn(args, probe=True, deadline=deadline)
            setups.append(setup)
            attempted += probe["attempted"]
            failed += probe["failed"]
            problems += probe["problems"]

    untraced = record["times"]["untraced"]
    env = record["env"]
    lines = [f"workload {args.workload} seed {args.seed} window {args.seconds:g} s trace {args.trace}"]
    if args.trace:
        traced = record["times"]["traced"]
        metrics = {
            key: {"value": value, "unit": _layer_unit(key)}
            for key, value in record["layers"].items()
        }
        metrics["io.artifact_mb"] = {"value": record["artifact_bytes"] / 1e6, "unit": "MB"}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(untraced),
            "unit": "ratio",
        }
        lines.append(f"traced ops n={len(traced)}, untraced ops n={len(untraced)}")
        for key, value in record["checks"].items():
            lines.append(f"check {key} = {value} (2 and 4 at the baseline commit; None: not called)")
        lines.append(f"spans written to {record['spans_file']}")
    else:
        metrics = {
            "op_p50_s": statistics.median(untraced),
            "throughput_per_s": record["units_per_op"] * len(untraced) / sum(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        lines.append(f"op_p50_s = {metrics['op_p50_s']['value']:.4f} s (n={len(untraced)}{_quartiles(untraced)})")
        lines.append(f"throughput_per_s = {metrics['throughput_per_s']['value']:.4f} 1/s "
                     f"({record['units_per_op']} units per op, n={len(untraced)})")
        lines.append(f"setup_s = {metrics['setup_s']['value']:.4f} s (median of n={len(setups)}: "
                     + ", ".join(f"{s:.3f}" for s in setups) + ")")
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB (worker ru_maxrss)")
    lines.append(f"artifact_mb = {record['artifact_bytes'] / 1e6:.6f} MB per op")
    lines.append(f"failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} ops, warm-ups included)")
    for problem in problems[:20]:
        lines.append(f"problem: {problem}")
    lines.append("env " + json.dumps(env, sort_keys=True))

    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "setups": setups, "times": record["times"],
                             "artifact_bytes": record["artifact_bytes"], "problems": problems,
                             "env": env, **result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


def _layer_unit(key: str) -> str:
    if key.endswith(".calls") or key.endswith(".errors"):
        return "count"
    if key.endswith("bytes"):
        return "B"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
