"""Benchmark of the DiVa reproduction: fleet serving and analytic sweeps.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-budget-bound --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

One workload: passes of the workload run one after another, each in a
fresh process (``perfbench/worker.py``), while the next one still fits
in ``--seconds``.  With ``--trace 0`` the last line of standard output
is a JSON object whose metrics are the end-to-end metrics of
``BENCHMARK.json``: medians over the passes, and ``setup_s`` a median
over at least five set-ups.  Both timings are host-normalised: each
worker times a fixed reference kernel just before and just after its
timed scope, and the pass's seconds are scaled by ``REF_NOMINAL_S``
over the mean of those two reference times, so that the shared host's
changing speed divides out (``perfbench/README.md``, "Host
normalisation").
With ``--trace 1`` the run makes one untraced and one traced pass,
checks that their simulated outputs are identical, and reports the
per-layer metrics (raw seconds, with the reference time beside them)
plus the tracing overhead (traced minus untraced wall seconds).

``--workload all`` measures every workload on ``--seed`` and on a
held-out seed, traced and untraced, and prints every metric by name
with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path("perfbench") / "worker.py"
SPEC = Path("BENCHMARK.json")
TMP_ROOT = Path(".perfbench_tmp")
#: Seed never used while the benchmark was tuned; ``--workload all``
#: checks every workload on it as well.
HELD_OUT_SEED = 90_001
#: Set-ups measured per ``--trace 0`` run (extra set-up-only processes
#: make up the difference when fewer passes fit in ``--seconds``).
SETUP_SAMPLES = 5
#: Every run ends within this many seconds, or fails.
RUN_LIMIT_S = 170.0


#: Reference-kernel seconds of the nominal host that normalised timings
#: are given for (about the kernel's time on a quiet 2-core Xeon VM).
REF_NOMINAL_S = 0.1


class PassFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """Serial sweeps, BLAS capped at ``nproc``, ``src`` importable."""
    env = dict(os.environ)
    for var in ("REPRO_CACHE_DIR", "REPRO_JOBS"):
        env.pop(var, None)
    env["REPRO_PARALLEL"] = "0"
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_pass(workload: str, seed: int, deadline: float, *,
             traced: bool = False, setup_only: bool = False) -> dict:
    """One worker process; its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed(f"{workload}: out of time before a pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload}: pass exceeded {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise PassFailed(f"{workload}: worker exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalised(seconds: float, ref_s: float) -> float:
    """``seconds`` on the nominal host."""
    return seconds * REF_NOMINAL_S / ref_s


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> tuple[dict, list[str]]:
    """One benchmark run: its result object and human-readable lines."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    lines = []
    if trace:
        untraced = run_pass(workload, seed, deadline)
        traced = run_pass(workload, seed, deadline, traced=True)
        passes = [untraced, traced]
        same = untraced["digest"] == traced["digest"]
        layers = dict(traced["layers"])
        layers["bench.ref_s"] = untraced["ref_s"]
        layers["bench.untraced_wall_s"] = untraced["wall_s"]
        layers["bench.traced_wall_s"] = traced["wall_s"]
        layers["bench.trace_overhead_s"] = (traced["wall_s"]
                                            - untraced["wall_s"])
        metrics = {m["name"]: {"value": layers.get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        lines.append(f"{workload} seed={seed} tracing overhead "
                     f"{layers['bench.trace_overhead_s']:+.4f} s "
                     f"(traced {traced['wall_s']:.4f} s, untraced "
                     f"{untraced['wall_s']:.4f} s)")
    else:
        passes = []
        while True:
            passes.append(run_pass(workload, seed, deadline))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        setups = [normalised(p["setup_s"], p["ref_s"]) for p in passes]
        while len(setups) < SETUP_SAMPLES:
            p = run_pass(workload, seed, deadline, setup_only=True)
            setups.append(normalised(p["setup_s"], p["ref_s"]))
        same = len({p["digest"] for p in passes}) == 1
        values = {
            "items_per_s": statistics.median(
                p["items"] / normalised(p["wall_s"], p["ref_s"])
                for p in passes),
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups),
        }
        metrics = {m["name"]: {"value": values[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
        refs = " ".join(f"{p['ref_s']:.3f}" for p in passes)
        raw = statistics.median(p["items"] / p["wall_s"] for p in passes)
        lines.append(f"{workload} seed={seed}: {len(passes)} passes "
                     f"(wall s: {walls}; reference s: {refs}; "
                     f"{raw:.6g} items/s not normalised), "
                     f"{len(setups)} set-ups")
    problems = [problem for p in passes for problem in p["problems"]]
    if not same:
        problems.append("passes disagree on the simulated outputs")
    lines.append(f"{workload} seed={seed} digest {passes[0]['digest']}")
    lines += [f"{workload} seed={seed} FAILED CHECK: {problem}"
              for problem in problems]
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes) + 1,
        "failed": len(problems),
        "metrics": metrics,
    }
    return result, lines


def environment_line() -> str:
    import numpy

    return (f"env: nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} "
            f"numpy={numpy.__version__} REPRO_PARALLEL=0")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding "
              "src/repro", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    print(environment_line())
    try:
        if args.workload != "all":
            result, lines = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), spec)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0,
                   "metrics": {}}
        for name in names:
            for seed in (args.seed, HELD_OUT_SEED):
                for trace in (False, True):
                    result, lines = measure(name, seed, args.seconds,
                                            trace, spec)
                    print("\n".join(lines))
                    for metric, value in result["metrics"].items():
                        print(f"  {name} seed={seed} {metric} = "
                              f"{value['value']:.6g} {value['unit']}")
                        if seed == args.seed:
                            summary["metrics"][f"{name}/{metric}"] = value
                    summary["correct"] &= result["correct"]
                    summary["attempted"] += result["attempted"]
                    summary["failed"] += result["failed"]
        print(json.dumps(summary))
        return 0
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        # Each worker removes its own temp directory; only a worker
        # killed on timeout leaves one behind.
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
