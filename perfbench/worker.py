"""One measured pass of one benchmark workload, in a fresh process.

``run.py`` starts this file once per pass so that every pass gets its
own cold caches and its own peak resident memory.  It prints one JSON
line on standard output:

- ``setup_s``: imports, config construction and the temp directory,
  timed from the first import of NumPy / ``repro`` (interpreter start
  excluded);
- ``wall_s`` and ``items``: the timed scope, from the first public call
  to the last report or file written, and the work it did (trace jobs x
  policies for a serve workload, design points priced for
  ``design-sweep``);
- ``ref_s``: mean wall seconds of the reference kernel, timed in this
  process just before and just after the timed scope (once, after
  set-up, with ``--setup-only``); ``run.py`` divides the host's speed
  out of ``setup_s`` and ``wall_s`` with it;
- ``peak_rss_mb``: this process's peak resident memory;
- ``digest``: SHA-256 of the exact simulated outputs;
- ``attempted`` / ``failed`` / ``problems``: the output checks;
- with ``--traced``, ``layers``: per-layer metrics from the spans this
  file records around each call into a layer.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload serve-budget-bound --seed 1 [--traced]
    python3 perfbench/worker.py --workload design-sweep --seed 1 --setup-only
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

#: Scratch space for caches and exported files, inside the checkout.
TMP_ROOT = Path(".perfbench_tmp")

EPSILON_BUDGET = 3.0
# Trace sizes keep one pass to a few seconds on a 2-core host, so that a
# run takes the median of several passes (see README.md).
SERVE = {
    # The 1M-job shape at 150k jobs: 80% of arrivals are refused.
    "serve-budget-bound": dict(trace_jobs=150_000,
                               mean_interarrival_s=0.5,
                               epsilon_budget=EPSILON_BUDGET),
    # Fault injection: the faulty event loop, re-admission per policy.
    "serve-faulty": dict(trace_jobs=60_000, mean_interarrival_s=0.5,
                         epsilon_budget=EPSILON_BUDGET, mtbf_hours=0.25,
                         straggler_rate=0.05),
    # Chrome trace + per-policy metrics written to the temp directory.
    "serve-traced": dict(trace_jobs=20_000, mean_interarrival_s=0.5,
                         epsilon_budget=EPSILON_BUDGET, observe=True),
}
SERVE_CHIPS = 16
DELTA = 1e-5
MAX_RETRIES = 3

#: design-sweep grid: every zoo model x SIDES x SIDES array geometries.
DESIGN_SIDES = (32, 64, 96, 128, 192, 256)
#: 3D scaling grid: every zoo model x both DP algorithms x chip counts
#: x these (pp, tp) factorizations.
SCALING_CHIPS = (4, 8, 16)
SCALING_PLANS = ((1, 1), (2, 1), (1, 2), (2, 2))
#: Design points re-priced by the scalar simulator as the oracle.
ORACLE_SAMPLE = 8

WORKLOADS = tuple(SERVE) + ("design-sweep",)


class Tracer:
    """Spans recorded around calls into the program's layers.

    Each span is ``(name, start, end, parent index)``; spans stay in
    memory and are summed per name at the end of the pass.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), math.nan, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            start = self.spans[index][1]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)


class Checks:
    """Output checks; each failed check is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Heap and dict operations of the reference kernel: about 0.1 s on a
#: quiet host.
REF_OPS = 100_000


def reference_seconds() -> float:
    """Wall seconds of a fixed interpreted kernel, the same in every pass
    and seed, that calls no program code.

    It runs in the pass's own process, so it sees the speed the shared
    host gives that process at that moment.  The cyclic GC is off while
    it runs, so the program's live objects do not add to its time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        for i in range(REF_OPS):
            key = (i * 2654435761) & 65535
            counts[key] = counts.get(key, 0) + 1
            heapq.heappush(heap, (key, i))
            if len(heap) > 512:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


def file_sha256(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


# -- serve workloads ----------------------------------------------------------

def serve_setup(name: str, seed: int, tmp: Path) -> dict:
    import repro.obs  # noqa: F401  (part of the serve stack's import cost)
    import repro.serve  # noqa: F401
    from repro.experiments import serve

    spec = dict(SERVE[name])
    observe = spec.pop("observe", False)
    kwargs = dict(spec, seed=seed, chips=SERVE_CHIPS, delta=DELTA,
                  max_retries=MAX_RETRIES)
    if observe:
        kwargs.update(trace_path=str(tmp / "fleet_trace.json"),
                      metrics_dir=str(tmp / "metrics"))
    return {"run": serve.run, "kwargs": kwargs}


def serve_untraced(ctx: dict) -> tuple[float, list[dict]]:
    start = time.perf_counter()
    rows = ctx["run"](**ctx["kwargs"])
    return time.perf_counter() - start, rows


def serve_traced(ctx: dict, tracer: Tracer) -> tuple[float, list[dict], dict]:
    """The work of ``serve.run``, one span per call into a layer."""
    from repro.obs import FleetObs, MetricsRegistry, TraceRecorder
    from repro.serve import (AdmissionController, FaultConfig, FaultModel,
                             FleetConfig, TenantBudget, TraceConfig,
                             generate_trace_arrays, simulate_fleet_streaming)
    from repro.serve.scheduler import POLICIES
    from repro.training import CheckpointConfig

    kw = ctx["kwargs"]
    budget = TenantBudget(epsilon=kw["epsilon_budget"], delta=kw["delta"])
    faults = None
    if kw.get("mtbf_hours") is not None:
        faults = FaultModel(FaultConfig(
            mtbf_hours=kw["mtbf_hours"],
            straggler_rate=kw.get("straggler_rate", 0.0),
            max_retries=kw["max_retries"],
            checkpoint=CheckpointConfig(interval_steps=None),
            seed=kw["seed"]))
    trace_path = kw.get("trace_path")
    metrics_dir = kw.get("metrics_dir")
    recorder = TraceRecorder() if trace_path else None
    registries = {}
    fleet = FleetConfig(chips=kw["chips"])
    rows = []
    start = time.perf_counter()
    with tracer.span("serve.job.generate"):
        trace = generate_trace_arrays(TraceConfig(
            jobs=kw["trace_jobs"], seed=kw["seed"],
            mean_interarrival_s=kw["mean_interarrival_s"]))
    admission = AdmissionController(budget)
    with tracer.span("serve.budget.admit"):
        decisions = admission.admit_batch(trace)
    admitted_share = float(decisions.admitted.mean())
    for policy in POLICIES:
        if faults is not None:
            admission = AdmissionController(budget)
            with tracer.span("serve.budget.admit"):
                decisions = admission.admit_batch(trace)
        obs = None
        if recorder is not None or metrics_dir is not None:
            metrics = None
            if metrics_dir is not None:
                metrics = registries[policy] = MetricsRegistry()
            obs = FleetObs(recorder=recorder, metrics=metrics)
        with tracer.span(f"serve.scheduler.simulate.{policy}"):
            report = simulate_fleet_streaming(
                trace, fleet, policy=policy, admission=admission,
                decisions=decisions, faults=faults, obs=obs)
        if obs is not None:
            with tracer.span("obs.export"):
                obs.export()
        rows.append(report.to_dict())
    if recorder is not None or registries:
        with tracer.span("obs.write"):
            if recorder is not None:
                recorder.write(trace_path)
            if metrics_dir is not None:
                out = Path(metrics_dir)
                out.mkdir(parents=True, exist_ok=True)
                for policy, registry in registries.items():
                    registry.write(out / f"metrics_{policy}.json")
    wall = time.perf_counter() - start

    simulate_s = sum(tracer.total(f"serve.scheduler.simulate.{p}")
                     for p in POLICIES)
    faults_rows = [row.get("faults", {}) for row in rows]
    retries = sum(f.get("retries", 0) for f in faults_rows)
    failed = sum(f.get("failed", 0) for f in faults_rows)
    dispatches = sum(row["completed"] for row in rows) + failed + retries
    layers = {
        "serve.job.generate_s": tracer.total("serve.job.generate"),
        "serve.budget.admit_s": tracer.total("serve.budget.admit"),
        "serve.budget.admitted_share": admitted_share,
        "serve.budget.truncated": rows[0]["truncated"],
        "serve.scheduler.simulate_s": simulate_s,
        "serve.scheduler.dispatches_per_s": dispatches / simulate_s,
        "serve.scheduler.arrivals_per_s":
            sum(row["submitted"] for row in rows) / simulate_s,
    }
    for policy in POLICIES:
        layers[f"serve.scheduler.simulate_s.{policy}"] = \
            tracer.total(f"serve.scheduler.simulate.{policy}")
    if faults is not None:
        layers.update({
            "serve.faults.retries": retries,
            "serve.faults.failed": failed,
            "serve.faults.goodput":
                sum(f["goodput"] for f in faults_rows) / len(rows),
        })
    if recorder is not None:
        export_s = tracer.total("obs.export")
        write_s = tracer.total("obs.write")
        layers.update({
            "obs.export_s": export_s,
            "obs.write_s": write_s,
            "obs.trace_events": len(recorder),
            "obs.trace_mb": Path(trace_path).stat().st_size / 1e6,
            "obs.events_per_s": len(recorder) / (export_s + write_s),
        })
    return wall, rows, layers


def serve_check(ctx: dict, rows: list[dict], checks: Checks) -> str:
    """Check every report; return the digest of the simulated outputs.

    The P-square wait-quantile estimates are left out of the digest (only
    their ordering is checked), so a new estimator keeps the digest.
    """
    from repro.serve.scheduler import POLICIES

    kw = ctx["kwargs"]
    checks.check([row["policy"] for row in rows] == list(POLICIES),
                  "one report per policy")
    exact = []
    for row in rows:
        policy = row["policy"]
        failed = row.get("faults", {}).get("failed", 0)
        checks.check(row["submitted"] == kw["trace_jobs"],
                     f"{policy}: every trace job submitted")
        checks.check(
            row["completed"] + failed + row["rejected"] == row["submitted"],
            f"{policy}: completed + failed + rejected == submitted")
        checks.check(0.0 <= row["utilization"] <= 1.0,
                     f"{policy}: 0 <= utilization <= 1")
        checks.check(row["wait_p50_s"] <= row["wait_p95_s"]
                     <= row["wait_p99_s"], f"{policy}: p50 <= p95 <= p99")
        for tenant in row["tenants"]:
            checks.check(
                tenant["epsilon_spent"] <= tenant["budget_epsilon"],
                f"{policy}: {tenant['tenant']} epsilon within budget")
        exact.append({key: value for key, value in row.items()
                      if not key.startswith("wait_p")})
    outputs = {"reports": exact}
    trace_path = kw.get("trace_path")
    if trace_path:
        path = Path(trace_path)
        checks.check(path.is_file() and path.stat().st_size > 0,
                     "trace file written")
        outputs["trace_sha256"] = (file_sha256(path) if path.is_file()
                                   else None)
        for policy in POLICIES:
            checks.check(
                (Path(kw["metrics_dir"]) / f"metrics_{policy}.json")
                .is_file(), f"metrics_{policy}.json written")
    return digest(outputs)


# -- design-sweep -------------------------------------------------------------

FIGURES = ("fig05_breakdown", "fig13_speedup", "fig15_flops",
           "fig16_energy", "fig17_gpu", "sensitivity")


def sweep_setup(name: str, seed: int, tmp: Path) -> dict:
    import importlib

    from repro.experiments import design_space, runner, scaling
    from repro.workloads import MODEL_NAMES

    figures = [importlib.import_module(f"repro.experiments.{fig}")
               for fig in FIGURES]
    return {
        "design_space": design_space, "scaling": scaling, "runner": runner,
        "figures": figures, "models": tuple(MODEL_NAMES),
        "cache": runner.ResultCache(tmp / "cache"),
        "seed": seed,
    }


def sweep(ctx: dict, tracer: Tracer | None) -> dict:
    """The untraced work; with a tracer, one span per public call."""
    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    runner = ctx["runner"]
    design = dict(models=ctx["models"], heights=DESIGN_SIDES,
                  widths=DESIGN_SIDES, cache=ctx["cache"])
    out = {"cold_stats": runner.CacheStats(),
           "warm_stats": runner.CacheStats()}
    start = time.perf_counter()
    with span("runner.cache_cold"):
        out["design_rows"] = ctx["design_space"].run(
            stats=out["cold_stats"], **design)
    out["scaling_rows"] = []
    with span("experiments.scaling"):
        for pp, tp in SCALING_PLANS:
            out["scaling_rows"] += ctx["scaling"].run(
                models=ctx["models"], chips=SCALING_CHIPS, pp=pp, tp=tp)
    with span("experiments.figures"):
        out["figures"] = [fig.render() for fig in ctx["figures"]]
    with span("runner.cache_warm"):
        out["warm_rows"] = ctx["design_space"].run(
            stats=out["warm_stats"], **design)
    out["wall_s"] = time.perf_counter() - start
    out["items"] = len(out["design_rows"]) + len(out["scaling_rows"])
    return out


def sweep_traced(ctx: dict, tracer: Tracer,
                 checks: Checks) -> tuple[dict, dict]:
    """The untraced work with spans, then each analytic layer in turn.

    The layer probes re-price the same grids directly through
    ``repro.workloads``, ``repro.training`` and ``repro.arch``; they run
    after the timed scope and their answers must match the sweep rows.
    """
    import numpy as np

    from repro.arch.engine import ArrayConfig, clear_gemm_stats_cache
    from repro.arch.batch import gemm_stats_batch
    from repro.core import build_accelerator
    from repro.core.config import DivaConfig
    from repro.core.ppu import PpuConfig
    from repro.training import Algorithm, max_batch_size
    from repro.training.batch import sharded_step_batch, training_step_batch
    from repro.training.simulate import step_gemm_ops
    from repro.workloads import build_model
    from repro.workloads.gemms import Gemm

    out = sweep(ctx, tracer)

    with tracer.span("workloads.build"):
        networks = {name: build_model(name) for name in ctx["models"]}
    batches = {name: max_batch_size(net, Algorithm.DP_SGD)
               for name, net in networks.items()}
    # The same WS / DiVa pair per geometry as design_space prices.
    accelerators = {}
    for height in DESIGN_SIDES:
        for width in DESIGN_SIDES:
            array = ArrayConfig(height=height, width=width)
            config = DivaConfig(array=array, ppu=PpuConfig(
                num_trees=array.drain_rows_per_cycle,
                tree_width=max(width, 2)))
            for kind in ("ws", "diva"):
                accelerators[kind, height, width] = build_accelerator(
                    kind, with_ppu=kind == "diva", config=config)
    specs = [(accelerators[kind, height, width], networks[name],
              Algorithm.DP_SGD_R, batches[name])
             for name in ctx["models"] for height in DESIGN_SIDES
             for width in DESIGN_SIDES for kind in ("ws", "diva")]
    shapes: dict[int, tuple[object, set]] = {}
    n_ops = 0
    with tracer.span("training.step_gemm_ops"):
        for accel, network, algorithm, batch in specs:
            ops = step_gemm_ops(network, algorithm, accel, batch)
            n_ops += len(ops)
            _, seen = shapes.setdefault(id(accel), (accel, set()))
            seen.update((op.gemm.m, op.gemm.k, op.gemm.n) for op in ops)
    unique = {key: (accel, np.array(sorted(seen), dtype=np.int64))
              for key, (accel, seen) in shapes.items()}
    batched = {}
    with tracer.span("arch.gemm_stats_batch"):
        for key, (accel, dims) in unique.items():
            batched[key] = gemm_stats_batch(
                accel.engine, dims[:, 0], dims[:, 1], dims[:, 2], 1)
    clear_gemm_stats_cache()
    scalar = {}
    with tracer.span("arch.gemm_stats"):
        for key, (accel, dims) in unique.items():
            scalar[key] = [accel.engine.gemm_stats(Gemm(int(m), int(k), int(n)))
                           for m, k, n in dims]
    for key in unique:
        checks.check(
            [s.compute_cycles for s in scalar[key]]
            == batched[key].compute_cycles.tolist(),
            "scalar gemm_stats == gemm_stats_batch")
    with tracer.span("training.step_batch"):
        seconds = training_step_batch(specs).total_seconds
    priced = [(float(seconds[2 * i]) * 1e3, float(seconds[2 * i + 1]) * 1e3)
              for i in range(len(specs) // 2)]
    checks.check(priced == [(row["ws_ms"], row["diva_ms"])
                            for row in out["design_rows"]],
                 "training_step_batch == design-space rows")

    scaling = ctx["scaling"]
    grid = [(model, algorithm, n, pp, tp)
            for pp, tp in SCALING_PLANS for model in ctx["models"]
            for algorithm in ("DP-SGD", "DP-SGD(R)") for n in SCALING_CHIPS]
    global_batch = {model: scaling.default_global_batch(model, SCALING_CHIPS)
                    for model in ctx["models"]}
    models, algorithms, chips, pps, tps = map(list, zip(*grid))
    with tracer.span("training.sharded_step_batch"):
        sharded = sharded_step_batch(
            models, algorithms, [global_batch[m] for m in models], chips,
            pps=pps, tps=tps)
    checks.check(
        [float(s) * 1e3 for s in sharded.total_seconds]
        == [row["step_ms"] for row in out["scaling_rows"]],
        "sharded_step_batch == scaling rows")

    warm = out["warm_stats"]
    layers = {
        "workloads.build_s": tracer.total("workloads.build"),
        "training.step_gemm_ops_s": tracer.total("training.step_gemm_ops"),
        "training.gemm_ops": n_ops,
        "arch.gemm_stats_batch_s": tracer.total("arch.gemm_stats_batch"),
        "arch.unique_shapes": sum(len(d) for _, d in unique.values()),
        "arch.gemm_stats_s": tracer.total("arch.gemm_stats"),
        "training.step_batch_s": tracer.total("training.step_batch"),
        "training.sharded_step_batch_s":
            tracer.total("training.sharded_step_batch"),
        "training.grid_points": len(specs) + len(grid),
        "experiments.scaling_s": tracer.total("experiments.scaling"),
        "experiments.figures_s": tracer.total("experiments.figures"),
        "runner.cache_cold_s": tracer.total("runner.cache_cold"),
        "runner.cache_warm_s": tracer.total("runner.cache_warm"),
        "runner.cache_hit_share": warm.hits / warm.lookups,
    }
    return out, layers


def sweep_check(ctx: dict, out: dict, checks: Checks) -> str:
    """Check the sweep; return the digest of its rows and figures."""
    design_rows = out["design_rows"]
    n_design = len(ctx["models"]) * len(DESIGN_SIDES) ** 2
    n_scaling = (len(ctx["models"]) * 2 * len(SCALING_CHIPS)
                 * len(SCALING_PLANS))
    checks.check(len(design_rows) == n_design, "one row per design point")
    checks.check(len(out["scaling_rows"]) == n_scaling,
                 "one row per scaling point")
    checks.check(all(math.isfinite(row["speedup"]) and row["speedup"] > 0
                     for row in design_rows), "design speedups positive")
    checks.check(all(math.isfinite(row["step_ms"]) and row["step_ms"] > 0
                     for row in out["scaling_rows"]),
                 "scaling step times positive")
    cold, warm = out["cold_stats"], out["warm_stats"]
    checks.check(cold.misses == n_design and cold.hits == 0,
                 "cold cache misses every point")
    checks.check(warm.hits == n_design and warm.lookups == n_design,
                 "warm cache hits every point")
    checks.check(out["warm_rows"] == design_rows,
                 "warm rows == cold rows")
    for name, text in zip(FIGURES, out["figures"]):
        checks.check(bool(text.strip()), f"{name} rendered")
    # The scalar simulator (simulate_training_step, the CLI `simulate`
    # path) must price a seeded sample of points exactly as the batch.
    sample = random.Random(ctx["seed"]).sample(design_rows, ORACLE_SAMPLE)
    for row in sample:
        oracle = ctx["design_space"].evaluate_point(
            row["model"], row["height"], row["width"])
        where = f'{row["model"]} {row["height"]}x{row["width"]}'
        checks.check(oracle["ws_ms"] == row["ws_ms"],
                     f"{where}: WS batch == scalar")
        checks.check(oracle["diva_ms"] == row["diva_ms"],
                     f"{where}: DiVa batch == scalar")
    return digest({"design": design_rows, "scaling": out["scaling_rows"],
                   "figures": out["figures"]})


# -- entry point --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        serve = args.workload in SERVE
        setup = serve_setup if serve else sweep_setup
        ctx = setup(args.workload, args.seed, tmp)
        result = {"setup_s": time.perf_counter() - _T0}
        result["ref_s"] = reference_seconds()
        if not args.setup_only:
            checks = Checks()
            layers = {}
            if serve:
                if args.traced:
                    wall, rows, layers = serve_traced(ctx, Tracer())
                else:
                    wall, rows = serve_untraced(ctx)
                result["ref_s"] = (result["ref_s"] + reference_seconds()) / 2
                items = len(rows) * ctx["kwargs"]["trace_jobs"]
                result["digest"] = serve_check(ctx, rows, checks)
            else:
                if args.traced:
                    out, layers = sweep_traced(ctx, Tracer(), checks)
                else:
                    out = sweep(ctx, None)
                result["ref_s"] = (result["ref_s"] + reference_seconds()) / 2
                wall, items = out["wall_s"], out["items"]
                result["digest"] = sweep_check(ctx, out, checks)
            result.update(
                wall_s=wall, items=items, layers=layers,
                attempted=checks.attempted, failed=len(checks.problems),
                problems=checks.problems)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
