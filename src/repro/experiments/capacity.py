"""Beyond the paper: capacity planning for the serving fleet.

Answers the operator's inverse question — "what is the smallest fleet
that serves this trace within a p99 queueing-wait SLO (and optionally
a throughput floor)?" — by running
:func:`repro.serve.plan_capacity`'s doubling-plus-bisection search
over the array-backed fleet simulator, then re-verifying the
chosen fleet.  The probe log is part of the result, so the rendered
table shows the whole search trajectory, not just the answer.

Run it from the CLI::

    python -m repro capacity --max-p99-wait 120 --trace-jobs 20000
    python -m repro capacity --target-jobs-per-s 0.5 --trace-shape bursty
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.report import format_table

#: Defaults sized so the search spans a few doublings on the demo mix.
DEFAULT_MAX_P99_WAIT_S = 120.0
DEFAULT_TRACE_JOBS = 20_000
DEFAULT_MEAN_INTERARRIVAL_S = 1.0


def run(
    trace_jobs: int = DEFAULT_TRACE_JOBS,
    seed: int = 7,
    trace_shape: str = "poisson",
    mean_interarrival_s: float = DEFAULT_MEAN_INTERARRIVAL_S,
    max_p99_wait_s: float = DEFAULT_MAX_P99_WAIT_S,
    target_jobs_per_s: float | None = None,
    chips_per_cluster: int = 1,
    topology: str = "ring",
    chips_per_node: int = 1,
    bucket_bytes: int | None = None,
    overlap: bool = True,
    policy: str = "fifo",
    epsilon_budget: float | None = None,
    delta: float = 1e-5,
    max_clusters: int = 4096,
    cache: "runner.ResultCache | None" = None,
) -> dict:
    """One capacity plan (as a JSON-ready dict) for the given SLO."""
    from repro.serve import TenantBudget, TraceConfig, generate_trace_arrays
    from repro.serve.capacity import plan_capacity

    config = TraceConfig(jobs=trace_jobs, seed=seed, shape=trace_shape,
                         mean_interarrival_s=mean_interarrival_s)
    trace = generate_trace_arrays(config)
    budget = (TenantBudget(epsilon=epsilon_budget, delta=delta)
              if epsilon_budget is not None else None)
    plan = plan_capacity(
        trace,
        max_p99_wait_s=max_p99_wait_s,
        target_jobs_per_s=target_jobs_per_s,
        chips_per_cluster=chips_per_cluster,
        topology=topology, chips_per_node=chips_per_node,
        bucket_bytes=bucket_bytes, overlap=overlap,
        policy=policy, budget=budget, max_clusters=max_clusters,
        cache=cache)
    result = plan.to_dict()
    result["trace_jobs"] = trace_jobs
    result["trace_shape"] = trace_shape
    result["policy"] = policy
    return result


def render(result: dict | None = None) -> str:
    """Probe-trajectory table plus the chosen fleet's verification."""
    result = result if result is not None else run()
    probe_table = format_table(
        ["Clusters", "p99 wait s", "Jobs/s", "Feasible"],
        [[probe["clusters"], probe["p99_wait_s"], probe["jobs_per_s"],
          "yes" if probe["feasible"] else "no"]
         for probe in result["probes"]],
        title=(f"Capacity search: {result['trace_jobs']} "
               f"{result['trace_shape']} jobs, policy "
               f"{result['policy']}, SLO p99 <= "
               f"{result['max_p99_wait_s']:g} s"))
    verdict = (f"Plan: {result['clusters']} clusters "
               f"({result['chips']} chips) "
               + ("meet" if result["feasible"] else "DO NOT meet")
               + f" the SLO; verified p99 wait "
               f"{result['report']['wait_p99_s']:.1f} s at "
               f"{result['report']['throughput_jobs_per_h'] / 3600.0:.3f} "
               f"jobs/s")
    return probe_table + "\n\n" + verdict


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())
