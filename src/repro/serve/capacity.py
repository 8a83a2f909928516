"""Capacity planning: smallest fleet meeting a latency/throughput SLO.

The serving study replays traces on a *given* fleet; a fleet operator
asks the inverse question — "how many clusters do I need so that T
jobs/s complete with a p99 queueing wait under X seconds, with every
tenant held to its (epsilon, delta) budget?".  :func:`plan_capacity`
answers it by driving the array-backed fleet simulator
(:func:`~repro.serve.scheduler.simulate_fleet_streaming`) over a
bracketing search: geometric doubling until a fleet is feasible, then
bisection down to the smallest one that still is.

Two structural facts keep the search cheap and correct:

* Admission is fleet-independent (budgets are priced at arrival), so
  one batched admission pass is shared by every probe.
* Queueing waits are monotone non-increasing in cluster count for a
  work-conserving fleet over a fixed admitted workload, so feasibility
  is monotone in ``n_clusters`` and bisection applies.

Each probe's outcome is memoized; the returned plan carries the full
probe log and the verification report of the chosen fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments import runner
from repro.serve.budget import (
    AdmissionController,
    BatchAdmissionDecisions,
    TenantBudget,
)
from repro.serve.job import TraceArrays
from repro.serve.metrics import FleetReport
from repro.serve.scheduler import FleetConfig, simulate_fleet_streaming


@dataclass(frozen=True)
class CapacityProbe:
    """One fleet size tried during the search."""

    clusters: int
    p99_wait_s: float
    jobs_per_s: float
    feasible: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "clusters": self.clusters,
            "p99_wait_s": self.p99_wait_s,
            "jobs_per_s": self.jobs_per_s,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of :func:`plan_capacity`.

    ``clusters`` / ``chips`` describe the smallest feasible fleet when
    ``feasible`` is True; otherwise they describe ``max_clusters``,
    whose verification ``report`` shows how far short it falls.
    """

    clusters: int
    chips: int
    feasible: bool
    max_p99_wait_s: float
    target_jobs_per_s: float | None
    report: FleetReport
    probes: tuple[CapacityProbe, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "clusters": self.clusters,
            "chips": self.chips,
            "feasible": self.feasible,
            "max_p99_wait_s": self.max_p99_wait_s,
            "target_jobs_per_s": self.target_jobs_per_s,
            "report": self.report.to_dict(),
            "probes": [probe.to_dict() for probe in self.probes],
        }


def plan_capacity(
    trace: TraceArrays,
    *,
    max_p99_wait_s: float,
    target_jobs_per_s: float | None = None,
    chips_per_cluster: int = 1,
    kind: str = "diva",
    topology: str = "ring",
    chips_per_node: int = 1,
    bucket_bytes: int | None = None,
    overlap: bool = True,
    policy: str = "fifo",
    budget: TenantBudget | None = None,
    max_clusters: int = 4096,
    cache: "runner.ResultCache | None" = None,
) -> CapacityPlan:
    """Smallest fleet serving ``trace`` within the SLO.

    A fleet of ``n`` clusters is *feasible* when its simulated p99
    queueing wait is at most ``max_p99_wait_s`` and (if
    ``target_jobs_per_s`` is given) completed jobs per second of
    makespan reach the target.  The search doubles ``n`` until
    feasible, then bisects; when even ``max_clusters`` fails, the plan
    comes back ``feasible=False`` with that fleet's report attached.

    All probes share one admission pass over ``trace`` (admission is
    fleet-independent), and per-tenant budgets are enforced by the
    same :class:`~repro.serve.budget.AdmissionController` the serving
    experiment uses.
    """
    if max_p99_wait_s <= 0:
        raise ValueError(
            f"max_p99_wait_s must be positive, got {max_p99_wait_s}")
    if target_jobs_per_s is not None and target_jobs_per_s <= 0:
        raise ValueError(
            f"target_jobs_per_s must be positive, got {target_jobs_per_s}")
    if max_clusters < 1:
        raise ValueError(
            f"max_clusters must be >= 1, got {max_clusters}")

    admission = AdmissionController(budget)
    decisions: BatchAdmissionDecisions = admission.admit_batch(trace)
    probes: dict[int, CapacityProbe] = {}
    reports: dict[int, FleetReport] = {}

    def probe(clusters: int) -> CapacityProbe:
        if clusters in probes:
            return probes[clusters]
        fleet = FleetConfig(
            chips=clusters * chips_per_cluster,
            chips_per_cluster=chips_per_cluster, kind=kind,
            topology=topology, chips_per_node=chips_per_node,
            bucket_bytes=bucket_bytes, overlap=overlap)
        report = simulate_fleet_streaming(
            trace, fleet, policy=policy, admission=admission,
            decisions=decisions, cache=cache)
        jobs_per_s = report.throughput_jobs_per_h / 3600.0
        feasible = report.wait_p99_s <= max_p99_wait_s and (
            target_jobs_per_s is None or jobs_per_s >= target_jobs_per_s)
        result = CapacityProbe(clusters=clusters,
                               p99_wait_s=report.wait_p99_s,
                               jobs_per_s=jobs_per_s, feasible=feasible)
        probes[clusters] = result
        reports[clusters] = report
        return result

    # Bracket: double until feasible (or the ceiling says no).
    hi = 1
    while not probe(hi).feasible and hi < max_clusters:
        hi = min(hi * 2, max_clusters)
    if not probes[hi].feasible:
        ordered = tuple(probes[n] for n in sorted(probes))
        return CapacityPlan(
            clusters=hi, chips=hi * chips_per_cluster, feasible=False,
            max_p99_wait_s=max_p99_wait_s,
            target_jobs_per_s=target_jobs_per_s,
            report=reports[hi], probes=ordered)

    # Bisect (lo infeasible, hi feasible) down to the boundary.
    lo = max(n for n in probes if n < hi and not probes[n].feasible) \
        if any(n < hi and not probes[n].feasible for n in probes) else 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid).feasible:
            hi = mid
        else:
            lo = mid
    ordered = tuple(probes[n] for n in sorted(probes))
    return CapacityPlan(
        clusters=hi, chips=hi * chips_per_cluster, feasible=True,
        max_p99_wait_s=max_p99_wait_s,
        target_jobs_per_s=target_jobs_per_s,
        report=reports[hi], probes=ordered)
