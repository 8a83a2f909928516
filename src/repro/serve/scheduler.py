"""Discrete-event fleet scheduler for multi-tenant DP training.

:func:`simulate_fleet_streaming` replays an array trace
(:class:`~repro.serve.job.TraceArrays`) against a pool of identical
:class:`~repro.arch.cluster.Cluster`\\ s:

1. **Admission** — one batched pass prices every job against its
   tenant's ``(epsilon, delta)`` budget (reject / truncate / admit)
   in arrival order, exactly as a per-arrival controller would.
2. **Dispatch** — whenever a cluster is idle and jobs are queued, the
   scheduling policy picks the next job.  Service time is
   ``granted_steps x step latency``, where the step latency comes from
   one batched closed-form evaluation over the trace's unique
   (model, algorithm, batch) configurations, optionally persisted
   through :func:`repro.experiments.runner.cached_batch`.
3. **Completion** — the cluster frees and the dispatch loop runs again.

Scheduling policies (:data:`POLICIES`):

``fifo``
    Arrival order.
``sjf``
    Shortest predicted (remaining) service time first (the closed-form
    engine makes the prediction exact, so this is true SJF, not an
    estimate).
``budget``
    Tenants with the largest *remaining* budget fraction first — an
    incentive policy: tenants who have nearly exhausted their epsilon
    wait behind those still holding budget.

All ties break on ``(arrival, job_id)``, so a simulation is fully
deterministic given a trace and a policy.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.arch.interconnect import InterconnectConfig
from repro.experiments import runner
from repro.serve.autoscale import AutoscalerPolicy, AutoscalerState
from repro.serve.budget import AdmissionController, BatchAdmissionDecisions
from repro.serve.faults import FaultModel, FaultRun
from repro.serve.job import TraceArrays, lex_unique
from repro.serve.metrics import FleetReport, build_streaming_report
from repro.serve.stream import StreamingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fleet import FleetObs

#: Scheduling policies simulate_fleet_streaming understands.
POLICIES = ("fifo", "sjf", "budget")


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the serving fleet.

    ``chips`` total accelerators, grouped into
    ``chips / chips_per_cluster`` identical clusters; each job occupies
    one whole cluster for its lifetime (DP-SGD steps are synchronous,
    so fractional clusters would serialize anyway).  ``pp`` / ``tp``
    carve pipeline/tensor parallelism out of each cluster (jobs
    data-parallelize across the remaining ``dp`` factor) and
    ``fabric`` names a heterogeneous link preset.  ``chips_per_node``,
    ``bucket_bytes`` and ``overlap`` configure the overlap-aware
    intra-cluster communication model
    (:mod:`repro.arch.interconnect`); service-time predictions pick
    them up transparently through the memoized sharded step.
    """

    chips: int = 4
    chips_per_cluster: int = 1
    kind: str = "diva"
    topology: str = "ring"
    chips_per_node: int = 1
    bucket_bytes: int | None = None
    overlap: bool = True
    pp: int = 1
    tp: int = 1
    fabric: str | None = None

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ValueError(f"chips must be >= 1, got {self.chips}")
        if self.chips_per_cluster < 1:
            raise ValueError(
                f"chips_per_cluster must be >= 1, got "
                f"{self.chips_per_cluster}")
        if self.chips % self.chips_per_cluster:
            raise ValueError(
                f"{self.chips} chips do not group into clusters of "
                f"{self.chips_per_cluster}")
        if self.pp < 1 or self.tp < 1:
            raise ValueError(
                f"pp and tp must be >= 1, got pp={self.pp} tp={self.tp}")
        if self.chips_per_cluster % (self.pp * self.tp):
            raise ValueError(
                f"{self.chips_per_cluster} chips per cluster do not "
                f"factor into pp={self.pp} x tp={self.tp} stages")
        if self.fabric is not None:
            from repro.arch.interconnect import fabric_named

            fabric_named(self.fabric)  # validate the preset name
        # The fabric knobs (topology, bucket_bytes, chips_per_node)
        # validate themselves; only cluster divisibility is ours.
        InterconnectConfig(topology=self.topology,
                           bucket_bytes=self.bucket_bytes,
                           chips_per_node=self.chips_per_node)
        if self.topology == "hierarchical" and self.dp > 1 \
                and self.dp % self.chips_per_node:
            # Single-replica clusters are exempt: no DP collectives.
            raise ValueError(
                f"{self.dp} data-parallel chips per cluster do not "
                f"group into hierarchical nodes of {self.chips_per_node}")

    @property
    def n_clusters(self) -> int:
        return self.chips // self.chips_per_cluster

    @property
    def dp(self) -> int:
        """Data-parallel replicas per cluster (batch-rounding width)."""
        return self.chips_per_cluster // (self.pp * self.tp)


def _price_configs(fleet: FleetConfig,
                   work: Sequence[tuple[str, str, int]]) -> list[float]:
    """One :func:`repro.training.sharded_step_batch` call over ``work``."""
    from repro.training.batch import sharded_step_batch

    if not work:
        return []
    models, algorithms, batches = zip(*work)
    result = sharded_step_batch(
        list(models), list(algorithms),
        np.array(batches, dtype=np.int64),
        fleet.chips_per_cluster,
        topologies=fleet.topology,
        bucket_bytes=fleet.bucket_bytes,
        chips_per_node=(fleet.chips_per_node
                        if fleet.topology == "hierarchical" else 1),
        overlaps=fleet.overlap, kinds=fleet.kind,
        pps=fleet.pp, tps=fleet.tp, fabrics=fleet.fabric)
    return [float(value) for value in result.total_seconds]


@functools.lru_cache(maxsize=64)
def _memo_step_seconds(fleet: FleetConfig,
                       work: tuple[tuple[str, str, int], ...]
                       ) -> tuple[float, ...]:
    """In-process memo of :func:`_price_configs` (uncached callers)."""
    return tuple(_price_configs(fleet, work))


def predict_step_seconds_batch(
    fleet: FleetConfig,
    models: Sequence[str],
    algorithms: Sequence[str],
    batches: Sequence[int],
    cache: "runner.ResultCache | None" = None,
) -> NDArray[Any]:
    """Step latencies for many (model, algorithm, batch) configs at once.

    One :func:`repro.training.sharded_step_batch` call prices every
    cache-missing config (``batches`` must already be rounded to the
    cluster width); hits come from the experiment runner's JSON cache.
    Without a cache (neither ``cache`` nor ``REPRO_CACHE_DIR``), a
    bounded in-process memo keyed by the fleet and the config tuple
    answers repeats, e.g. every policy of one trace.
    The batched engine is pinned bitwise-equal to the scalar
    :func:`repro.training.simulate_sharded_training_step`.
    """
    work = tuple((str(model), str(algorithm), int(batch))
                 for model, algorithm, batch
                 in zip(models, algorithms, batches))
    if cache is None:
        cache = runner.default_cache()
    if cache is None:
        return np.array(_memo_step_seconds(fleet, work), dtype=float)
    seconds = runner.cached_batch(
        lambda missing: _price_configs(fleet, missing), list(work),
        cache=cache,
        key_fn=lambda item: {
            "experiment": "serve-step", "kind": fleet.kind,
            "chips_per_cluster": fleet.chips_per_cluster,
            "topology": fleet.topology,
            "chips_per_node": fleet.chips_per_node,
            "bucket_bytes": fleet.bucket_bytes,
            "overlap": fleet.overlap, "model": item[0],
            "algorithm": item[1], "batch": int(item[2]),
            "pp": fleet.pp, "tp": fleet.tp, "fabric": fleet.fabric})
    return np.array(seconds, dtype=float)


def _job_step_table(
    trace: TraceArrays,
    fleet: FleetConfig,
    cache: "runner.ResultCache | None" = None,
) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """``(unique configs, inverse, step table)`` over the trace.

    One batched evaluation prices every unique
    (model, algorithm, rounded-batch) configuration; ``table[inverse]``
    is the per-job base step latency.
    """
    width = fleet.dp
    rounded = np.ceil(trace.batch / width).astype(np.int64) * width
    unique, inverse = lex_unique(trace.model, trace.algorithm, rounded)
    table = predict_step_seconds_batch(
        fleet,
        [trace.models[int(row[0])] for row in unique],
        [trace.algorithms[int(row[1])] for row in unique],
        unique[:, 2].tolist(),
        cache=cache)
    return unique, inverse, table


#: Walked arrivals become Python scalars this many at a time.
_WALK_CHUNK = 4096


def _arrival_rows(jobs: NDArray[Any] | None, total: int,
                  *columns: NDArray[Any]) -> Iterator[tuple[Any, ...]]:
    """``(job, *(column[job] for column in columns))`` per walked job.

    ``jobs`` holds the walked job ids in order (``None``: all
    ``total``).  Values come out as Python scalars, converted a chunk
    at a time: the loop reads no NumPy scalars and no trace-length
    list is ever built.
    """
    size = total if jobs is None else len(jobs)

    def chunks() -> Iterator[Iterator[tuple[Any, ...]]]:
        for lo in range(0, size, _WALK_CHUNK):
            hi = min(lo + _WALK_CHUNK, size)
            if jobs is None:
                pick: Any = slice(lo, hi)
                ids: Any = range(lo, hi)
            else:
                pick = jobs[lo:hi]
                ids = pick.tolist()
            yield zip(ids, *(column[pick].tolist() for column in columns))

    return itertools.chain.from_iterable(chunks())


#: Same-timestamp event order: arrivals, then provisioned clusters
#: coming online, then (from the pending heap) completions, then
#: repaired clusters rejoining, then retried jobs requeueing.
_PRIO_COMPLETION, _PRIO_REPAIR, _PRIO_RETRY = range(3)


def simulate_fleet_streaming(
    trace: TraceArrays,
    fleet: FleetConfig = FleetConfig(),
    *,
    policy: str = "fifo",
    admission: AdmissionController | None = None,
    decisions: BatchAdmissionDecisions | None = None,
    autoscaler: AutoscalerPolicy | None = None,
    faults: FaultModel | None = None,
    cache: "runner.ResultCache | None" = None,
    dispatch_log: "list[tuple[int, float]] | None" = None,
    obs: "FleetObs | None" = None,
) -> FleetReport:
    """Replay an array trace on ``fleet`` under ``policy`` and report.

    Deterministic: the same trace, fleet, policy and admission
    configuration always produce the identical report.  Admission
    decides the whole trace in one batched pass, service times come
    from one precomputed step-latency table, the loop walks the
    admitted arrivals (every arrival under an autoscaler), and
    metrics fold into streaming accumulators — no per-job record is
    ever materialized.  Wait percentiles are exact below the warmup
    size and P² estimates beyond it
    (:class:`~repro.serve.stream.StreamingStats`).

    Pass ``decisions`` to reuse one admission pass across policies
    (admission happens at arrival, so it is policy-invariant); the
    ``admission`` controller must then be the one that produced them.

    ``autoscaler`` turns the static cluster pool into a reactive one
    (see :mod:`repro.serve.autoscale`): after each event's dispatch
    loop settles, the policy may request new clusters (online after
    its provisioning delay) or retire idle ones, and the report gains
    scale events plus chip-hour cost.  ``dispatch_log``, when given,
    receives ``(job_id, start_s)`` per dispatch in dispatch order.

    ``faults`` (a :class:`~repro.serve.faults.FaultModel`) injects
    seeded failures: attempts crash mid-service, jobs requeue with
    capped backoff or continue degraded at a smaller ``dp'``, clusters
    repair after a downtime, and the admission ledger is re-priced per
    crash (see :mod:`repro.serve.faults`).  Crash-time ledger moves
    show in the report but not in the budget policy's priority, which
    reads each tenant's spend as of its latest arrival either way.
    ``None`` (default) skips every fault branch.

    ``obs`` (a :class:`repro.obs.fleet.FleetObs`) observes the run:
    one ``(job_id, start_s)`` append per dispatch, one windowed load
    sample per elapsed metrics window, and the run's arrays attached
    at the end for span building / metric folding in ``obs.export()``.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; "
                         f"choose from {POLICIES}")
    if admission is None:
        admission = AdmissionController()
    if decisions is None:
        decisions = admission.admit_batch(trace)
    unique, inverse, table = _job_step_table(trace, fleet, cache=cache)
    frun = (FaultRun(faults, fleet, admission, cache=cache)
            if faults is not None else None)
    if frun is None:
        service = decisions.granted_steps * table[inverse]
    else:
        # Checkpoint-amortized step per unique config.
        eff_table = np.array([
            frun.effective_step_seconds(trace.models[int(row[0])],
                                        float(table[pos]))
            for pos, row in enumerate(unique)])
        step = table[inverse]
        service = decisions.granted_steps * eff_table[inverse]
        q_arr, private_arr = trace.sampling_rate, trace.is_private
    state = (AutoscalerState(autoscaler,
                             initial_clusters=fleet.n_clusters,
                             chips_per_cluster=fleet.chips_per_cluster)
             if autoscaler is not None else None)

    total = len(trace)
    arrival = trace.arrival_s
    admitted = decisions.admitted
    granted = decisions.granted_steps
    tenant_of = trace.tenant
    n_tenants = len(trace.tenants)

    # Without an autoscaler the loop walks the admitted arrivals only.
    # A refused arrival moves neither the queues nor the idle pool (and
    # the dispatch loop leaves idle == 0 or queued == 0 after every
    # event), and its epsilon_after repeats its tenant's previous one,
    # which the budget key reads only while that tenant has an admitted
    # job queued.  The autoscaler decides after every event, so it
    # walks every arrival.
    walk = np.flatnonzero(admitted) if state is None else None
    rows = _arrival_rows(walk, total, arrival, tenant_of,
                         decisions.epsilon_after, admitted)
    row = next(rows, None)
    last_job = -1
    # The budget policy ranks tenants by their spend as of their latest
    # arrival (the decision stream's epsilon_after), the ledger a
    # per-arrival controller would hold at dispatch time.
    tenant_spent = [0.0] * n_tenants
    budget_eps = [admission.budget_for(name).epsilon
                  for name in trace.tenants]

    # Queues are min-heaps.  Arrivals are nondecreasing in the job
    # index, so the index alone orders jobs by (arrival, job_id): fifo
    # and the per-tenant budget queues hold bare indices, sjf holds
    # (live remaining service, index).  A requeued job re-sorts by its
    # original arrival; only an sjf retry under faults re-keys ``live``.
    queue: list[Any] = []
    tenant_queues: list[list[int]] = [[] for _ in range(n_tenants)]
    live = service.copy() if frun is not None and policy == "sjf" \
        else service
    queued = 0

    def push(job: int) -> None:
        if policy == "fifo":
            heapq.heappush(queue, job)
        elif policy == "sjf":
            heapq.heappush(queue, (live.item(job), job))
        else:
            heapq.heappush(tenant_queues[tenant_of.item(job)], job)

    def pop() -> int:
        if policy == "fifo":
            job: int = heapq.heappop(queue)
            return job
        if policy == "sjf":
            return int(heapq.heappop(queue)[1])
        best: int | None = None
        best_key: tuple[float, int] | None = None
        for tenant, backlog in enumerate(tenant_queues):
            if not backlog:
                continue
            remaining = max(0.0, 1.0 - tenant_spent[tenant]
                            / budget_eps[tenant])
            key = (-remaining, backlog[0])
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        assert best is not None  # callers guarantee a queued job
        return heapq.heappop(tenant_queues[best])

    # When autoscaling, the metric accumulator IS the autoscaler's p99
    # signal — one object, fed once per dispatch.
    waits = state.waits if state is not None else StreamingStats()
    # Completions, repairs and retries: (time, priority, seq, job).
    pending: list[tuple[float, int, int, int]] = []
    seq = 0

    def attempt(job: int, now: float) -> None:
        """Run one dispatched attempt under faults; queue its outcome.

        Pushes a completion, or a repair plus (when the job requeues)
        a retry.  Every quantity enters the
        :class:`~repro.serve.faults.FaultRun` as a Python scalar.
        """
        nonlocal seq
        assert frun is not None
        model_name = trace.models[trace.model.item(job)]
        step_s = step.item(job)
        waits.add(now - frun.ready_s(job, arrival.item(job)))
        outcome = frun.begin_attempt(
            job, now,
            step_s=step_s,
            granted=granted.item(job),
            requested=trace.steps.item(job),
            tenant=trace.tenants[tenant_of.item(job)],
            sampling_rate=q_arr.item(job),
            noise_multiplier=trace.noise_multiplier.item(job),
            private=private_arr.item(job),
            model_name=model_name,
            algorithm=trace.algorithms[trace.algorithm.item(job)],
            batch=trace.batch.item(job))
        if outcome.completed:
            heapq.heappush(pending,
                           (outcome.free_s, _PRIO_COMPLETION, seq, job))
            seq += 1
            return
        heapq.heappush(pending, (outcome.free_s, _PRIO_REPAIR, seq, job))
        seq += 1
        if outcome.retry_s is not None:
            if policy == "sjf":
                # The retry re-keys by the service its remaining
                # reservation needs.
                live[job] = frun.remaining_steps(job, granted.item(job)) \
                    * frun.effective_step_seconds(model_name, step_s)
            heapq.heappush(pending, (outcome.retry_s, _PRIO_RETRY, seq, job))
            seq += 1

    def sample_refused(until: float, lo: int, hi: int, queued: int,
                       idle: int) -> float:
        """Take the load samples skipped refused arrivals would have
        taken up to ``until``, each at its arrival time; return the
        next sampling deadline.

        In an every-arrival walk the first arrival at or after the
        deadline takes the sample.  Every arrival up to the last
        walked one came before it, so it lies in ``[lo, hi)``, between
        that arrival and the next walked one; if it is a refused one
        that precedes the next loop event, it saw the fleet exactly as
        the last event left it.
        """
        assert obs is not None
        while obs.next_sample_s <= until:
            lo = bisect.bisect_left(arrival, obs.next_sample_s, lo, hi)
            if lo == hi or arrival[lo] > until:
                break
            obs.sample(float(arrival[lo]), queued, idle,
                       fleet.n_clusters, 0)
        return obs.next_sample_s

    # Pre-bound dispatch sink: one local-None check per dispatch when
    # observability is off, one list append when it is on.  The
    # sampling deadline is mirrored into a local for the same reason —
    # the per-event guard stays one float compare either way.
    obs_dispatch = obs.dispatches.append if obs is not None else None
    obs_next_sample_s = obs.next_sample_s if obs is not None else math.inf
    catch_up = obs is not None and walk is not None
    arrival_of, service_of = arrival.item, service.item
    idle = fleet.n_clusters
    busy_s = 0.0
    completed = 0
    makespan = 0.0
    now = 0.0

    while row is not None or pending \
            or (state is not None and state.pending):
        t_arrival = row[1] if row is not None else math.inf
        t_provision = (state.next_provision_s() if state is not None
                       else math.inf)
        t_pending = pending[0][0] if pending else math.inf
        if catch_up and obs_next_sample_s <= t_arrival \
                and obs_next_sample_s <= t_pending:
            obs_next_sample_s = sample_refused(
                min(t_arrival, t_pending), last_job + 1,
                row[0] if row is not None else total, queued, idle)
        if t_arrival <= t_provision and t_arrival <= t_pending:
            assert row is not None
            last_job, now, tenant, spent, is_admitted = row
            row = next(rows, None)
            tenant_spent[tenant] = spent
            if is_admitted:
                push(last_job)
                queued += 1
        elif t_provision <= t_pending:
            assert state is not None
            now = t_provision
            state.activate_one(now)
            idle += 1
        else:
            now, prio, _, job = heapq.heappop(pending)
            if prio == _PRIO_RETRY:
                push(job)
                queued += 1
            else:  # completion or repair: capacity returns either way
                idle += 1
        while idle and queued:
            job = pop()
            queued -= 1
            idle -= 1
            if frun is None:
                waits.add(now - arrival_of(job))
                service_s = service_of(job)
                finish = now + service_s
                heapq.heappush(pending,
                               (finish, _PRIO_COMPLETION, seq, job))
                seq += 1
                busy_s += service_s
                completed += 1
                if finish > makespan:
                    makespan = finish
            else:
                attempt(job, now)
            if dispatch_log is not None:
                dispatch_log.append((job, now))
            if obs_dispatch is not None:
                obs_dispatch((job, now))
        if state is not None:
            delta = state.decide(now, queued, idle)
            if delta < 0:
                # Retired clusters leave the idle pool immediately;
                # scale-ups surface later as provision times.
                idle += delta
        if now >= obs_next_sample_s:
            assert obs is not None  # deadline is +inf otherwise
            obs.sample(now, queued, idle,
                       state.active if state is not None
                       else fleet.n_clusters,
                       len(state.pending) if state is not None else 0)
            obs_next_sample_s = obs.next_sample_s

    if catch_up:
        sample_refused(math.inf, last_job + 1, total, queued, idle)
    if state is not None:
        state.finalize(now)
    if obs is not None:
        obs.attach(policy=policy, trace=trace, decisions=decisions,
                   service=service, state=state, faults=frun)
    if frun is not None:
        completed, truncated = frun.completed, frun.truncated
        makespan, busy_s = frun.makespan_s, frun.busy_s
    else:
        # Without faults every admitted job ran once, to its grant.
        truncated = int(np.count_nonzero(admitted
                                         & (granted < trace.steps)))
    return build_streaming_report(
        policy=policy,
        chips=fleet.chips,
        n_clusters=fleet.n_clusters,
        chips_per_cluster=fleet.chips_per_cluster,
        submitted=total,
        completed=completed,
        truncated=truncated,
        rejected=int((~admitted).sum()),
        makespan_s=makespan,
        busy_s=busy_s,
        waits=waits,
        admission=admission,
        autoscale=state,
        faults=frun,
    )

