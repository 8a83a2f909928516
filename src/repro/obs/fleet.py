"""Fleet-simulator observability: job-lifecycle spans + windowed metrics.

One :class:`FleetObs` observes one fleet simulation.  The contract is
split to keep the event loop fast:

* **During the run** the scheduler touches only two O(1) surfaces: an
  inline ``(job_id, start_s)`` append per dispatch and one
  :meth:`~FleetObs.sample` call per elapsed metrics window.  Nothing
  else runs in-loop, which is what keeps the measured
  enabled-vs-disabled overhead inside the ``check_bench`` ceiling.
* **At the end of the run** the scheduler attaches its raw materials
  (:meth:`~FleetObs.attach` — references, no copies).  All span
  construction and metric folding happens later, in
  :meth:`~FleetObs.export`, outside any timed region.

Per-job rows are rebuilt from the trace arrays, the batched admission
decisions and the dispatch sink.  A multi-policy comparison can share
one :class:`~repro.obs.trace.TraceRecorder` (each run gets its own
trace process, named after its policy).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder
    from repro.serve.autoscale import AutoscalerState, ScaleEvent
    from repro.serve.budget import BatchAdmissionDecisions
    from repro.serve.faults import FaultEvent, FaultRun
    from repro.serve.job import TraceArrays

#: Normalized job row: (job_id, tenant, model, arrival_s, status code,
#: granted_steps, requested_steps, epsilon_after, start_s, finish_s).
#: Status codes are :class:`~repro.serve.budget.BatchAdmissionDecisions`'s
#: (0 admitted, 1 truncated, 2 rejected); start/finish are None for
#: rejected jobs.
JobRow = "tuple[int, str, str, float, int, int, int, float, float | None, float | None]"

_OUTCOMES = ("admitted", "truncated", "rejected")


class FleetObs:
    """Observability bundle for one fleet-simulation run.

    Pass the same ``recorder`` to several ``FleetObs`` instances to
    collect a multi-policy comparison into one trace file; metrics
    registries are typically per-run (per-policy).
    """

    def __init__(self, *,
                 recorder: "TraceRecorder | None" = None,
                 metrics: "MetricsRegistry | None" = None,
                 window_s: float = 60.0) -> None:
        if recorder is None and metrics is None:
            raise ValueError(
                "FleetObs needs a recorder, a metrics registry, or both")
        self.recorder = recorder
        self.metrics = metrics
        self.window_s = metrics.window_s if metrics is not None \
            else window_s
        #: Dispatch sink: ``(job_id, start_s)`` appended inline by the
        #: scheduler's dispatch loop.
        self.dispatches: list[tuple[int, float]] = []
        #: Windowed load samples: ``(t, queued, idle, active, pending)``.
        self.samples: list[tuple[float, int, int, int, int]] = []
        #: Next simulated time at which the scheduler should sample.
        self.next_sample_s = 0.0
        self._run: dict[str, Any] | None = None
        self._exported = False

    # -- in-loop surface ---------------------------------------------------

    def sample(self, now: float, queued: int, idle: int, active: int,
               pending: int) -> None:
        """Record one load sample; advances the next window boundary."""
        self.samples.append((now, queued, idle, active, pending))
        self.next_sample_s = (int(now // self.window_s) + 1) \
            * self.window_s

    # -- end-of-run attachment (references only, O(1)) ---------------------

    def attach(self, *, policy: str, trace: "TraceArrays",
               decisions: "BatchAdmissionDecisions",
               service: Any,
               state: "AutoscalerState | None",
               faults: "FaultRun | None" = None) -> None:
        if self._run is not None:
            raise RuntimeError(
                "FleetObs already observed a run; use one instance per "
                "simulate_fleet_streaming call")
        self._run = {"policy": policy, "trace": trace,
                     "decisions": decisions, "service": service,
                     "state": state, "faults": faults}

    # -- export ------------------------------------------------------------

    def export(self) -> None:
        """Build spans / fold metrics from the attached run (once)."""
        if self._run is None:
            raise RuntimeError("no run attached; simulate first")
        if self._exported:
            return
        self._exported = True
        run = self._run
        policy: str = run["policy"]
        state: "AutoscalerState | None" = run["state"]
        faults: "FaultRun | None" = run["faults"]
        scale_events: "tuple[ScaleEvent, ...]" = \
            tuple(state.events) if state is not None else ()
        fault_events: "list[FaultEvent]" = \
            faults.events if faults is not None else []
        rows: Iterable[Any] = _job_rows(run["trace"], run["decisions"],
                                        run["service"], self.dispatches)
        if self.recorder is not None and self.metrics is not None:
            rows = list(rows)
        if self.recorder is not None:
            _emit_spans(self.recorder, policy, rows, self.samples,
                        scale_events, fault_events)
        if self.metrics is not None:
            _fold_metrics(self.metrics, policy, rows, self.samples,
                          scale_events, fault_events)


def _job_rows(trace: "TraceArrays",
              decisions: "BatchAdmissionDecisions",
              service: Any,
              dispatches: "list[tuple[int, float]]"
              ) -> "Iterator[Any]":
    """Reconstruct per-job rows from the run's arrays.

    The event loop never materializes job records, so lifecycles are
    rebuilt here: arrival and admission from the trace + batched
    decisions, dispatch from the inline sink (a retried job's last
    dispatch), completion as ``start + service`` (bitwise the float the
    loop pushed onto its heap on fault-free runs).
    """
    starts: dict[int, float] = dict(dispatches)
    for job in range(len(trace)):
        start = starts.get(job)
        finish = float(start + service[job]) if start is not None \
            else None
        yield (job, trace.tenants[int(trace.tenant[job])],
               trace.models[int(trace.model[job])],
               float(trace.arrival_s[job]),
               int(decisions.status[job]),
               int(decisions.granted_steps[job]),
               int(trace.steps[job]),
               float(decisions.epsilon_after[job]),
               start, finish)


def _emit_spans(recorder: "TraceRecorder", policy: str,
                rows: Iterable[Any],
                samples: "list[tuple[float, int, int, int, int]]",
                scale_events: "tuple[ScaleEvent, ...]",
                fault_events: "list[FaultEvent]" = []) -> None:
    pid = recorder.pid(f"fleet: {policy}")
    for (job, tenant, model, arrival, status, granted, requested,
         eps_after, start, finish) in rows:
        tid = recorder.tid(pid, tenant)
        if status == 2 or start is None:
            recorder.instant(
                f"job-{job} rejected", arrival, pid=pid, tid=tid,
                cat="admission",
                args={"model": model, "requested_steps": requested,
                      "epsilon_after": eps_after})
            continue
        args = {"model": model, "granted_steps": granted,
                "requested_steps": requested,
                "epsilon_after": eps_after}
        if status == 1:
            args["truncated"] = True
        recorder.span(f"job-{job} wait", arrival, start - arrival,
                      pid=pid, tid=tid, cat="queue")
        recorder.span(f"job-{job} run", start, finish - start,
                      pid=pid, tid=tid, cat="run", args=args)
    scale_tid = recorder.tid(pid, "autoscaler")
    for event in scale_events:
        recorder.instant(
            event.label, event.time_s, pid=pid, tid=scale_tid,
            cat="autoscale", args=event.to_dict())
    if fault_events:
        fault_tid = recorder.tid(pid, "faults")
        # A "retry" is the backoff wait that began at the matching
        # failure instant — render it as a span, the rest as instants.
        crash_at = {(e.job_id, e.attempt): e.time_s
                    for e in fault_events if e.kind == "failure"}
        for event in fault_events:
            args = {"job": event.job_id, "attempt": event.attempt}
            if event.kind == "retry":
                crash_s = crash_at[(event.job_id, event.attempt)]
                recorder.span(
                    f"job-{event.job_id} backoff", crash_s,
                    event.time_s - crash_s, pid=pid, tid=fault_tid,
                    cat="fault", args=args)
            else:
                recorder.instant(
                    f"job-{event.job_id} {event.kind}", event.time_s,
                    pid=pid, tid=fault_tid, cat="fault", args=args)
    for t, queued, idle, active, pending in samples:
        recorder.counter("queue depth", t, {"queued": queued}, pid=pid)
        recorder.counter("clusters", t,
                         {"running": active - idle, "idle": idle,
                          "pending": pending}, pid=pid)


def _fold_metrics(metrics: "MetricsRegistry", policy: str,
                  rows: Iterable[Any],
                  samples: "list[tuple[float, int, int, int, int]]",
                  scale_events: "tuple[ScaleEvent, ...]",
                  fault_events: "list[FaultEvent]" = []) -> None:
    """Fold one run into counters / histograms / windowed series."""
    waits = metrics.histogram("wait_s", policy=policy)
    service = metrics.histogram("service_s", policy=policy)
    for (job, tenant, model, arrival, status, granted, requested,
         eps_after, start, finish) in rows:
        outcome = _OUTCOMES[status]
        metrics.counter("jobs", policy=policy, tenant=tenant,
                        outcome=outcome).inc()
        metrics.series("arrival_rate", policy=policy,
                       outcome=outcome).add(arrival, 1.0)
        metrics.series("tenant_epsilon_spent", policy=policy,
                       tenant=tenant).add(arrival, eps_after)
        if start is not None:
            waits.observe(start - arrival)
            service.observe(finish - start)
    for t, queued, idle, active, pending in samples:
        running = active - idle
        metrics.series("queue_depth", policy=policy).add(t, queued)
        metrics.series("running_jobs", policy=policy).add(t, running)
        metrics.series("active_clusters", policy=policy).add(t, active)
        metrics.series("utilization", policy=policy).add(
            t, running / active if active > 0 else 0.0)
    for event in scale_events:
        metrics.counter("scale_decisions", policy=policy,
                        action=event.action, reason=event.reason).inc()
    for fault in fault_events:
        metrics.counter("fault_events", policy=policy,
                        kind=fault.kind).inc()
    if samples:
        metrics.gauge("peak_queue_depth", policy=policy).set(
            max(sample[1] for sample in samples))
