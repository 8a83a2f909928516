"""Serve engine: array traces, batched admission, P² metrics.

Equivalence contract: on traces a plain reference loop can afford
(:func:`reference_fleet` below — scalar admission per arrival,
``min(queue, key)`` per dispatch, step latencies from the scalar
simulator), the engine must reproduce its dispatch log and counts
*exactly* and its percentiles exactly below the warmup buffer; only
utilization, accumulated the same way but divided differently, gets a
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heapq
from functools import lru_cache

from repro.arch.interconnect import InterconnectConfig
from repro.core import build_cluster
from repro.serve import (
    AdmissionController,
    FleetConfig,
    P2Quantile,
    StreamingStats,
    TenantBudget,
    TraceArrays,
    TraceConfig,
    generate_trace,
    generate_trace_arrays,
    percentile,
    simulate_fleet_streaming,
)
from repro.serve.budget import BatchAdmissionDecisions
from repro.serve.job import lex_unique
from repro.serve.stream import WARMUP_OBSERVATIONS
from repro.training import Algorithm, simulate_sharded_training_step
from repro.workloads import build_model

_STATUS_CODE = {"admitted": BatchAdmissionDecisions.ADMITTED,
                "truncated": BatchAdmissionDecisions.TRUNCATED,
                "rejected": BatchAdmissionDecisions.REJECTED}


class TestTraceArrays:
    def test_round_trip_preserves_jobs(self):
        trace = generate_trace(TraceConfig(jobs=40, seed=3))
        assert TraceArrays.from_jobs(trace).jobs() == trace

    def test_generate_deterministic_and_shaped(self):
        config = TraceConfig(jobs=500, seed=11)
        a = generate_trace_arrays(config)
        b = generate_trace_arrays(config)
        assert len(a) == 500
        np.testing.assert_array_equal(a.arrival_s, b.arrival_s)
        np.testing.assert_array_equal(a.steps, b.steps)
        assert (np.diff(a.arrival_s) >= 0).all()
        assert set(np.unique(a.batch)) <= set(config.batches)
        lo, hi = config.steps_range
        assert a.steps.min() >= lo and a.steps.max() <= hi

    def test_seed_changes_stream(self):
        a = generate_trace_arrays(TraceConfig(jobs=100, seed=1))
        b = generate_trace_arrays(TraceConfig(jobs=100, seed=2))
        assert not np.array_equal(a.arrival_s, b.arrival_s)

    def test_empty(self):
        assert len(generate_trace_arrays(TraceConfig(jobs=0))) == 0

    def test_private_mask_and_sampling_rate(self):
        trace = generate_trace(TraceConfig(jobs=30, seed=5))
        arrays = TraceArrays.from_jobs(trace)
        for i, job in enumerate(trace):
            assert bool(arrays.is_private[i]) == job.is_private
            assert float(arrays.sampling_rate[i]) == job.sampling_rate


@st.composite
def _columns(draw):
    """One to three equal-length int or float columns with repeats."""
    n = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            values = st.integers(-3, 3) | st.integers(-2**40, 2**40)
            dtype = np.int64
        else:
            values = st.sampled_from([0.0, -0.0, 0.5, 1e-300]) \
                | st.floats(allow_nan=False)
            dtype = float
        columns.append(np.array(
            draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return columns


class TestLexUnique:
    """``lex_unique`` is ``np.unique(np.stack(cols, 1), axis=0,
    return_inverse=True)`` without the row-wise sort."""

    @staticmethod
    def _assert_matches_row_unique(columns):
        rows, inverse = lex_unique(*columns)
        want_rows, want_inverse = np.unique(
            np.stack(columns, axis=1), axis=0, return_inverse=True)
        assert rows.dtype == want_rows.dtype
        assert rows.shape == want_rows.shape
        # array_equal: -0.0 and 0.0 are one value to both.
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(inverse, want_inverse)
        assert inverse.shape == want_inverse.shape

    @settings(max_examples=150, deadline=None)
    @given(_columns())
    def test_matches_row_unique(self, columns):
        self._assert_matches_row_unique(columns)

    def test_empty_and_single_value(self):
        self._assert_matches_row_unique(
            [np.zeros(0, dtype=np.int32), np.zeros(0)])
        self._assert_matches_row_unique([np.full(7, 3), np.full(7, 0.5)])
        rows, inverse = lex_unique(np.full(7, 3), np.full(7, 0.5))
        assert rows.tolist() == [[3.0, 0.5]]
        assert inverse.tolist() == [0] * 7

    def test_million_distinct_values_per_column(self):
        # Codes packed without re-densifying would reach 10**18 here;
        # the key stays below n**2.  Every row is distinct, so the
        # unique rows are the lexsorted rows and the inverse is each
        # row's rank.
        n = 10**6
        rng = np.random.default_rng(0)
        columns = [rng.permutation(n).astype(np.int64) * 7919 - 3 * 10**9
                   for _ in range(3)]
        rows, inverse = lex_unique(*columns)
        order = np.lexsort(columns[::-1])
        assert np.array_equal(rows, np.stack(columns, axis=1)[order])
        assert np.array_equal(inverse[order], np.arange(n))

    def test_needs_a_column(self):
        with pytest.raises(ValueError, match="at least one column"):
            lex_unique()


class TestBatchAdmission:
    @pytest.mark.parametrize("epsilon,truncation", [
        (3.0, True),      # demo regime: admits, truncations, rejections
        (3.0, False),     # rejection instead of truncation
        (0.005, True),    # budget below the conversion floor: all reject
        (1000.0, True),   # everything admitted in full
    ])
    def test_decisions_identical_to_sequential(self, epsilon, truncation):
        trace = generate_trace(TraceConfig(jobs=150, seed=7))
        arrays = TraceArrays.from_jobs(trace)
        sequential = AdmissionController(TenantBudget(epsilon=epsilon),
                                         allow_truncation=truncation)
        expected = [sequential.admit(job) for job in trace]
        batched = AdmissionController(TenantBudget(epsilon=epsilon),
                                      allow_truncation=truncation)
        result = batched.admit_batch(arrays)
        for i, decision in enumerate(expected):
            assert int(result.status[i]) == \
                _STATUS_CODE[decision.status.value], (i, trace[i])
            assert int(result.granted_steps[i]) == decision.granted_steps
            assert float(result.epsilon_after[i]) == decision.epsilon_after
        assert sequential.seen_tenants() == batched.seen_tenants()
        for tenant in sequential.seen_tenants():
            assert sequential.counts(tenant) == batched.counts(tenant)
            assert sequential.epsilon_spent(tenant) == \
                batched.epsilon_spent(tenant)

    def test_empty_trace(self):
        controller = AdmissionController()
        result = controller.admit_batch(
            generate_trace_arrays(TraceConfig(jobs=0)))
        assert len(result) == 0


class TestStreamingQuantiles:
    def test_exact_below_warmup(self):
        rng = np.random.default_rng(0)
        data = np.concatenate([np.zeros(150), rng.exponential(5.0, 350)])
        rng.shuffle(data)
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        for pct in (0.5, 0.95, 0.99):
            assert stats.quantile(pct) == percentile(list(data), pct * 100)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_frac=st.floats(0.0, 0.8))
    def test_p2_within_tolerance_past_warmup(self, seed, zero_frac):
        rng = np.random.default_rng(seed)
        total = 20_000
        zeros = int(total * zero_frac)
        data = np.concatenate([np.zeros(zeros),
                               rng.exponential(10.0, total - zeros)])
        rng.shuffle(data)
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        scale = float(np.max(data))
        for pct in (0.5, 0.95, 0.99):
            exact = percentile(list(data), pct * 100)
            estimate = stats.quantile(pct)
            # 5% of the stream's range covers the stationary-stream
            # P² error with a wide margin.
            assert abs(estimate - exact) <= 0.05 * scale + 1e-12

    def test_tracked_quantiles_ordered_past_warmup(self):
        # Smallest reproducer found: an evenly spread warmup, then a
        # constant stream between the p95 and p99 estimates.  The
        # independent P² markers cross 505 observations in.
        stats = StreamingStats()
        for value in np.arange(1, WARMUP_OBSERVATIONS + 1) \
                / WARMUP_OBSERVATIONS:
            stats.add(float(value))
        for _ in range(1_000):
            stats.add(0.99)
            assert stats.quantile(0.5) <= stats.quantile(0.95) \
                <= stats.quantile(0.99), stats.count

    def test_p2_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(1.5)

    def test_mean_and_extremes(self):
        stats = StreamingStats()
        for value in (0.0, 1.0, 3.0):
            stats.add(value)
        assert stats.count == 3
        assert stats.maximum == 3.0
        assert stats.mean == pytest.approx(4.0 / 3.0)


@lru_cache(maxsize=None)
def _scalar_step_seconds(fleet, model, algorithm, batch):
    cluster = build_cluster(
        fleet.kind, n_chips=fleet.chips_per_cluster,
        interconnect=InterconnectConfig(
            topology=fleet.topology, bucket_bytes=fleet.bucket_bytes,
            chips_per_node=fleet.chips_per_node))
    return simulate_sharded_training_step(
        build_model(model), Algorithm(algorithm), cluster, batch,
        overlap=fleet.overlap).total_seconds


def _reference_step_seconds(fleet, job):
    """One sharded step priced by the scalar simulator, per job."""
    batch = -(-job.batch // fleet.dp) * fleet.dp
    return _scalar_step_seconds(fleet, job.model, job.algorithm, batch)


def reference_fleet(jobs, fleet, policy, budget):
    """A deliberately plain fleet loop: the oracle for the engine.

    Static fleet, no faults, no autoscaler.  The scalar controller
    admits each job at its arrival, and every dispatch takes
    ``min(queue, key)`` over a plain list.  Returns the dispatch log
    and the report fields it determines.
    """
    admission = AdmissionController(budget)
    arrivals = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
    service, granted = {}, {}
    finishes, queue, log, waits = [], [], [], []
    idle, busy, makespan, truncated, i = fleet.n_clusters, 0.0, 0.0, 0, 0
    while i < len(arrivals) or finishes:
        if i < len(arrivals) and (not finishes
                                  or arrivals[i].arrival_s <= finishes[0]):
            job = arrivals[i]
            i += 1
            now = job.arrival_s
            decision = admission.admit(job)
            if decision.admitted:
                granted[job.job_id] = decision.granted_steps
                service[job.job_id] = decision.granted_steps \
                    * _reference_step_seconds(fleet, job)
                queue.append(job)
        else:
            now = heapq.heappop(finishes)
            idle += 1
        while idle and queue:
            if policy == "fifo":
                job = min(queue, key=lambda j: (j.arrival_s, j.job_id))
            elif policy == "sjf":
                job = min(queue, key=lambda j: (service[j.job_id],
                                                j.arrival_s, j.job_id))
            else:
                left = {j.tenant: admission.remaining_fraction(j.tenant)
                        for j in queue}
                job = min(queue, key=lambda j: (-left[j.tenant],
                                                j.arrival_s, j.job_id))
            queue.remove(job)
            idle -= 1
            log.append((job.job_id, now))
            waits.append(now - job.arrival_s)
            heapq.heappush(finishes, now + service[job.job_id])
            busy += service[job.job_id]
            makespan = max(makespan, now + service[job.job_id])
            truncated += granted[job.job_id] < job.steps
    return log, {
        "completed": len(log),
        "truncated": truncated,
        "rejected": len(jobs) - len(service),
        "makespan_s": makespan,
        "utilization": busy / (fleet.n_clusters * makespan)
        if makespan else 0.0,
        "wait_p50_s": percentile(waits, 50),
        "wait_p95_s": percentile(waits, 95),
        "wait_p99_s": percentile(waits, 99),
        "tenants": [{"tenant": t,
                     "epsilon_spent": admission.epsilon_spent(t),
                     **admission.counts(t)}
                    for t in sorted(admission.seen_tenants())],
    }


class TestStreamingFleetEquivalence:
    @pytest.mark.parametrize("policy", ("fifo", "sjf", "budget"))
    def test_matches_scalar_simulator(self, policy):
        """The engine against :func:`reference_fleet`, job for job."""
        arrays = generate_trace_arrays(
            TraceConfig(jobs=1_500, seed=13, mean_interarrival_s=2.0))
        fleet = FleetConfig(chips=4, chips_per_cluster=2)
        budget = TenantBudget(epsilon=3.0)
        expected_log, expected = reference_fleet(arrays.jobs(), fleet,
                                                 policy, budget)
        log: list = []
        report = simulate_fleet_streaming(
            arrays, fleet, policy=policy,
            admission=AdmissionController(budget), dispatch_log=log)
        assert log == expected_log
        assert len(log) > 300  # the queue is contended
        got = report.to_dict()
        got["tenants"] = [{key: usage[key] for key in
                           ("tenant", "epsilon_spent", "admitted",
                            "truncated", "rejected")}
                          for usage in got["tenants"]]
        assert got["utilization"] == pytest.approx(
            expected.pop("utilization"), rel=1e-12)
        assert {key: got[key] for key in expected} == expected

    def test_empty_trace(self):
        report = simulate_fleet_streaming(
            generate_trace_arrays(TraceConfig(jobs=0)),
            FleetConfig(chips=2))
        assert report.submitted == 0
        assert report.completed == 0
        assert report.makespan_s == 0.0

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            simulate_fleet_streaming(
                generate_trace_arrays(TraceConfig(jobs=0)),
                policy="priority")

    def test_decisions_reused_across_policies(self):
        arrays = generate_trace_arrays(TraceConfig(jobs=200, seed=9))
        admission = AdmissionController(TenantBudget(epsilon=3.0))
        decisions = admission.admit_batch(arrays)
        reports = [
            simulate_fleet_streaming(arrays, FleetConfig(chips=2),
                                     policy=policy, admission=admission,
                                     decisions=decisions)
            for policy in ("fifo", "sjf", "budget")
        ]
        ledgers = [[t.to_dict() for t in r.tenants] for r in reports]
        assert ledgers[0] == ledgers[1] == ledgers[2]
        assert len({r.completed for r in reports}) == 1

    def test_service_times_match_scalar_prediction(self):
        from repro.serve import predict_step_seconds_batch

        fleet = FleetConfig(chips=4, chips_per_cluster=2,
                            bucket_bytes=2**20)
        trace = generate_trace(TraceConfig(jobs=25, seed=3))
        batches = [job.batch for job in trace]
        batched = predict_step_seconds_batch(
            fleet, [job.model for job in trace],
            [job.algorithm for job in trace],
            [-(-batch // 2) * 2 for batch in batches])
        for i, job in enumerate(trace):
            assert float(batched[i]) == \
                _reference_step_seconds(fleet, job)


class TestServeExperimentStreaming:
    def test_streaming_run_smoke(self):
        from repro.experiments import serve as serve_experiment

        rows = serve_experiment.run(policies=("fifo",), trace_jobs=300,
                                    chips=2)
        assert len(rows) == 1
        assert rows[0]["submitted"] == 300
        assert rows[0]["completed"] + rows[0]["rejected"] == 300
        text = serve_experiment.render(rows)
        assert "Policy" in text

    def test_all_policies_price_the_step_table_once(self, monkeypatch):
        import repro.training.batch as batch_module
        from repro.experiments import serve as serve_experiment
        from repro.serve.scheduler import POLICIES, _memo_step_seconds

        calls = []
        real = batch_module.sharded_step_batch

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(batch_module, "sharded_step_batch", counted)
        _memo_step_seconds.cache_clear()
        rows = serve_experiment.run(trace_jobs=300, chips=2)
        assert [row["policy"] for row in rows] == list(POLICIES)
        assert len(calls) == 1 and calls[0] > 0
