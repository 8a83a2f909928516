"""Tests for the multi-tenant fleet simulator (repro.serve)."""

import json

import pytest

from repro.experiments import serve as serve_experiment
from repro.serve import (
    AdmissionController,
    AdmissionStatus,
    FleetConfig,
    TenantBudget,
    TraceArrays,
    TraceConfig,
    TrainingJob,
    generate_trace,
    generate_trace_arrays,
    percentile,
    simulate_fleet_streaming,
)


def simulate_jobs(jobs, fleet=FleetConfig(), **kwargs):
    """Run the fleet simulator on a materialized job tuple."""
    return simulate_fleet_streaming(TraceArrays.from_jobs(jobs), fleet,
                                    **kwargs)


def _job(job_id, *, tenant="t0", model="SqueezeNet", algorithm="SGD",
         batch=64, steps=100, sigma=1.0, dataset=20_000, arrival=0.0):
    return TrainingJob(
        job_id=job_id, tenant=tenant, model=model, algorithm=algorithm,
        batch=batch, steps=steps, noise_multiplier=sigma,
        dataset_size=dataset, arrival_s=arrival)


class TestTrainingJob:
    def test_sampling_rate(self):
        assert _job(0, batch=64, dataset=6400).sampling_rate == 0.01

    def test_sampling_rate_capped(self):
        assert _job(0, batch=100, dataset=10).sampling_rate == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _job(0, algorithm="ADAM")
        with pytest.raises(ValueError):
            _job(0, batch=0)
        with pytest.raises(ValueError):
            _job(0, steps=0)
        with pytest.raises(ValueError):
            _job(0, arrival=-1.0)
        with pytest.raises(ValueError):
            _job(0, algorithm="DP-SGD", sigma=0.0)

    def test_sgd_allows_zero_sigma(self):
        assert not _job(0, algorithm="SGD", sigma=0.0).is_private


class TestTraceGenerator:
    def test_deterministic(self):
        config = TraceConfig(jobs=25, seed=3)
        assert generate_trace(config) == generate_trace(config)

    def test_seed_changes_trace(self):
        assert (generate_trace(TraceConfig(jobs=25, seed=3))
                != generate_trace(TraceConfig(jobs=25, seed=4)))

    def test_shape_and_monotone_arrivals(self):
        trace = generate_trace(TraceConfig(jobs=40, seed=1))
        assert len(trace) == 40
        assert [j.job_id for j in trace] == list(range(40))
        arrivals = [j.arrival_s for j in trace]
        assert arrivals == sorted(arrivals)
        config = TraceConfig()
        assert {j.tenant for j in trace} <= set(config.tenants)
        assert {j.model for j in trace} <= set(config.models)

    def test_empty_trace(self):
        assert generate_trace(TraceConfig(jobs=0)) == ()

    def test_jobs_are_the_array_stream(self):
        config = TraceConfig(jobs=30, seed=3, shape="bursty")
        assert generate_trace(config) == \
            generate_trace_arrays(config).jobs()

    def test_unsorted_arrays_rejected(self):
        trace = generate_trace(TraceConfig(jobs=3, seed=1))
        arrays = TraceArrays.from_jobs(trace)
        with pytest.raises(ValueError, match="nondecreasing"):
            TraceArrays(**{**arrays.__dict__,
                           "arrival_s": arrays.arrival_s[::-1]})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(jobs=-1)
        with pytest.raises(ValueError):
            TraceConfig(mean_interarrival_s=0.0)
        with pytest.raises(ValueError):
            TraceConfig(algorithms=("SGD",), algorithm_weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            TraceConfig(steps_range=(10, 5))


class TestAdmission:
    @pytest.mark.parametrize("budget", [
        {"epsilon": 0.0}, {"epsilon": -1.0}, {"epsilon": float("nan")},
        {"epsilon": 1.0, "delta": 0.0}, {"epsilon": 1.0, "delta": 1.0},
        {"epsilon": 1.0, "delta": float("nan")},
    ])
    def test_budget_rejects_invalid(self, budget):
        with pytest.raises(ValueError, match="budget"):
            TenantBudget(**budget)

    def test_non_private_is_free(self):
        ctl = AdmissionController(TenantBudget(epsilon=1.0))
        decision = ctl.admit(_job(0, algorithm="SGD", steps=10**6))
        assert decision.status is AdmissionStatus.ADMITTED
        assert decision.epsilon_cost == 0.0
        assert ctl.epsilon_spent("t0") == 0.0

    def test_full_admit_within_budget(self):
        ctl = AdmissionController(TenantBudget(epsilon=8.0))
        job = _job(0, algorithm="DP-SGD", batch=64, dataset=20_000,
                   sigma=1.3, steps=200)
        decision = ctl.admit(job)
        assert decision.status is AdmissionStatus.ADMITTED
        assert decision.granted_steps == 200
        assert decision.epsilon_after <= 8.0

    def test_truncation(self):
        # q=256/20000, sigma=1.0: ~860 of 1500 steps fit eps=3.0.
        ctl = AdmissionController(TenantBudget(epsilon=3.0))
        job = _job(0, algorithm="DP-SGD(R)", batch=256, dataset=20_000,
                   sigma=1.0, steps=1500)
        decision = ctl.admit(job)
        assert decision.status is AdmissionStatus.TRUNCATED
        assert 0 < decision.granted_steps < 1500
        assert decision.epsilon_after <= 3.0

    def test_rejection_when_truncation_disabled(self):
        ctl = AdmissionController(TenantBudget(epsilon=3.0),
                                  allow_truncation=False)
        job = _job(0, algorithm="DP-SGD(R)", batch=256, dataset=20_000,
                   sigma=1.0, steps=1500)
        decision = ctl.admit(job)
        assert decision.status is AdmissionStatus.REJECTED
        assert decision.granted_steps == 0
        assert ctl.epsilon_spent("t0") == 0.0

    def test_budget_never_exceeded_across_jobs(self):
        ctl = AdmissionController(TenantBudget(epsilon=2.0))
        for i in range(20):
            ctl.admit(_job(i, algorithm="DP-SGD", batch=128,
                           dataset=20_000, sigma=1.0, steps=400))
            assert ctl.epsilon_spent("t0") <= 2.0 + 1e-9

    def test_per_tenant_override(self):
        ctl = AdmissionController({"vip": TenantBudget(epsilon=50.0)},
                                  default_budget=TenantBudget(epsilon=1.0))
        assert ctl.budget_for("vip").epsilon == 50.0
        assert ctl.budget_for("anyone-else").epsilon == 1.0

    def test_remaining_fraction_decreases(self):
        ctl = AdmissionController(TenantBudget(epsilon=4.0))
        assert ctl.remaining_fraction("t0") == 1.0
        ctl.admit(_job(0, algorithm="DP-SGD", batch=128, dataset=20_000,
                       sigma=1.0, steps=300))
        assert ctl.remaining_fraction("t0") < 1.0


class TestSchedulerEdgeCases:
    def test_empty_trace(self):
        report = simulate_jobs((), FleetConfig(chips=2))
        assert report.submitted == 0
        assert report.completed == 0
        assert report.rejected == 0
        assert report.makespan_s == 0.0
        assert report.utilization == 0.0
        assert report.wait_p99_s == 0.0

    def test_single_chip_fleet(self):
        trace = generate_trace_arrays(TraceConfig(jobs=10, seed=2))
        log = []
        report = simulate_fleet_streaming(trace, FleetConfig(chips=1),
                                          dispatch_log=log)
        assert report.n_clusters == 1
        assert report.submitted == 10
        assert report.completed + report.rejected == 10
        assert 0.0 <= report.utilization <= 1.0
        assert len(log) == report.completed
        assert all(start >= trace.arrival_s[job] for job, start in log)

    def test_all_jobs_rejected_budget(self):
        # All-private trace against a budget below the RDP conversion
        # floor: not even one step fits, everything is rejected.
        trace = generate_trace(TraceConfig(
            jobs=8, seed=5, algorithms=("DP-SGD(R)",),
            algorithm_weights=(1.0,)))
        report = simulate_jobs(
            trace, FleetConfig(chips=2),
            admission=AdmissionController(TenantBudget(epsilon=0.005)))
        assert report.rejected == 8
        assert report.completed == 0
        assert report.makespan_s == 0.0
        assert all(t.epsilon_spent == 0.0 for t in report.tenants)

    def test_seeded_trace_is_deterministic(self):
        trace = generate_trace_arrays(TraceConfig(jobs=30, seed=11))
        first = simulate_fleet_streaming(trace, FleetConfig(chips=3),
                                         policy="sjf",
                                         admission=AdmissionController())
        second = simulate_fleet_streaming(trace, FleetConfig(chips=3),
                                          policy="sjf",
                                          admission=AdmissionController())
        assert first.to_dict() == second.to_dict()

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            simulate_jobs((), policy="priority")

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(chips=0)
        with pytest.raises(ValueError):
            FleetConfig(chips=4, chips_per_cluster=3)


class TestPolicies:
    def test_sjf_reorders_queue(self):
        # Three SGD jobs hit one cluster at t=0: the first dispatches
        # immediately; of the two queued, SJF picks the short one and
        # FIFO the earlier one.
        trace = (
            _job(0, steps=1000),
            _job(1, steps=1000),
            _job(2, steps=10),
        )
        def start_order(policy):
            log = []
            simulate_jobs(trace, FleetConfig(chips=1), policy=policy,
                          dispatch_log=log)
            return [job for job, _ in log]

        assert start_order("fifo") == [0, 1, 2]
        assert start_order("sjf") == [0, 2, 1]

    def test_budget_policy_favors_unspent_tenant(self):
        # Tenant "spender" burns budget at t=0; of the two jobs queued
        # behind the running one, the budget policy dispatches the
        # fresh tenant's job first even though it arrived later.
        trace = (
            _job(0, tenant="spender", algorithm="DP-SGD", batch=128,
                 dataset=20_000, sigma=1.0, steps=400),
            _job(1, tenant="spender", algorithm="DP-SGD", batch=128,
                 dataset=20_000, sigma=1.0, steps=400),
            _job(2, tenant="fresh", algorithm="SGD", steps=400),
        )
        log = []
        simulate_jobs(trace, FleetConfig(chips=1), policy="budget",
                      admission=AdmissionController(
                          TenantBudget(epsilon=8.0)),
                      dispatch_log=log)
        assert [job for job, _ in log] == [0, 2, 1]

    def test_policy_does_not_change_admission(self):
        trace = generate_trace_arrays(TraceConfig(jobs=25, seed=13))
        ledgers = []
        for policy in ("fifo", "sjf", "budget"):
            report = simulate_fleet_streaming(
                trace, FleetConfig(chips=2), policy=policy,
                admission=AdmissionController())
            ledgers.append([t.to_dict() for t in report.tenants])
        assert ledgers[0] == ledgers[1] == ledgers[2]


class TestFleetInvariants:
    def test_demo_trace_budget_and_rejections(self):
        """The acceptance invariant: epsilon never exceeds the budget
        and the default demo trace trips admission control."""
        trace = generate_trace_arrays(TraceConfig())
        report = simulate_fleet_streaming(trace, FleetConfig(chips=4),
                                          admission=AdmissionController())
        assert report.rejected >= 1
        for usage in report.tenants:
            assert usage.within_budget
            assert usage.epsilon_spent <= usage.budget_epsilon + 1e-9

    def test_served_steps_bounded_by_request(self):
        trace = generate_trace_arrays(TraceConfig(jobs=20, seed=9))
        decisions = AdmissionController().admit_batch(trace)
        assert (decisions.granted_steps <= trace.steps).all()

    def test_report_serializable(self):
        trace = generate_trace_arrays(TraceConfig(jobs=10, seed=1))
        report = simulate_fleet_streaming(trace, FleetConfig(chips=2))
        payload = json.dumps(report.to_dict())
        assert "tenant-0" in payload


class TestPercentile:
    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_nearest_rank(self):
        data = list(range(1, 11))
        assert percentile(data, 50) == 5
        assert percentile(data, 95) == 10
        assert percentile(data, 100) == 10
        assert percentile(data, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestServeExperiment:
    def test_rows_serializable_and_rendered(self):
        rows = serve_experiment.run(policies=("fifo", "sjf"),
                                    trace_jobs=15, chips=2)
        json.dumps(rows)
        assert len(rows) == 2
        text = serve_experiment.render(rows)
        assert "Policy" in text
        assert "tenant-0" in text

    def test_rejects_empty_policies(self):
        with pytest.raises(ValueError):
            serve_experiment.run(policies=())

    def test_cli_policy_choices_match_scheduler(self):
        # The argparse `choices` list in __main__.py is a literal (so
        # building the parser never imports the serving stack); this
        # pins it to the scheduler's POLICIES so they cannot drift.
        from pathlib import Path

        from repro.serve.scheduler import POLICIES

        main_py = (Path(__file__).resolve().parent.parent
                   / "src" / "repro" / "__main__.py")
        expected = ("choices=["
                    + ", ".join(f'"{p}"' for p in POLICIES) + "]")
        assert expected in main_py.read_text()

    def test_default_policies_resolve_to_scheduler_list(self):
        from repro.serve.scheduler import POLICIES

        rows = serve_experiment.run(trace_jobs=5, chips=1)
        assert tuple(row["policy"] for row in rows) == POLICIES

    def test_step_cache_persists(self, tmp_path):
        from repro.experiments import runner

        cache = runner.ResultCache(tmp_path)
        serve_experiment.run(policies=("fifo",), trace_jobs=10,
                             chips=2, cache=cache)
        entries = list(tmp_path.glob("*.json"))
        assert entries
        payload = json.loads(entries[0].read_text())
        assert payload["key"]["experiment"] == "serve-step"
