"""Tests for the RDP accountant (repro.dpml.accountant)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from repro.dpml import (
    DEFAULT_ORDERS,
    RdpAccountant,
    compute_rdp,
    epsilon_for_steps,
    max_steps_for_budget,
    noise_multiplier_for_epsilon,
    rdp_sampled_gaussian,
    rdp_to_epsilon,
)
from repro.serve.job import TraceConfig, generate_trace_arrays

GOLDEN_RDP = (Path(__file__).resolve().parent / "data"
              / "golden_rdp_curves.json")


def _golden_curves(group):
    golden = json.loads(GOLDEN_RDP.read_text())
    assert tuple(golden["orders"]) == DEFAULT_ORDERS
    return [(float.fromhex(entry["q"]), float.fromhex(entry["sigma"]),
             [float.fromhex(value) for value in entry["rdp"]])
            for entry in golden[group]]


def rdp_by_quadrature(q, sigma, alpha):
    """RDP of the subsampled Gaussian by numerical integration.

    ``A_alpha = E_{z ~ N(0, sigma^2)} [((1 - q) + q exp((2z - 1) /
    (2 sigma^2)))^alpha]`` (Mironov et al.), integrated as ``A_alpha - 1``
    with ``log1p``/``expm1`` so that tiny ``q`` keeps its digits, over
    40 sigma either side of the two mixture peaks at 0 and ``alpha``.
    """
    two_var = 2.0 * sigma * sigma

    def excess(z):
        log_density = -z * z / two_var - 0.5 * math.log(math.pi * two_var)
        log_ratio = alpha * math.log1p(q * math.expm1((2.0 * z - 1.0)
                                                      / two_var))
        if log_ratio > 30.0:
            return (math.exp(log_density + log_ratio)
                    - math.exp(log_density))
        return math.exp(log_density) * math.expm1(log_ratio)

    a_minus_one, _ = integrate.quad(
        excess, -40.0 * sigma, alpha + 40.0 * sigma,
        points=(0.0, float(alpha)), epsabs=0.0, epsrel=1e-12, limit=500)
    return math.log1p(a_minus_one) / (alpha - 1)


class TestRdpClosedForms:
    def test_q_zero_is_free(self):
        assert rdp_sampled_gaussian(0.0, 1.0, 8) == 0.0

    def test_q_one_is_gaussian(self):
        """q=1 reduces to the Gaussian mechanism: alpha / (2 sigma^2)."""
        for order in (2, 8, 32):
            for sigma in (0.5, 1.0, 4.0):
                assert rdp_sampled_gaussian(1.0, sigma, order) == \
                    pytest.approx(order / (2 * sigma**2))

    def test_sigma_zero_infinite(self):
        assert rdp_sampled_gaussian(0.5, 0.0, 4) == math.inf

    @pytest.mark.parametrize("q", [0.5, 1.0])
    @pytest.mark.parametrize("sigma", [1e-170, 1e-161])
    def test_vanishing_sigma_infinite(self, q, sigma):
        """``2 sigma^2`` zero or subnormal: infinite, not an error."""
        assert rdp_sampled_gaussian(q, sigma, 8) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(1.5, 1.0, 4)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.5, 1.0, 2.5)


class TestGoldenCurves:
    """Per-step curves pinned bitwise against the per-order scalar
    ``logsumexp`` loop the order-ladder kernel replaced (recorded with
    that loop as ``float.hex``)."""

    @pytest.mark.parametrize("group", ["trace", "grid"])
    def test_curves_match_bitwise(self, group):
        for q, sigma, curve in _golden_curves(group):
            assert compute_rdp(q, sigma, 1).tolist() == curve, (q, sigma)

    def test_trace_classes_all_pinned(self):
        """The ``trace`` group is every (q, sigma) class of the 150k-job
        budget-bound trace, so its admission decisions are pinned."""
        trace = generate_trace_arrays(TraceConfig(
            jobs=150_000, seed=1, mean_interarrival_s=0.5))
        classes = set(zip(trace.sampling_rate.tolist(),
                          trace.noise_multiplier.tolist()))
        pinned = {(q, sigma) for q, sigma, _ in _golden_curves("trace")}
        assert classes == pinned

    def test_single_orders_match_curves(self):
        index = {order: i for i, order in enumerate(DEFAULT_ORDERS)}
        for q, sigma, curve in _golden_curves("grid"):
            for order in (2, 63, 1024):
                assert (rdp_sampled_gaussian(q, sigma, order)
                        == curve[index[order]]), (q, sigma, order)

    def test_odd_ladders_match_single_orders(self):
        orders = (7, 3, 1000, 2, 129)
        curve = compute_rdp(0.03, 0.9, 1, orders)
        assert curve.tolist() == [rdp_sampled_gaussian(0.03, 0.9, order)
                                  for order in orders]
        assert compute_rdp(0.03, 0.9, 1, ()).shape == (0,)


class TestQuadratureOracle:
    """The binomial expansion against numerical integration of the
    mixture density: different maths for the same divergence."""

    @pytest.mark.parametrize("q, sigma, alpha", [
        (0.01, 1.1, 2),
        (0.01, 1.1, 32),
        (256 / 60000, 1.1, 10),
        (1e-4, 0.9, 20),
        (0.05, 0.8, 8),
        (0.1, 2.0, 32),
        (0.5, 1.0, 3),
        (0.9, 4.0, 16),
    ])
    def test_matches_numerical_integration(self, q, sigma, alpha):
        assert rdp_sampled_gaussian(q, sigma, alpha) == pytest.approx(
            rdp_by_quadrature(q, sigma, alpha), rel=1e-6)


class TestRdpMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.001, 0.5), sigma=st.floats(0.5, 8.0),
           order=st.sampled_from([2, 4, 8, 16, 64]))
    def test_increasing_in_q(self, q, sigma, order):
        assert (rdp_sampled_gaussian(q, sigma, order)
                <= rdp_sampled_gaussian(min(1.0, q * 1.5), sigma, order)
                + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.001, 0.5), sigma=st.floats(0.5, 8.0),
           order=st.sampled_from([2, 4, 8, 16]))
    def test_decreasing_in_sigma(self, q, sigma, order):
        assert (rdp_sampled_gaussian(q, sigma, order)
                >= rdp_sampled_gaussian(q, sigma * 2, order) - 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.001, 0.3), sigma=st.floats(0.5, 4.0))
    def test_nonnegative(self, q, sigma):
        assert rdp_sampled_gaussian(q, sigma, 8) >= 0.0


class TestComposition:
    def test_linear_in_steps(self):
        one = compute_rdp(0.01, 1.0, 1)
        many = compute_rdp(0.01, 1.0, 500)
        np.testing.assert_allclose(many, 500 * one)

    def test_zero_steps(self):
        np.testing.assert_allclose(compute_rdp(0.01, 1.0, 0), 0.0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            compute_rdp(0.01, 1.0, -1)

    def test_zero_steps_at_sigma_zero_spend_nothing(self):
        """0 * inf must not leak a NaN curve."""
        assert compute_rdp(0.3, 0.0, 0).tolist() == [0.0] * len(
            DEFAULT_ORDERS)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="noise multiplier"):
            compute_rdp(0.01, math.nan, 10)


class TestConversion:
    def test_validation(self):
        rdp = compute_rdp(0.01, 1.0, 10)
        with pytest.raises(ValueError):
            rdp_to_epsilon(DEFAULT_ORDERS, rdp, delta=0.0)
        with pytest.raises(ValueError):
            rdp_to_epsilon((2, 3), rdp, delta=1e-5)

    def test_epsilon_grows_with_steps(self):
        eps = [
            rdp_to_epsilon(DEFAULT_ORDERS,
                           compute_rdp(0.01, 1.0, steps), 1e-5)[0]
            for steps in (10, 100, 1000)
        ]
        assert eps[0] < eps[1] < eps[2]

    def test_epsilon_shrinks_with_sigma(self):
        eps = [
            rdp_to_epsilon(DEFAULT_ORDERS,
                           compute_rdp(0.01, sigma, 1000), 1e-5)[0]
            for sigma in (0.8, 1.5, 4.0)
        ]
        assert eps[0] > eps[1] > eps[2]

    def test_reference_value(self):
        """The canonical TF-Privacy example: q=0.01, sigma=1.1,
        10k steps, delta=1e-5 gives epsilon in the low single digits."""
        rdp = compute_rdp(0.01, 1.1, 10_000)
        eps, order = rdp_to_epsilon(DEFAULT_ORDERS, rdp, 1e-5)
        assert 3.0 < eps < 9.0
        assert order in DEFAULT_ORDERS

    def test_mnist_tutorial_operating_point(self):
        """TF-Privacy's MNIST tutorial: batch 256 of 60k, sigma 1.1,
        60 epochs (14062 steps), delta 1e-5."""
        assert epsilon_for_steps(256 / 60000, 1.1, 14062, 1e-5) == \
            pytest.approx(3.00910, abs=5e-5)


class TestAccountant:
    def test_zero_steps_zero_epsilon(self):
        acct = RdpAccountant(0.01, 1.0)
        assert acct.epsilon(1e-5) == 0.0

    def test_record_accumulates(self):
        acct = RdpAccountant(0.02, 1.0)
        acct.record_steps(10)
        early = acct.epsilon(1e-5)
        acct.record_steps(990)
        assert acct.epsilon(1e-5) > early
        assert acct.steps == 1000

    def test_matches_direct_computation(self):
        acct = RdpAccountant(0.05, 1.2)
        acct.record_steps(250)
        direct = rdp_to_epsilon(DEFAULT_ORDERS,
                                compute_rdp(0.05, 1.2, 250), 1e-5)[0]
        assert acct.epsilon(1e-5) == pytest.approx(direct)

    def test_privacy_spent_pair(self):
        acct = RdpAccountant(0.01, 1.0)
        acct.record_steps(5)
        eps, delta = acct.privacy_spent(1e-6)
        assert delta == 1e-6
        assert eps > 0

    def test_negative_record_rejected(self):
        with pytest.raises(ValueError):
            RdpAccountant(0.01, 1.0).record_steps(-1)

    def test_zero_record_keeps_infinite_cost(self):
        """Recording no steps at sigma = 0 leaves the ledger clean, so
        later steps report an infinite epsilon rather than NaN."""
        acct = RdpAccountant(0.5, 0.0)
        acct.record_steps(0)
        acct.record_steps(5)
        assert acct.epsilon(1e-5) == math.inf


class TestEpsilonForSteps:
    def test_zero_steps_spend_nothing(self):
        assert epsilon_for_steps(0.01, 1.0, 0, 1e-5) == 0.0

    def test_matches_direct_conversion(self):
        direct = rdp_to_epsilon(DEFAULT_ORDERS,
                                compute_rdp(0.02, 1.1, 300), 1e-5)[0]
        assert epsilon_for_steps(0.02, 1.1, 300, 1e-5) == \
            pytest.approx(direct)


class TestMaxStepsForBudget:
    def test_invalid_target(self):
        with pytest.raises(ValueError):
            max_steps_for_budget(0.01, 1.0, 0.0, 1e-5)

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError, match="target epsilon"):
            max_steps_for_budget(0.01, 1.0, math.nan, 1e-5)

    def test_q_zero_is_unbounded(self):
        assert max_steps_for_budget(0.0, 1.0, 1.0, 1e-5,
                                    max_steps=777) == 777

    def test_sigma_zero_affords_nothing(self):
        assert max_steps_for_budget(0.01, 0.0, 3.0, 1e-5) == 0

    def test_cap_respected(self):
        assert max_steps_for_budget(0.001, 4.0, 50.0, 1e-5,
                                    max_steps=123) == 123

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.002, 0.05), sigma=st.floats(0.8, 3.0),
           target=st.floats(0.5, 8.0))
    def test_inverse_consistent_with_epsilon_for_steps(
            self, q, sigma, target):
        """The crossover property: the returned step count fits the
        budget and one more step would overshoot."""
        delta = 1e-5
        steps = max_steps_for_budget(q, sigma, target, delta,
                                     max_steps=5000)
        assert epsilon_for_steps(q, sigma, steps, delta) <= target
        if steps < 5000:
            assert epsilon_for_steps(q, sigma, steps + 1, delta) > target

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.002, 0.05), sigma=st.floats(0.8, 2.5),
           target=st.floats(0.5, 6.0))
    def test_monotone_in_sigma(self, q, sigma, target):
        """More noise buys at least as many steps."""
        fewer = max_steps_for_budget(q, sigma, target, 1e-5,
                                     max_steps=5000)
        more = max_steps_for_budget(q, sigma * 1.5, target, 1e-5,
                                    max_steps=5000)
        assert more >= fewer

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.002, 0.05), sigma=st.floats(0.8, 2.5),
           target=st.floats(0.5, 4.0))
    def test_monotone_in_target(self, q, sigma, target):
        loose = max_steps_for_budget(q, sigma, 2.0 * target, 1e-5,
                                     max_steps=5000)
        tight = max_steps_for_budget(q, sigma, target, 1e-5,
                                     max_steps=5000)
        assert loose >= tight

    def test_base_rdp_reduces_affordability(self):
        fresh = max_steps_for_budget(0.01, 1.0, 3.0, 1e-5)
        spent = compute_rdp(0.01, 1.0, 500)
        remaining = max_steps_for_budget(0.01, 1.0, 3.0, 1e-5,
                                         base_rdp=spent)
        assert remaining <= fresh - 500 + 1  # linear composition
        assert remaining < fresh

    def test_base_rdp_shape_validated(self):
        with pytest.raises(ValueError):
            max_steps_for_budget(0.01, 1.0, 3.0, 1e-5,
                                 base_rdp=np.zeros(3))

    def test_accountant_method_tracks_recorded_steps(self):
        target, delta = 3.0, 1e-5
        acct = RdpAccountant(0.01, 1.0)
        total = acct.max_steps_for_budget(target, delta)
        assert total == max_steps_for_budget(0.01, 1.0, target, delta)
        acct.record_steps(total)
        assert acct.epsilon(delta) <= target
        assert acct.max_steps_for_budget(target, delta) == 0


class TestNoiseCalibration:
    def test_inverse_property(self):
        """The calibrated sigma achieves (just under) the target."""
        target = 4.0
        sigma = noise_multiplier_for_epsilon(target, 1e-5, 0.02, 1000)
        rdp = compute_rdp(0.02, sigma, 1000)
        eps, _ = rdp_to_epsilon(DEFAULT_ORDERS, rdp, 1e-5)
        assert eps <= target
        assert eps > target * 0.8  # not wastefully noisy

    def test_tighter_target_needs_more_noise(self):
        loose = noise_multiplier_for_epsilon(8.0, 1e-5, 0.02, 1000)
        tight = noise_multiplier_for_epsilon(1.0, 1e-5, 0.02, 1000)
        assert tight > loose

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            noise_multiplier_for_epsilon(0.0, 1e-5, 0.02, 100)
