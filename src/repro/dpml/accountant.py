"""Renyi differential privacy (RDP) accountant for DP-SGD.

Implements the moments/RDP accounting used by Abadi et al. and the
TensorFlow-Privacy / Opacus stacks: the subsampled Gaussian mechanism's
RDP at integer orders (Mironov et al., "Renyi Differential Privacy of
the Sampled Gaussian Mechanism", Theorem 5 / Eq. (3)) composed over
steps, then converted to an (epsilon, delta) guarantee.

For sampling rate ``q``, noise multiplier ``sigma`` and integer order
``alpha``::

    RDP(alpha) = log( sum_{k=0..alpha} C(alpha, k) (1-q)^(alpha-k) q^k
                      * exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

Special cases covered exactly: ``q == 0`` gives 0 (no data touched),
``q == 1`` reduces to the Gaussian mechanism's ``alpha / (2 sigma^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

#: Default RDP orders, matching TF-Privacy's ladder.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 64)) + (
    128, 256, 512, 1024)


def rdp_sampled_gaussian(q: float, sigma: float, order: int) -> float:
    """RDP of one subsampled-Gaussian step at an integer ``order``."""
    return _single_step_rdp(q, sigma, (order,))[0]


@lru_cache(maxsize=512)
def _single_step_rdp(q: float, sigma: float,
                     orders: tuple[int, ...]) -> tuple[float, ...]:
    """One step's RDP curve, memoized per ``(q, sigma, orders)``.

    The whole order ladder is priced in one pass: ``log k!`` is built
    once up to ``max(orders)``, and each order's ``order + 1`` binomial
    log-terms are sliced out of shared vectors, in the operand order
    ``log C(a, k) + (a - k) log(1 - q) + k log q + k (k - 1) / (2 sigma^2)``.
    Each order then reduces with the steps of
    :func:`scipy.special.logsumexp` on one contiguous vector (tied
    maxima counted as ``m`` and zeroed, the rest shifted, exponentiated
    and pairwise-summed), so every value is bitwise the per-order
    ``logsumexp`` result (pinned by ``tests/data/golden_rdp_curves.json``).

    Admission control and budget searches evaluate the curve for the
    same handful of mechanism parameters over and over, hence the
    cache.  Returned as a tuple so cache hits can never alias a
    mutable array.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling rate must be in [0, 1], got {q}")
    if math.isnan(sigma):
        raise ValueError(f"noise multiplier must be a number, got {sigma}")
    for order in orders:
        if order < 2 or int(order) != order:
            raise ValueError(f"order must be an integer >= 2, got {order}")
    if q == 0.0:
        return (0.0,) * len(orders)
    two_var = 2.0 * sigma * sigma
    if sigma <= 0.0 or two_var == 0.0:
        return (math.inf,) * len(orders)
    if q == 1.0:
        return tuple(order / two_var for order in orders)
    if not orders:
        return ()
    ladder = [int(order) for order in orders]
    k = np.arange(max(ladder) + 1, dtype=float)
    shift = np.empty(len(ladder))
    total = np.empty(len(ladder))
    ties = np.empty(len(ladder))
    # Terms reach +inf only when 2 sigma^2 is subnormal; the tied +inf
    # maximum then gives an infinite order, as scipy's logsumexp does.
    with np.errstate(over="ignore", invalid="ignore"):
        log_fact = special.gammaln(k + 1.0)
        miss = k * math.log1p(-q)    # (a - k) log(1 - q), read reversed
        hit = k * math.log(q)
        quad = k * (k - 1.0) / two_var
        for i, a in enumerate(ladder):
            terms = (log_fact[a] - log_fact[:a + 1]) - log_fact[a::-1]
            terms += miss[a::-1]
            terms += hit[:a + 1]
            terms += quad[:a + 1]
            top = terms.max()
            tied = terms == top
            scaled = np.exp(terms - top)
            scaled[tied] = 0.0
            shift[i] = top
            total[i] = scaled.sum()
            ties[i] = np.count_nonzero(tied)
    total = np.where(total == 0.0, total, total / ties)
    log_sum = np.log1p(total) + np.log(ties) + shift
    return tuple((log_sum / (np.array(ladder) - 1.0)).tolist())


def compute_rdp(q: float, sigma: float, steps: int,
                orders: tuple[int, ...] = DEFAULT_ORDERS) -> np.ndarray:
    """RDP of ``steps`` composed subsampled-Gaussian mechanisms.

    Zero steps spend nothing, also at ``sigma <= 0`` where the per-step
    curve is infinite.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    per_step = np.array(_single_step_rdp(q, sigma, tuple(orders)))
    if steps == 0:
        return np.zeros_like(per_step)
    return steps * per_step


def rdp_to_epsilon(orders: tuple[int, ...], rdp: np.ndarray,
                   delta: float) -> tuple[float, int]:
    """Convert an RDP curve to ``(epsilon, best_order)`` at ``delta``.

    Uses the standard conversion
    ``epsilon = RDP(alpha) + log(1/delta) / (alpha - 1)`` minimized over
    the available orders.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rdp = np.asarray(rdp, dtype=float)
    if rdp.shape != (len(orders),):
        raise ValueError("orders and rdp must align")
    epsilons = rdp + math.log(1.0 / delta) / (np.array(orders) - 1.0)
    best = int(np.argmin(epsilons))
    return float(epsilons[best]), orders[best]


@dataclass
class RdpAccountant:
    """Tracks the cumulative privacy cost of a DP-SGD training run.

    Parameters
    ----------
    sampling_rate:
        Per-step probability each example is included (``B / N`` under
        Poisson sampling).
    noise_multiplier:
        ``sigma`` of Algorithm 1.
    """

    sampling_rate: float
    noise_multiplier: float
    orders: tuple[int, ...] = DEFAULT_ORDERS
    steps: int = 0
    _rdp: np.ndarray = field(default=None, repr=False)  # type: ignore

    def __post_init__(self) -> None:
        if self._rdp is None:
            self._rdp = np.zeros(len(self.orders))
        self._per_step = compute_rdp(
            self.sampling_rate, self.noise_multiplier, 1, self.orders)

    def record_steps(self, steps: int = 1) -> None:
        """Account for ``steps`` more DP-SGD iterations."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.steps += steps
        if steps:  # 0 * inf (sigma <= 0) would poison the ledger with NaN
            self._rdp = self._rdp + steps * self._per_step

    def epsilon(self, delta: float) -> float:
        """Current ``epsilon`` at the given ``delta``."""
        if self.steps == 0:
            return 0.0
        eps, _ = rdp_to_epsilon(self.orders, self._rdp, delta)
        return eps

    def privacy_spent(self, delta: float) -> tuple[float, float]:
        """The ``(epsilon, delta)`` pair reported by Algorithm 1."""
        return self.epsilon(delta), delta

    def max_steps_for_budget(self, target_epsilon: float, delta: float,
                             max_steps: int = 1_000_000) -> int:
        """How many *more* steps fit inside ``(target_epsilon, delta)``.

        Accounts for the steps already recorded: the returned count is
        the remaining affordable budget, not the total from scratch.
        See :func:`max_steps_for_budget` for the search itself.
        """
        return max_steps_for_budget(
            self.sampling_rate, self.noise_multiplier, target_epsilon,
            delta, orders=self.orders, base_rdp=self._rdp,
            max_steps=max_steps)


def epsilon_for_steps(q: float, sigma: float, steps: int, delta: float,
                      orders: tuple[int, ...] = DEFAULT_ORDERS) -> float:
    """``epsilon`` after ``steps`` subsampled-Gaussian iterations.

    Zero steps spend zero budget (matching
    :meth:`RdpAccountant.epsilon`, which special-cases the fresh
    accountant rather than reporting the RDP conversion's
    ``log(1/delta) / (alpha - 1)`` floor).
    """
    if steps == 0:
        return 0.0
    rdp = compute_rdp(q, sigma, steps, orders)
    return rdp_to_epsilon(orders, rdp, delta)[0]


def max_steps_for_budget(
    q: float,
    sigma: float,
    target_epsilon: float,
    delta: float,
    *,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    base_rdp: np.ndarray | None = None,
    max_steps: int = 1_000_000,
) -> int:
    """Largest step count whose ``epsilon`` stays within a budget.

    Binary search over the step axis: ``epsilon`` is nondecreasing in
    steps (RDP composes additively and the conversion is monotone), so
    the answer is the unique crossover.  Returns ``max_steps`` when
    even that many steps fit the budget (``q == 0`` never spends
    anything) and ``0`` when a single step already overshoots
    (``sigma <= 0`` has infinite per-step cost).

    ``base_rdp`` is an already-spent RDP curve over ``orders`` (e.g.
    from previous jobs of the same tenant): the search then returns
    the *additional* affordable steps.  This is what
    :meth:`RdpAccountant.max_steps_for_budget` and the serving layer's
    admission control use.
    """
    if not target_epsilon > 0:  # also rejects NaN
        raise ValueError("target epsilon must be positive")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    per_step = compute_rdp(q, sigma, 1, orders)
    base = (np.zeros(len(orders)) if base_rdp is None
            else np.asarray(base_rdp, dtype=float))
    if base.shape != (len(orders),):
        raise ValueError("base_rdp must align with orders")

    def eps(steps: int) -> float:
        # `steps == 0` must not touch per_step: 0 * inf (sigma <= 0)
        # would poison the curve with NaNs.
        rdp = base if steps == 0 else base + steps * per_step
        if not np.any(rdp):
            return 0.0
        return rdp_to_epsilon(orders, rdp, delta)[0]

    if eps(0) > target_epsilon:
        return 0
    if eps(max_steps) <= target_epsilon:
        return max_steps
    low, high = 0, max_steps  # eps(low) <= target < eps(high)
    while high - low > 1:
        mid = (low + high) // 2
        if eps(mid) <= target_epsilon:
            low = mid
        else:
            high = mid
    return low


def noise_multiplier_for_epsilon(
    target_epsilon: float,
    delta: float,
    sampling_rate: float,
    steps: int,
    lower: float = 0.3,
    upper: float = 64.0,
) -> float:
    """Smallest noise multiplier achieving ``target_epsilon`` (bisection)."""
    if not target_epsilon > 0:  # also rejects NaN
        raise ValueError("target epsilon must be positive")

    def eps(sigma: float) -> float:
        rdp = compute_rdp(sampling_rate, sigma, steps)
        return rdp_to_epsilon(DEFAULT_ORDERS, rdp, delta)[0]

    if eps(upper) > target_epsilon:
        raise ValueError("target epsilon unreachable within sigma bounds")
    for _ in range(60):
        mid = 0.5 * (lower + upper)
        if eps(mid) > target_epsilon:
            lower = mid
        else:
            upper = mid
    return upper
