"""Benchmark: functional DP-SGD step throughput (Algorithm 1).

Measures the NumPy substrate's per-step cost for both gradient
procedures — the software-side counterpart of the compute trade-off the
paper characterizes (DP-SGD(R) trades a second backprop for memory).
"""

import numpy as np

from repro.dpml import (
    Conv2D,
    Dense,
    DpSgdOptimizer,
    Flatten,
    PrivacyParams,
    ReLU,
    Sequential,
    compute_rdp,
    synthetic_images,
)
from repro.dpml.accountant import _single_step_rdp


def _setup(seed=0):
    rng = np.random.default_rng(seed)
    net = Sequential([
        Conv2D(3, 16, rng=rng), ReLU(),
        Conv2D(16, 16, rng=rng), ReLU(), Flatten(),
        Dense(16 * 8 * 8, 10, rng=rng),
    ])
    data = synthetic_images(64, 3, 8, 10, seed=seed)
    opt = DpSgdOptimizer(net, privacy=PrivacyParams(1.0, 1.0),
                         rng=np.random.default_rng(seed))
    return opt, data.x[:32], data.y[:32]


def test_dpsgd_step(benchmark):
    opt, x, y = _setup()
    result = benchmark(opt.step_dpsgd, x, y)
    assert result.mean_loss > 0


def test_reweighted_step(benchmark):
    opt, x, y = _setup()
    result = benchmark(opt.step_reweighted, x, y)
    assert result.mean_loss > 0


def test_sgd_step(benchmark):
    opt, x, y = _setup()
    result = benchmark(opt.step_sgd, x, y)
    assert result.mean_loss > 0


def test_rdp_accounting(benchmark):
    """A cold RDP curve: the per-step curve cache is cleared before
    every round, so each round prices the whole order ladder."""
    rdp = benchmark.pedantic(compute_rdp, args=(0.01, 1.1, 1000),
                             setup=_single_step_rdp.cache_clear,
                             rounds=20, iterations=1)
    assert rdp.min() >= 0
