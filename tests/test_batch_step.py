"""Batched training/sharded-step evaluation vs the scalar simulators.

``training_step_batch`` / ``sharded_step_batch`` must be bitwise
identical to ``simulate_training_step`` / ``simulate_sharded_training_step``
on every grid point — cycles, seconds, link bytes, everything the
``scaling`` and ``design-space`` experiments and the serving
service-time table consume.
"""

import itertools

import numpy as np
import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.interconnect import InterconnectConfig
from repro.core import build_accelerator, build_cluster
from repro.core.packing import PackedOuterProductEngine
from repro.training import (
    Algorithm,
    sharded_step_batch,
    simulate_sharded_training_step,
    simulate_training_step,
    training_step_batch,
)
from repro.training.batch import _PHASE_INDEX
from repro.workloads import build_model

MODELS = ("SqueezeNet", "MobileNet")
ALGORITHMS = ("DP-SGD", "DP-SGD(R)", "SGD")


def _packed_diva():
    """DiVa with a 4-segment packed outer-product engine."""
    diva = build_accelerator("diva", with_ppu=True)
    return Accelerator(
        "DiVa-Pack",
        PackedOuterProductEngine(diva.engine.config, bus_segments=4),
        memory=diva.memory, vector=diva.vector, ppu=diva.ppu)


class TestTrainingStepBatch:
    @pytest.mark.parametrize("kind", ("ws", "os", "diva", "diva-pack"))
    def test_phase_cycles_match_scalar(self, kind):
        if kind == "diva-pack":
            accel = _packed_diva()
        else:
            accel = (build_accelerator("ws") if kind == "ws"
                     else build_accelerator(kind))
        specs, refs = [], []
        for model in MODELS:
            network = build_model(model)
            for algorithm in ALGORITHMS:
                for batch in (8, 32):
                    specs.append((accel, network, Algorithm(algorithm),
                                  batch))
                    refs.append((network, Algorithm(algorithm), batch))
        step = training_step_batch(specs)
        for i, (network, algorithm, batch) in enumerate(refs):
            report = simulate_training_step(network, algorithm, accel,
                                            batch)
            assert int(step.total_cycles[i]) == report.total_cycles
            assert float(step.total_seconds[i]) == report.total_seconds
            for phase, run in report.phases.items():
                assert int(step.phase_cycles[i, _PHASE_INDEX[phase]]) \
                    == run.cycles, (kind, network.name, algorithm, phase)

    def test_empty_specs(self):
        assert len(training_step_batch([])) == 0


def _grid():
    points = []
    for model, algorithm, chips, topology, bucket, overlap in \
            itertools.product(MODELS, ALGORITHMS, (1, 2, 4),
                              ("ring", "all_to_all", "hierarchical"),
                              (None, 2**20), (True, False)):
        chips_per_node = 2 if (topology == "hierarchical"
                               and chips > 1) else 1
        points.append((model, algorithm, 32 * chips, chips, topology,
                       bucket, chips_per_node, overlap))
    return points


class TestShardedStepBatch:
    def test_grid_matches_scalar_simulator(self):
        points = _grid()
        columns = list(zip(*points))
        result = sharded_step_batch(
            list(columns[0]), list(columns[1]), np.array(columns[2]),
            np.array(columns[3]), topologies=list(columns[4]),
            bucket_bytes=list(columns[5]),
            chips_per_node=np.array(columns[6]),
            overlaps=np.array(columns[7]))
        for i, (model, algorithm, batch, chips, topology, bucket,
                chips_per_node, overlap) in enumerate(points):
            cluster = build_cluster(
                "diva", n_chips=chips,
                interconnect=InterconnectConfig(
                    topology=topology, bucket_bytes=bucket,
                    chips_per_node=chips_per_node))
            report = simulate_sharded_training_step(
                build_model(model), Algorithm(algorithm), cluster,
                batch, overlap=overlap)
            assert int(result.total_cycles[i]) == report.total_cycles
            assert float(result.total_seconds[i]) == report.total_seconds
            assert float(result.compute_seconds[i]) == \
                report.compute_seconds
            assert float(result.comm_seconds[i]) == report.comm_seconds
            assert float(result.comm_total_seconds[i]) == \
                report.comm_total_seconds
            assert float(result.comm_hidden_seconds[i]) == \
                report.comm_hidden_seconds
            assert int(result.link_bytes[i]) == report.comm.link_bytes
            assert int(result.local_batch[i]) == report.local_batch
            assert float(result.comm_fraction[i]) == report.comm_fraction

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            sharded_step_batch(["SqueezeNet"], "DP-SGD", 33, 2)

    def test_lopsided_hierarchical_rejected(self):
        with pytest.raises(ValueError, match="hierarchical"):
            sharded_step_batch(["SqueezeNet"], "DP-SGD", 32, 4,
                               topologies="hierarchical",
                               chips_per_node=3)

    def test_chips_per_node_needs_hierarchical(self):
        with pytest.raises(ValueError, match="chips_per_node"):
            sharded_step_batch(["SqueezeNet"], "DP-SGD", 32, 4,
                               topologies="ring", chips_per_node=2)


class TestExperimentBatchedPaths:
    def test_scaling_batched_rows_equal_scalar_oracle(self):
        from repro.experiments import scaling

        work = []
        base, clamped = scaling.default_global_batch_info(
            "SqueezeNet", (1, 2, 4))
        for algorithm in ("DP-SGD", "SGD"):
            for chips in (1, 2, 4):
                work.append(("SqueezeNet", chips, algorithm, "strong",
                             "ring", base, True, 2**20, 1, clamped))
        batched = scaling.evaluate_points_batched(work)
        scalar = [scaling.evaluate_point(*point) for point in work]
        assert batched == scalar

    def test_design_space_batched_rows_equal_scalar_oracle(self):
        from repro.experiments import design_space

        work = [("SqueezeNet", h, w) for h, w in
                ((64, 64), (64, 128), (96, 96))]
        # The (input_size, seq_len) shapes the sensitivity study sends.
        work += [("SqueezeNet", 128, 128, 64, 32),
                 ("LSTM-small", 128, 128, 32, 128)]
        batched = design_space.evaluate_points_batched(work)
        scalar = [design_space.evaluate_point(*point) for point in work]
        assert batched == scalar

    def test_weak_scaling_batched(self):
        from repro.experiments import scaling

        work = [("SqueezeNet", chips, "DP-SGD", "weak", "ring", 16,
                 True, None, 1, False) for chips in (1, 2, 4)]
        batched = scaling.evaluate_points_batched(work)
        scalar = [scaling.evaluate_point(*point) for point in work]
        assert batched == scalar
        assert [row["global_batch"] for row in batched] == [16, 32, 64]
