"""Batched closed-form engine vs the scalar oracles (repro.arch.batch).

The batched evaluators must be *identical* to the scalar paths — same
integers, same floats — on every configuration; these tests pin that
with hypothesis-driven random grids plus handcrafted edge shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import (
    allreduce_seconds_batch,
    first_bucket_seconds_batch,
    gemm_stats_batch,
    link_bytes_per_chip_batch,
    n_buckets_batch,
    topology_codes,
)
from repro.arch.engine import ArrayConfig
from repro.arch.interconnect import Interconnect, InterconnectConfig
from repro.arch.systolic import (
    OutputStationaryEngine,
    WeightStationaryEngine,
)
from repro.core import build_accelerator
from repro.core.outer_product import OuterProductEngine
from repro.core.packing import PackedOuterProductEngine
from repro.workloads.gemms import Gemm

#: ``packed-S`` is the segmented-bus outer product with S bus segments.
ENGINE_KINDS = ("ws", "os", "diva", "packed-1", "packed-4")

#: Edge shapes: exact-fit, remainders in each dimension, unit dims,
#: sub-array dims, multi-count, and a multi-count shape small enough to
#: pack several instances onto one array.
EDGE_SHAPES = (
    (1, 1, 1, 1),
    (128, 128, 128, 1),
    (127, 129, 255, 3),
    (256, 256, 256, 2),
    (1, 128, 1, 5),
    (129, 1, 129, 1),
    (64, 700, 31, 7),
    (16, 64, 16, 32),
)


def _engine(kind: str):
    if kind.startswith("packed-"):
        return PackedOuterProductEngine(
            bus_segments=int(kind.removeprefix("packed-")))
    accel = (build_accelerator("ws") if kind == "ws"
             else build_accelerator(kind))
    return accel.engine


def _assert_batch_equals_scalar(engine, dims):
    m, k, n, c = (np.array(column) for column in zip(*dims))
    batch = gemm_stats_batch(engine, m, k, n, c)
    for i, (mi, ki, ni, ci) in enumerate(dims):
        scalar = engine.gemm_stats(Gemm(mi, ki, ni, ci))
        for field in ("compute_cycles", "macs", "tiles",
                      "sram_read_bytes", "sram_write_bytes"):
            assert int(getattr(batch, field)[i]) == getattr(scalar, field), \
                (engine.name, dims[i], field)


class TestGemmStatsBatch:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_edge_shapes(self, kind):
        _assert_batch_equals_scalar(_engine(kind), EDGE_SHAPES)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(dims=st.lists(
        st.tuples(st.integers(1, 600), st.integers(1, 600),
                  st.integers(1, 600), st.integers(1, 16)),
        min_size=1, max_size=12))
    def test_random_grids_match_scalar(self, kind, dims):
        _assert_batch_equals_scalar(_engine(kind), dims)

    @pytest.mark.parametrize("engine_cls", [WeightStationaryEngine,
                                            OutputStationaryEngine,
                                            OuterProductEngine])
    def test_without_double_buffering(self, engine_cls):
        engine = engine_cls(ArrayConfig(weight_double_buffer=False,
                                        accum_double_buffer=False))
        _assert_batch_equals_scalar(engine, EDGE_SHAPES)

    @pytest.mark.parametrize("bus_segments", [1, 2, 4, 64])
    def test_packing_factors_batch_match_scalar(self, bus_segments):
        engine = PackedOuterProductEngine(bus_segments=bus_segments)
        dims = [(m, n, c) for m in (1, 16, 64, 65, 128, 300)
                for n in (1, 16, 64, 65, 128) for c in (1, 2, 3, 32)]
        m, n, c = (np.array(column) for column in zip(*dims))
        packs = engine.packing_factors_batch(m, n, c)
        assert [int(pack) for pack in packs] == [
            engine.packing_factor(Gemm(mi, 8, ni, ci))
            for mi, ni, ci in dims]

    def test_utilization_matches_scalar(self):
        engine = _engine("diva")
        batch = gemm_stats_batch(engine, [576, 300], [16, 77],
                                 [512, 128], [32, 1])
        for i, dims in enumerate([(576, 16, 512, 32), (300, 77, 128, 1)]):
            assert batch.utilization[i] == pytest.approx(
                engine.gemm_stats(Gemm(*dims)).utilization)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            gemm_stats_batch(_engine("diva"), [0], [1], [1], [1])

    def test_scalar_fallback_without_grid_axes(self):
        engine = _engine("diva")

        class NoGrid(type(engine)):
            grid_axes = None

        fallback = NoGrid(engine.config)
        _assert_batch_equals_scalar(fallback, EDGE_SHAPES[:3])


class TestCollectiveBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.integers(0, 10**9),
        n_chips=st.integers(1, 64),
        topology=st.sampled_from(["ring", "all_to_all", "hierarchical"]),
        bucket_mb=st.sampled_from([None, 1, 4, 25]),
        node_pow=st.integers(0, 3),
    )
    def test_matches_scalar_interconnect(self, payload, n_chips, topology,
                                         bucket_mb, node_pow):
        chips_per_node = 2 ** node_pow if topology == "hierarchical" else 1
        if topology == "hierarchical" and n_chips % chips_per_node:
            n_chips = chips_per_node * max(1, n_chips // chips_per_node)
        bucket = bucket_mb * 2**20 if bucket_mb else None
        config = InterconnectConfig(
            topology=topology, bucket_bytes=bucket,
            chips_per_node=chips_per_node)
        scalar = Interconnect(config)

        p = np.array([payload])
        n = np.array([n_chips])
        topo = topology_codes([topology])
        b = np.array([0 if bucket is None else bucket])
        cpn = np.array([chips_per_node])

        assert allreduce_seconds_batch(p, n, topo, b, cpn)[0] == \
            scalar.allreduce_seconds(payload, n_chips)
        assert first_bucket_seconds_batch(p, n, topo, b, cpn)[0] == \
            scalar.first_bucket_seconds(payload, n_chips)
        assert int(link_bytes_per_chip_batch(p, n, topo, b, cpn)[0]) == \
            scalar.link_bytes_per_chip(payload, n_chips)
        assert int(n_buckets_batch(p, b)[0]) == scalar.n_buckets(payload)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            topology_codes(["torus"])
