"""Integration tests: the experiment harness reproduces the paper's shape.

These run each figure/table on a reduced model subset (for speed) and
assert the qualitative results the paper reports: orderings, approximate
factors and crossovers.  EXPERIMENTS.md records the full-model numbers.
"""

import pytest

from repro.experiments import (
    fig04_memory,
    fig05_breakdown,
    fig07_utilization,
    fig13_speedup,
    fig14_breakdown,
    fig15_flops,
    fig16_energy,
    fig17_gpu,
    maxbatch,
    ppu_traffic,
    sensitivity,
    table1_bandwidth,
    table3_area_power,
)
from repro.training import Algorithm, Phase
from repro.workloads import GemmKind

FAST_MODELS = ("SqueezeNet", "LSTM-small")


class TestFig04:
    rows = fig04_memory.run(FAST_MODELS)

    def test_three_bars_per_model(self):
        assert len(self.rows) == 3 * len(FAST_MODELS)

    def test_dp_sgd_dominated_by_example_grads(self):
        for row in self.rows:
            if row.algorithm is Algorithm.DP_SGD:
                assert row.breakdown.fraction("example_gradients") > 0.5

    def test_dp_sgd_r_shrinks_memory(self):
        by_algo = {(r.model, r.algorithm): r for r in self.rows}
        for model in FAST_MODELS:
            dp = by_algo[(model, Algorithm.DP_SGD)].breakdown.total
            dp_r = by_algo[(model, Algorithm.DP_SGD_R)].breakdown.total
            assert dp_r < dp
        # The deep CNN shows the full reduction (paper avg: 3.8x).
        squeeze_dp = by_algo[("SqueezeNet", Algorithm.DP_SGD)]
        squeeze_r = by_algo[("SqueezeNet", Algorithm.DP_SGD_R)]
        assert squeeze_r.breakdown.total < squeeze_dp.breakdown.total / 2

    def test_render(self):
        assert "Figure 4" in fig04_memory.render(self.rows)


class TestFig05:
    rows = fig05_breakdown.run(FAST_MODELS)

    def test_dp_sgd_slowdown_range(self):
        """Paper: order-of-magnitude slowdown on the WS baseline."""
        for row in self.rows:
            if row.algorithm is Algorithm.DP_SGD:
                assert row.normalized_total > 3.0

    def test_dp_sgd_r_beats_dp_sgd(self):
        by_algo = {(r.model, r.algorithm): r for r in self.rows}
        for model in FAST_MODELS:
            assert (by_algo[(model, Algorithm.DP_SGD_R)].normalized_total
                    < by_algo[(model, Algorithm.DP_SGD)].normalized_total)

    def test_sgd_normalized_to_one(self):
        for row in self.rows:
            if row.algorithm is Algorithm.SGD:
                assert row.normalized_total == pytest.approx(1.0)

    def test_render(self):
        assert "slowdown" in fig05_breakdown.render(self.rows)


class TestFig07:
    rows = fig07_utilization.run(FAST_MODELS)

    def test_example_grads_lowest_utilization(self):
        for row in self.rows:
            ex = row.utilization[GemmKind.WGRAD_EXAMPLE]
            assert ex < row.utilization[GemmKind.FORWARD]
            assert ex < row.utilization[GemmKind.WGRAD_BATCH]

    def test_utilizations_bounded(self):
        for row in self.rows:
            for value in row.utilization.values():
                assert 0.0 < value <= 1.0


class TestFig13:
    rows = fig13_speedup.run(FAST_MODELS)

    def test_diva_beats_everything(self):
        for row in self.rows:
            diva = row.dp_speedups["DiVa with PPU"]
            assert diva > 1.5
            assert diva >= row.dp_speedups["DiVa w/o PPU"]
            assert diva > row.dp_speedups["OS with PPU"]

    def test_os_close_to_ws(self):
        """Paper: OS alone is no cure (Figure 13)."""
        for row in self.rows:
            assert 0.5 < row.dp_speedups["OS w/o PPU"] < 1.6

    def test_diva_sgd_beats_ws_sgd(self):
        for row in self.rows:
            assert row.sgd_speedups["DiVa"] > row.sgd_speedups["WS"]

    def test_summary_keys(self):
        stats = fig13_speedup.summarize(self.rows)
        assert stats["diva_speedup_max"] >= stats["diva_speedup_avg"]


class TestFig14:
    rows = fig14_breakdown.run(("SqueezeNet",))

    def test_ws_normalized_to_one(self):
        ws = next(r for r in self.rows if r.design == "WS")
        assert ws.normalized_total == pytest.approx(1.0)

    def test_ppu_eliminates_norm_stage(self):
        with_ppu = next(r for r in self.rows if r.design == "DiVa with PPU")
        without = next(r for r in self.rows if r.design == "DiVa w/o PPU")
        norm_with = with_ppu.report.phase_seconds(Phase.BWD_GRAD_NORM)
        norm_without = without.report.phase_seconds(Phase.BWD_GRAD_NORM)
        assert norm_with < norm_without / 10

    def test_example_grad_reduction(self):
        reductions = fig14_breakdown.example_grad_reduction(self.rows)
        assert reductions["SqueezeNet"] > 2.0


class TestFig15:
    rows = fig15_flops.run(("SqueezeNet", "LSTM-small"))

    def test_ws_improvement_is_one(self):
        for row in self.rows:
            if row.engine == "WS":
                for value in row.improvement.values():
                    assert value == pytest.approx(1.0)

    def test_diva_improves_example_grads(self):
        for row in self.rows:
            if row.engine == "DiVa":
                assert row.improvement[GemmKind.WGRAD_EXAMPLE] > 2.0


class TestFig16:
    rows = fig16_energy.run(("SqueezeNet",))

    def test_diva_cheapest(self):
        by_design = {r.design: r.normalized_total for r in self.rows}
        assert by_design["DiVa with PPU"] < by_design["DiVa w/o PPU"]
        assert by_design["DiVa with PPU"] < by_design["WS"] / 1.5

    def test_ws_is_baseline(self):
        ws = next(r for r in self.rows if r.design == "WS")
        assert ws.normalized_total == pytest.approx(1.0)


class TestFig17:
    rows = fig17_gpu.run(("SqueezeNet", "MobileNet", "BERT-base"))

    def test_mobilenet_gpu_wins(self):
        """Section VI-D: the one workload where GPUs beat DiVa."""
        row = next(r for r in self.rows if r.model == "MobileNet")
        assert row.speedup("DiVa (BF16)", "V100 (FP16)") < 1.0

    def test_bert_diva_wins(self):
        """Despite 4.2x lower peak FLOPS, DiVa beats V100 Tensor Cores
        on Transformer bottleneck GEMMs (Section VI-D)."""
        row = next(r for r in self.rows if r.model == "BERT-base")
        assert row.speedup("DiVa (BF16)", "V100 (FP16)") > 1.0

    def test_tensor_cores_faster_than_fp32(self):
        for row in self.rows:
            assert row.seconds["V100 (FP16)"] <= row.seconds["V100 (FP32)"]
            assert row.seconds["A100 (FP16)"] <= row.seconds["A100 (FP32)"]


class TestTables:
    def test_table1_exact(self):
        result = table1_bandwidth.run()
        assert result.ws.total == 2816
        assert result.os_outer.total == 4608

    def test_table3_effective_ordering(self):
        """DiVa's engine sustains far higher effective TFLOPS."""
        diva = table3_area_power.effective_tflops("diva", FAST_MODELS)
        ws = table3_area_power.effective_tflops("ws", FAST_MODELS)
        os_ = table3_area_power.effective_tflops("os", FAST_MODELS)
        assert diva > 3 * ws
        assert ws > os_

    def test_table3_render(self):
        result = table3_area_power.run(FAST_MODELS)
        text = table3_area_power.render(result)
        assert "Outer-product" in text


class TestSensitivity:
    def test_speedup_decays_with_image_size(self):
        """Section VI-C: bigger inputs shrink DiVa's edge."""
        points = sensitivity.run_images(sizes=(32, 128),
                                        models=("SqueezeNet",))
        avg = sensitivity.averages(points)
        assert avg["img128"] < avg["img32"]

    def test_speedup_decays_with_seq_len(self):
        points = sensitivity.run_sequences(lens=(32, 128),
                                           models=("LSTM-small",))
        avg = sensitivity.averages(points)
        assert avg["seq128"] < avg["seq32"]

    def test_points_match_table2_scalar_step(self):
        """The batched study equals scalar steps on the Table II chips."""
        from repro.core import build_accelerator
        from repro.training import (
            Algorithm,
            max_batch_size,
            simulate_training_step,
        )
        from repro.workloads import build_model

        ws = build_accelerator("ws")
        diva = build_accelerator("diva", with_ppu=True)
        points = (sensitivity.run_images(sizes=(64,),
                                         models=("SqueezeNet",))
                  + sensitivity.run_sequences(lens=(128,),
                                              models=("LSTM-small",)))
        for point, (input_size, seq_len) in zip(points,
                                                ((64, 32), (32, 128))):
            network = build_model(point.model, input_size=input_size,
                                  seq_len=seq_len)
            batch = max_batch_size(network, Algorithm.DP_SGD)
            base = simulate_training_step(network, Algorithm.DP_SGD_R, ws,
                                          batch)
            ours = simulate_training_step(network, Algorithm.DP_SGD_R,
                                          diva, batch)
            assert point.batch == batch
            assert point.speedup == base.total_seconds / ours.total_seconds


class TestMaxBatchAndTraffic:
    def test_maxbatch_rows(self):
        rows = maxbatch.run(("SqueezeNet",))
        assert rows[0].sgd > rows[0].dp_sgd
        assert rows[0].dp_sgd_r >= rows[0].dp_sgd

    def test_ppu_traffic_reduction(self):
        rows = ppu_traffic.run(FAST_MODELS)
        for row in rows:
            assert row.reduction > 0.9

    def test_renders(self):
        assert "16 GB" in maxbatch.render(maxbatch.run(("SqueezeNet",)))
        assert "%" in ppu_traffic.render(ppu_traffic.run(("SqueezeNet",)))
