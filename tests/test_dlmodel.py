"""Tests for the DL-training analytical models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlmodel.casestudy import buddy_batch_speedups
from repro.dlmodel.convergence import accuracy_curve, final_accuracy
from repro.dlmodel.memory import (
    footprint_bytes,
    max_batch_size,
    TITAN_XP_BYTES,
    transition_batch,
)
from repro.dlmodel.networks import NETWORK_BUILDERS, build_network
from repro.dlmodel.throughput import images_per_second, speedup_vs_batch
from repro.dlmodel.layers import Conv2D, Dense, Pool2D


class TestLayers:
    def test_conv_output_shape(self):
        conv = Conv2D(96, 11, stride=4, padding=0)
        assert conv.output_shape((3, 227, 227)) == (96, 55, 55)

    def test_conv_parameters(self):
        conv = Conv2D(96, 11, stride=4, padding=0)
        assert conv.parameters((3, 227, 227)) == 96 * (3 * 121 + 1)

    def test_dense_parameters(self):
        assert Dense(10).parameters((100,)) == 10 * 101

    def test_pool_has_no_parameters(self):
        assert Pool2D(2).parameters((64, 32, 32)) == 0
        assert Pool2D(2).output_shape((64, 32, 32)) == (64, 16, 16)


class TestNetworks:
    def test_all_networks_build(self):
        for name in NETWORK_BUILDERS:
            network = build_network(name)
            assert network.parameter_count > 0
            assert network.flops_per_sample > 0

    def test_known_parameter_counts(self):
        # published sizes: AlexNet ~61M, VGG16 ~138M
        assert 55e6 < build_network("AlexNet").parameter_count < 70e6
        assert 130e6 < build_network("VGG16").parameter_count < 145e6

    def test_unknown_network(self):
        with pytest.raises(KeyError, match="unknown network"):
            build_network("GPT-5")

    def test_vgg_heavier_than_squeezenet(self):
        assert (
            build_network("VGG16").parameter_count
            > 20 * build_network("SqueezeNet").parameter_count
        )


class TestMemory:
    @given(st.sampled_from(sorted(NETWORK_BUILDERS)), st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_footprint_monotone_in_batch(self, name, exponent):
        batch = 2**exponent
        assert footprint_bytes(name, batch) < footprint_bytes(name, batch * 2)

    def test_max_batch_consistency(self):
        for name in ("VGG16", "ResNet50"):
            best = max_batch_size(name)
            assert footprint_bytes(name, best) <= TITAN_XP_BYTES
            assert footprint_bytes(name, best + 1) > TITAN_XP_BYTES

    def test_paper_capacity_stories(self):
        # VGG16 and BigLSTM cannot fit mini-batch 64 in 12 GB (Sec 4.4)
        assert max_batch_size("VGG16") < 64
        assert max_batch_size("BigLSTM") < 64
        # AlexNet's parameter-heavy footprint transitions late (~96)
        assert transition_batch("AlexNet") > 64
        assert transition_batch("ResNet50") <= 32

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            footprint_bytes("VGG16", 0)


class TestThroughput:
    def test_throughput_rises_and_plateaus(self):
        speedups = speedup_vs_batch("ResNet50", (16, 32, 64, 128, 256))
        values = [speedups[b] for b in (16, 32, 64, 128, 256)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] / values[-2] < values[1] / values[0]

    def test_lstm_scales_hardest_with_batch(self):
        """Batch is the LSTM's only parallel axis (Fig. 13b)."""
        lstm = speedup_vs_batch("BigLSTM", (16, 64))[64]
        conv = speedup_vs_batch("SqueezeNet", (16, 64))[64]
        assert lstm > conv

    def test_images_per_second_positive(self):
        assert images_per_second("AlexNet", 32) > 0


class TestCaseStudy:
    def test_mean_speedup_near_paper(self):
        ratios = {name: 1.5 for name in NETWORK_BUILDERS}
        rows = buddy_batch_speedups(ratios)
        from repro.dlmodel.casestudy import mean_speedup

        assert 1.03 < mean_speedup(rows) < 1.35  # paper: 1.14

    def test_speedups_never_negative(self):
        rows = buddy_batch_speedups({name: 2.0 for name in NETWORK_BUILDERS})
        for row in rows:
            assert row.speedup >= 0.999
            assert row.buddy_batch >= row.baseline_batch

    def test_ratio_one_changes_nothing(self):
        rows = buddy_batch_speedups({name: 1.0 for name in NETWORK_BUILDERS})
        for row in rows:
            assert row.buddy_batch == row.baseline_batch
            assert row.speedup == pytest.approx(1.0)


class TestConvergence:
    def test_small_batches_undershoot(self):
        assert final_accuracy(16) < final_accuracy(64) - 0.02
        assert final_accuracy(64) < final_accuracy(256) + 0.02

    def test_curves_reach_final_accuracy(self):
        for batch in (16, 64, 256):
            curve = accuracy_curve(batch, epochs=100)
            assert curve.shape == (100,)
            assert abs(float(curve[-5:].mean()) - final_accuracy(batch)) < 0.05

    def test_larger_batch_converges_faster(self):
        small = accuracy_curve(16, epochs=100)
        large = accuracy_curve(256, epochs=100)
        assert float(large[:40].mean()) > float(small[:40].mean())

    def test_determinism(self):
        np.testing.assert_array_equal(accuracy_curve(64), accuracy_curve(64))

    def test_validation(self):
        with pytest.raises(ValueError):
            final_accuracy(0)
        with pytest.raises(ValueError):
            accuracy_curve(64, epochs=0)
