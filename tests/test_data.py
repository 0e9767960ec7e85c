import dataclasses
import math

import numpy as np
import pytest

from stgormer.data import (FlowDataset, FlowFormatError, Normalizer,
                           SyntheticSpec, fit_normalizer, load_flows,
                           load_timestamps, make_windows, metrics,
                           random_graph, save_flows, save_timestamps, split,
                           step_timestamps, synthesize)
from stgormer.graph import SpatioTemporalGraph


def dataset_from(flows, graph=None):
    flows = np.asarray(flows, dtype=float)
    t, n, _ = flows.shape
    graph = graph or SpatioTemporalGraph.from_edge_list(
        n, [(i, (i + 1) % n) for i in range(n)] if n > 1 else [])
    ts = step_timestamps(t, 4)
    return FlowDataset(flows, ts, graph)


def counting_dataset(t=100, n=3, c=2):
    flows = np.arange(t * n * c, dtype=float).reshape(t, n, c)
    return dataset_from(flows)


class TestSplit:
    def test_exact_proportions(self):
        train, val, test = split(counting_dataset(100))
        assert (train.num_steps, val.num_steps, test.num_steps) == (70, 10, 20)

    def test_remainder_goes_to_test(self):
        train, val, test = split(counting_dataset(101))
        assert (train.num_steps, val.num_steps, test.num_steps) == (70, 10, 21)

    def test_concatenation_reconstructs_original(self):
        ds = counting_dataset(97)
        train, val, test = split(ds)
        rebuilt = np.concatenate([train.flows, val.flows, test.flows])
        assert np.array_equal(rebuilt, ds.flows)
        rebuilt_ts = np.concatenate([train.timestamps, val.timestamps,
                                     test.timestamps])
        assert np.array_equal(rebuilt_ts, ds.timestamps)

    def test_chronological_order(self):
        train, val, test = split(counting_dataset(50))
        assert train.flows.max() < val.flows.min() < test.flows.min()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            split(counting_dataset(5))


class TestMakeWindows:
    def test_counting(self):
        ds = counting_dataset(10)
        assert len(make_windows(ds, 8, 1)) == 2

    def test_boundary_single_sample(self):
        ds = counting_dataset(9)
        assert len(make_windows(ds, 8, 1)) == 1

    def test_matches_slicing_oracle(self):
        rng = np.random.default_rng(60)
        ds = dataset_from(rng.normal(size=(20, 3, 2)))
        for w, sample in enumerate(make_windows(ds, 5, 2)):
            assert np.array_equal(sample.x, ds.flows[w:w + 5])
            assert np.array_equal(sample.x_timestamps, ds.timestamps[w:w + 5])
            assert np.array_equal(sample.y, ds.flows[w + 5:w + 7])

    def test_target_starts_where_input_ends(self):
        ds = counting_dataset(12)
        for sample in make_windows(ds, 4, 2):
            assert sample.y[0, 0, 0] == sample.x[-1, 0, 0] + ds.num_nodes * 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            make_windows(counting_dataset(5), 8, 1)

    def test_windows_never_straddle_split_boundaries(self):
        ds = counting_dataset(40, n=1, c=1)
        for piece in split(ds):
            lo, hi = piece.flows.min(), piece.flows.max()
            for sample in make_windows(piece, 3, 1):
                assert lo <= sample.x.min() and sample.y.max() <= hi


class TestNormalizer:
    def test_constant_channel_rejected(self):
        flows = np.ones((10, 2, 1))
        with pytest.raises(ValueError, match="zero variance"):
            fit_normalizer(dataset_from(flows))

    def test_already_standardized_is_identity(self):
        rng = np.random.default_rng(61)
        flows = rng.normal(size=(200, 4, 2))
        flows -= flows.mean(axis=(0, 1))
        flows /= flows.std(axis=(0, 1))
        norm = fit_normalizer(dataset_from(flows))
        assert np.max(np.abs(norm.apply(flows) - flows)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(62)
        flows = rng.normal(loc=7.0, scale=3.0, size=(50, 3, 2))
        norm = fit_normalizer(dataset_from(flows))
        assert np.max(np.abs(norm.invert(norm.apply(flows)) - flows)) < 1e-12

    def test_no_leakage_from_val_test(self):
        rng = np.random.default_rng(63)
        ds = dataset_from(rng.normal(size=(100, 3, 1)))
        train, val, test = split(ds)
        norm1 = fit_normalizer(train)
        val.flows += 100.0
        test.flows -= 50.0
        norm2 = fit_normalizer(train)
        assert np.array_equal(norm1.mean, norm2.mean)
        assert np.array_equal(norm1.std, norm2.std)


class TestSynthesize:
    def test_identical_parameters_identical_series(self):
        spec = SyntheticSpec(num_nodes=4, edge_prob=0.5, seed=1,
                             daily_period=8, weekly_period=56, total_steps=100,
                             amplitude_range=(3.0, 3.0),
                             phase_range=(1.0, 1.0),
                             weekly_amplitude_range=(0.4, 0.4),
                             diffusion_rounds=0, noise_std=0.0)
        ds = synthesize(spec)
        for v in range(1, 4):
            assert np.array_equal(ds.flows[:, v], ds.flows[:, 0])

    def test_deterministic_by_seed(self):
        spec = SyntheticSpec(seed=42, total_steps=200)
        a, b = synthesize(spec), synthesize(spec)
        assert np.array_equal(a.flows, b.flows)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.graph == b.graph

    def test_noiseless_series_has_weekly_period(self):
        spec = SyntheticSpec(num_nodes=5, seed=7, daily_period=12,
                             weekly_period=84, total_steps=200,
                             diffusion_rounds=2, noise_std=0.0)
        ds = synthesize(spec)
        p = spec.weekly_period
        assert np.max(np.abs(ds.flows[:200 - p] - ds.flows[p:])) < 1e-9

    def test_timestamps_track_periods(self):
        spec = SyntheticSpec(num_nodes=3, seed=3, daily_period=10,
                             weekly_period=70, total_steps=100)
        ds = synthesize(spec)
        assert ds.timestamps[0, 0] == 0.0
        assert ds.timestamps[10, 0] == 0.0
        assert ds.timestamps[5, 0] == 0.5
        assert ds.timestamps[10, 1] == 1.0 / 7.0
        assert np.all((0 <= ds.timestamps) & (ds.timestamps < 1))

    def test_moments_converge_to_implied_values(self):
        spec = SyntheticSpec(num_nodes=6, edge_prob=0.4, seed=11,
                             daily_period=12, weekly_period=84,
                             total_steps=20 * 84, noise_std=0.3)
        ds = synthesize(spec)
        # the noiseless signal repeats with the weekly period, so one period
        # gives its moments exactly; independent noise adds its variance
        one_period = synthesize(dataclasses.replace(
            spec, total_steps=spec.weekly_period, noise_std=0.0)).flows
        mean, var = one_period.mean(), one_period.var() + spec.noise_std ** 2
        assert abs(ds.flows.mean() - mean) / abs(mean) < 0.05
        assert abs(ds.flows.var() - var) / var < 0.05

    def test_diffusion_correlates_neighbors(self):
        base = SyntheticSpec(num_nodes=10, edge_prob=0.4, seed=5,
                             total_steps=500, noise_std=0.0)
        raw = synthesize(dataclasses.replace(base, diffusion_rounds=0))
        smoothed = synthesize(dataclasses.replace(base, diffusion_rounds=3))

        def mean_neighbor_corr(ds):
            series = ds.flows[:, :, 0]
            corrs = []
            for u, v in ds.graph.edges:
                corrs.append(np.corrcoef(series[:, u], series[:, v])[0, 1])
            return np.mean(corrs)

        assert mean_neighbor_corr(smoothed) > mean_neighbor_corr(raw)

    def test_invalid_spec_rejected(self):
        assert SyntheticSpec(num_nodes=0, edge_prob=2.0, weekly_period=100).validate() == [
            "num_nodes, total_steps, and channels must be >= 1",
            "edge_prob must lie in [0, 1]",
            "weekly_period must be a positive multiple of daily_period"]
        with pytest.raises(ValueError, match="multiple"):
            synthesize(SyntheticSpec(daily_period=24, weekly_period=100))

    def test_random_graph_deterministic(self):
        assert random_graph(8, 0.3, 4) == random_graph(8, 0.3, 4)


def metrics_oracle(y, y_hat, threshold):
    """Independent second implementation over explicit loops."""
    picked = [(t, p) for t, p in zip(np.ravel(y), np.ravel(y_hat))
              if t > threshold]
    mae = sum(abs(t - p) for t, p in picked) / len(picked)
    rmse = math.sqrt(sum((t - p) ** 2 for t, p in picked) / len(picked))
    mape = sum(abs(t - p) / t for t, p in picked) / len(picked)
    return mae, rmse, mape, len(picked)


class TestMetrics:
    def test_hand_evaluated_example(self):
        out = metrics(np.array([2.0, 4.0, 0.0]), np.array([3.0, 3.0, 1.0]), 0.0)
        assert out["mae"] == 1.0
        assert out["rmse"] == 1.0
        assert out["mape"] == 0.375
        assert out["count"] == 2

    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        out = metrics(y, y.copy(), 0.0)
        assert out["mae"] == out["rmse"] == out["mape"] == 0.0

    def test_threshold_above_max_rejected(self):
        with pytest.raises(ValueError, match="empty mask"):
            metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 5.0)

    def test_unmasked_equals_textbook_definitions(self):
        rng = np.random.default_rng(64)
        y = rng.uniform(1.0, 10.0, size=(4, 5))
        y_hat = y + rng.normal(size=(4, 5))
        out = metrics(y, y_hat, -np.inf)
        assert abs(out["mae"] - np.abs(y - y_hat).mean()) < 1e-15
        assert abs(out["rmse"] - np.sqrt(((y - y_hat) ** 2).mean())) < 1e-15
        assert out["count"] == y.size

    def test_masking_matches_second_implementation(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            y = rng.uniform(-1.0, 5.0, size=shape)
            y_hat = y + rng.normal(size=shape)
            threshold = float(rng.uniform(-1.0, 2.0))
            if not np.any(y > threshold):
                continue
            got = metrics(y, y_hat, threshold)
            mae, rmse, mape, count = metrics_oracle(y, y_hat, threshold)
            assert abs(got["mae"] - mae) < 1e-12
            assert abs(got["rmse"] - rmse) < 1e-12
            assert abs(got["mape"] - mape) < 1e-12
            assert got["count"] == count

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            metrics(np.zeros(3), np.zeros(4), 0.0)

    def test_zero_target_under_negative_threshold_rejected(self):
        y = np.array([2.0, 0.0, -0.5, 0.0])
        with pytest.raises(ValueError, match="MAPE is undefined: 2 of 4 targets"):
            metrics(y, np.ones(4), -1.0)


class TestFlowFiles:
    def test_minimal_parse(self, tmp_path):
        p = tmp_path / "flows.txt"
        p.write_text("1 2 1\n1.0\n2.0\n")
        g = SpatioTemporalGraph.from_edge_list(2, [(0, 1)])
        ds = load_flows(p, g, np.zeros((1, 2)))
        assert ds.flows.tolist() == [[[1.0], [2.0]]]

    def test_row_count_mismatch_reported(self, tmp_path):
        p = tmp_path / "flows.txt"
        p.write_text("2 2 1\n1.0\n2.0\n3.0\n")
        g = SpatioTemporalGraph.from_edge_list(2, [(0, 1)])
        with pytest.raises(FlowFormatError, match="expected 4 data lines.*found 3"):
            load_flows(p, g, np.zeros((2, 2)))

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "flows.txt"
        p.write_text("1 2 1\n1.0\npotato\n")
        g = SpatioTemporalGraph.from_edge_list(2, [(0, 1)])
        with pytest.raises(FlowFormatError, match="line 3"):
            load_flows(p, g, np.zeros((1, 2)))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "flows.txt"
        p.write_text("2 2 1\n\n1.0\n2.0\npotato\n4.0\n")
        g = SpatioTemporalGraph.from_edge_list(2, [(0, 1)])
        with pytest.raises(FlowFormatError, match="^line 5: "):
            load_flows(p, g, np.zeros((2, 2)))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        p = tmp_path / "flows.txt"
        p.write_text(f"1 3 2\n1.0,2.0\n\n3.0,{cell}\n5.0,6.0\n")
        g = SpatioTemporalGraph.from_edge_list(3, [(0, 1)])
        with pytest.raises(FlowFormatError, match="^line 4: non-finite"):
            load_flows(p, g, np.zeros((1, 2)))

    @pytest.mark.parametrize("t, c, message", [
        (1, 10 ** 15, "header says 1000000000000000 channels but the first data line has 1"),
        (1, 2, "header says 2 channels but the first data line has 1"),
        (1, 0, "channel count 0 is not positive"),
        (0, -3, "channel count -3 is not positive"),
    ])
    def test_header_channel_count_checked_before_allocation(self, tmp_path, t, c, message):
        p = tmp_path / "flows.txt"
        p.write_text(f"{t} 2 {c}\n" + "1.0\n2.0\n" * t)
        g = SpatioTemporalGraph.from_edge_list(2, [(0, 1)])
        with pytest.raises(FlowFormatError, match=f"^line 1: {message}$"):
            load_flows(p, g, np.zeros((t, 2)))

    def test_graph_mismatch_rejected(self, tmp_path):
        p = tmp_path / "flows.txt"
        p.write_text("1 3 1\n1.0\n2.0\n3.0\n")
        g = SpatioTemporalGraph.from_edge_list(2, [(0, 1)])
        with pytest.raises(FlowFormatError, match="graph has 2"):
            load_flows(p, g, np.zeros((1, 3)))

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(66)
        for i in range(5):
            ds = dataset_from(rng.normal(scale=100.0, size=(7, 3, 2)))
            p = tmp_path / f"flows{i}.txt"
            save_flows(p, ds)
            loaded = load_flows(p, ds.graph, ds.timestamps)
            assert np.array_equal(loaded.flows, ds.flows)

    def test_timestamps_round_trip(self, tmp_path):
        rng = np.random.default_rng(67)
        ts = rng.uniform(0, 1, size=(30, 2))
        p = tmp_path / "timestamps.txt"
        save_timestamps(p, ts)
        assert np.array_equal(load_timestamps(p), ts)

    def test_timestamps_range_checked(self, tmp_path):
        p = tmp_path / "timestamps.txt"
        p.write_text("0.5,0.5\n1.5,0.0\n")
        with pytest.raises(FlowFormatError, match="line 2.*outside"):
            load_timestamps(p)
