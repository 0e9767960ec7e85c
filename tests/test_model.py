import dataclasses
import io
import pathlib
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutation import relabel
from tensor_ops import absolute, add, mean, mul, sub, total
from traced_memory import kept_bytes, peak_bytes, tracing
from windows import one_window, stacked_forward
import stgormer.model
import stgormer.moe
from stgormer.cli import load_data_dir, main
from stgormer.data import Normalizer, save_timestamps, split, write_flow_tensor
from stgormer.graph import SpatioTemporalGraph, save_graph
from stgormer.model import (StgormerConfig, build, load_model, loss, read_param_block,
                            save_model, write_param_block)
from stgormer.numerics import ParameterStore, Tensor, backward, finite_difference_check


def small_graph(n=6, seed=2, prob=0.35):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < prob]
    return SpatioTemporalGraph.from_edge_list(n, pairs)


def reseal(path, edit):
    """Edit a checkpoint's contents and write it back under a matching CRC-32
    trailer, as a writer of the edited contents would."""
    body = edit(path.read_bytes()[:-4])
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


def small_config(**overrides):
    base = dict(hidden_dim=8, heads=2, block_order="ST", experts=3,
                expert_expansion=2, time_dim=3, temporal_features=2,
                degree_dim=4, max_degree=8, max_spd=6, alpha=0.01,
                input_len=8, horizon=1, channels=1, seed=9)
    base.update(overrides)
    return StgormerConfig(**base)


def sample_inputs(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cfg.input_len, n, cfg.channels))
    ts = rng.uniform(0, 1, size=(cfg.input_len, cfg.temporal_features))
    y = rng.normal(size=(cfg.horizon, n, cfg.channels))
    return x, ts, y


class TestBuild:
    def test_block_structure_follows_order(self):
        model = build(small_config(block_order="ST"), small_graph())
        assert [b.axis for b in model.blocks] == ["S", "T"]
        assert model.blocks[0].axis == "S"

    def test_same_seed_same_initial_checkpoint(self, tmp_path):
        g = small_graph()
        m1 = build(small_config(), g)
        m2 = build(small_config(), g)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_different_parameters(self):
        g = small_graph()
        m1 = build(small_config(seed=1), g)
        m2 = build(small_config(seed=2), g)
        assert not np.array_equal(m1.fusion_w.data, m2.fusion_w.data)

    def test_parameter_count_audit(self):
        cfg = small_config()
        model = build(cfg, small_graph())
        d, k, dt = cfg.hidden_dim, cfg.temporal_features, cfg.time_dim
        fusion_in = cfg.channels + k * dt + cfg.degree_dim
        expected = (
            k * 2 * dt                                   # time encodings
            + 2 * (cfg.max_degree + 2) * cfg.degree_dim  # degree tables
            + fusion_in * d + d                          # fusion projection
            + (cfg.max_spd + 3)                          # spd bias table
        )
        hidden = cfg.expert_expansion * d
        per_block = (
            4 * d * d + 3 * d                            # attention (no key bias)
            + 4 * d                                      # two layer norms
            + cfg.experts * (2 * d * hidden + hidden + d)  # experts
            + d * cfg.experts + cfg.experts              # router
        )
        expected += len(cfg.block_order) * per_block
        expected += cfg.input_len * d * cfg.horizon * cfg.channels \
            + cfg.horizon * cfg.channels                 # regression head
        assert model.parameter_count() == expected

    def test_invalid_configs_rejected_with_all_errors(self):
        cfg = small_config(hidden_dim=7, heads=2, block_order="SX", experts=0)
        msgs = cfg.validate()
        assert len(msgs) == 3
        with pytest.raises(ValueError, match="not divisible"):
            build(cfg, small_graph())

    def test_routers_have_disjoint_paths_per_axis(self):
        model = build(small_config(block_order="ST"), small_graph())
        paths = model.store.paths()
        spatial = [p for p in paths if "spatial.ffn.router" in p]
        temporal = [p for p in paths if "temporal.ffn.router" in p]
        assert spatial and temporal
        assert not set(spatial) & set(temporal)


class TestForward:
    def test_output_shape_contract(self):
        cfg = small_config(horizon=3)
        g = small_graph()
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        assert one_window(model, x, ts).shape == (3, g.num_nodes, 1)

    def test_block_order_realized_in_sequence(self, monkeypatch):
        cfg = small_config(block_order="STTS")
        g = small_graph()
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        trace = []
        for axis, name in (("S", "spatial_attention"), ("T", "temporal_attention")):
            real = getattr(stgormer.model, name)

            def record(*args, axis=axis, real=real):
                trace.append(axis)
                return real(*args)

            monkeypatch.setattr(stgormer.model, name, record)
        stacked_forward(model, x[None], ts[None])
        assert trace == ["S", "T", "T", "S"]

    def test_shape_errors(self):
        cfg = small_config()
        g = small_graph()
        model = build(cfg, g)
        model.normalizer = Normalizer(mean=np.zeros(1), std=np.ones(1))
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        with pytest.raises(ValueError, match="window length 4 != configured input_len 8"):
            model.predict(x[:4], ts[:4])
        with pytest.raises(ValueError, match=re.escape(
                "timestamps shape (8, 1) != expected (8, 2)")):
            model.predict(x, ts[:, :1])
        with pytest.raises(ValueError, match=re.escape(
                "timestamps shape (7, 2) != expected (8, 2)")):
            model.predict(x, ts[:-1])

    def test_forward_deterministic(self):
        cfg = small_config()
        g = small_graph()
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        assert np.array_equal(one_window(model, x, ts).data,
                              one_window(model, x, ts).data)

    def test_node_permutation_equivariance(self):
        cfg = small_config()
        g = small_graph()
        n = g.num_nodes
        x, ts, _ = sample_inputs(cfg, n)
        base = one_window(build(cfg, g), x, ts).data
        rng = np.random.default_rng(77)
        for _ in range(5):
            perm = rng.permutation(n).tolist()
            permuted_model = build(cfg, relabel(g, perm))
            x_perm = np.empty_like(x)
            for v in range(n):
                x_perm[:, perm[v], :] = x[:, v, :]
            out = one_window(permuted_model, x_perm, ts).data
            for v in range(n):
                diff = np.abs(out[:, perm[v], :] - base[:, v, :])
                assert np.max(diff) < 1e-8 * max(1.0, np.max(np.abs(base)))


class TestAblationEquivalences:
    def test_spd_bias_off_equals_zero_table(self):
        g = small_graph()
        cfg_on = small_config(use_spd_bias=True)
        cfg_off = small_config(use_spd_bias=False)
        m_on, m_off = build(cfg_on, g), build(cfg_off, g)
        m_on.spd_table.data[:] = 0.0
        x, ts, _ = sample_inputs(cfg_on, g.num_nodes)
        a = one_window(m_on, x, ts).data
        b = one_window(m_off, x, ts).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_time_encoding_off_ignores_timestamps(self):
        g = small_graph()
        cfg = small_config(use_time_encoding=False)
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        other_ts = np.random.default_rng(123).uniform(0, 1, size=ts.shape)
        assert np.array_equal(one_window(model, x, ts).data,
                              one_window(model, x, other_ts).data)

    def test_time_encoding_on_uses_timestamps(self):
        g = small_graph()
        cfg = small_config(use_time_encoding=True)
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        other_ts = np.random.default_rng(123).uniform(0, 1, size=ts.shape)
        assert not np.array_equal(one_window(model, x, ts).data,
                                  one_window(model, x, other_ts).data)

    def test_degree_encoding_off_ignores_tables(self):
        g = small_graph()
        cfg = small_config(use_degree_encoding=False)
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        before = one_window(model, x, ts).data
        model.degree_tables.z_minus.data[:] += 3.5
        model.degree_tables.z_plus.data[:] -= 1.25
        assert np.array_equal(one_window(model, x, ts).data, before)

    def test_both_encodings_off_depends_only_on_flows(self):
        g = small_graph()
        cfg = small_config(use_time_encoding=False, use_degree_encoding=False)
        model = build(cfg, g)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        base = one_window(model, x, ts).data
        other_ts = np.random.default_rng(9).uniform(0, 1, size=ts.shape)
        model.degree_tables.z_minus.data[:] += 2.0
        for feature in model.time_params:
            feature.w.data[:] *= -3.0
        assert np.array_equal(one_window(model, x, other_ts).data, base)

    def test_moe_off_equals_single_expert_mixture(self):
        g = small_graph()
        m_single = build(small_config(use_moe=True, experts=1), g)
        m_plain = build(small_config(use_moe=False, experts=5), g)
        x, ts, _ = sample_inputs(small_config(), g.num_nodes)
        # one fused feedforward node either way, under a gate of exactly 1.0
        assert np.array_equal(one_window(m_single, x, ts).data, one_window(m_plain, x, ts).data)

    def test_moe_off_has_no_balance_loss(self):
        g = small_graph()
        cfg = small_config(use_moe=False)
        model = build(cfg, g)
        x, ts, y = sample_inputs(cfg, g.num_nodes)
        pred, weights = stacked_forward(model, x[None], ts[None])
        assert weights == []
        total, parts = loss(pred, y[None], weights, cfg.alpha)
        assert parts["lb"] == 0.0 and parts["usage"] == []
        assert total.item() == parts["mae"]


def composed_loss(pred, target, weights, alpha):
    """The loss as the graph of small ops that the one loss node replaced."""
    mae = mean(absolute(sub(pred, Tensor(target))))
    if not weights:
        return mae
    lb = None
    for w in weights:
        usage = mean(w.reshape(-1, w.shape[-1]), axis=0)
        term = mul(total(mul(usage, usage)), 1.0 / float(usage.shape[-1]))
        lb = term if lb is None else add(lb, term)
    return add(mae, mul(mul(lb, 1.0 / len(weights)), alpha))


class TestLoss:
    @pytest.mark.parametrize("overrides", [{}, {"block_order": "STS"}, {"use_moe": False}])
    def test_one_node_is_bitwise_the_composed_loss(self, overrides):
        # the value and the gradients, into the loss's own inputs and through
        # the model into every parameter
        cfg = small_config(**overrides)
        model = build(cfg, small_graph())
        x, ts, y = sample_inputs(cfg, 6, seed=5)

        def run(objective):
            pred, weights = stacked_forward(model, x[None], ts[None])
            leaves = [Tensor(t.data, requires_grad=True) for t in [pred, *weights]]
            value = objective(leaves[0], y[None], leaves[1:], cfg.alpha)
            value.backward()
            backward(objective(pred, y[None], weights, cfg.alpha), model.store)
            return [value.data] + [t.grad for t in leaves] + [t.grad for _, t in model.store.items()]

        fused = run(lambda *args: loss(*args)[0])
        for got, want in zip(fused, run(composed_loss), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_zero_residual(self):
        pred = Tensor(np.array([1.0, 2.0]))
        total, parts = loss(pred, np.array([1.0, 2.0]), [], 0.5)
        assert parts["mae"] == 0.0
        assert total.item() == 0.0

    def test_alpha_zero_collapses_to_mae(self):
        weights = Tensor([0.7, 0.1, 0.1, 0.1])
        pred = Tensor(np.array([2.0, 0.0]))
        total, parts = loss(pred, np.zeros(2), [weights], 0.0)
        assert total.item() == parts["mae"] == 1.0

    def test_hand_evaluated_total(self):
        pred = Tensor(np.array([1.0, -2.0, 3.0]))
        target = np.zeros(3)
        weights = Tensor([1.0 / 6.0] * 6)
        total, parts = loss(pred, target, [weights], 0.01)
        assert parts["mae"] == 2.0
        assert abs(parts["lb"] - 1.0 / 36.0) < 1e-15
        assert abs(total.item() - (2.0 + 0.01 / 36.0)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            loss(Tensor(np.zeros(3)), np.zeros(4), [], 0.0)


class TestPredict:
    @pytest.mark.parametrize("overrides", [
        {"block_order": order} for order in ("SSSTTT", "STST", "TTSS")] + [{"horizon": 3}])
    @pytest.mark.parametrize("nodes", [5, 7, 13, 24])
    def test_unit_normalizer_is_bitwise_one_forecast_window(self, overrides, nodes):
        cfg = small_config(**overrides)
        model = build(cfg, small_graph(n=nodes))
        model.normalizer = Normalizer(mean=np.zeros(1), std=np.ones(1))
        x, ts, _ = sample_inputs(cfg, nodes)
        assert model.predict(x, ts).tobytes() == model.forecast(x, ts, 1)[0].tobytes()

    def test_affine_inverse(self):
        g = small_graph()
        cfg = small_config()
        model = build(cfg, g)
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        model.normalizer = Normalizer(mean=np.array([5.0]), std=np.array([2.0]))
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        pred = model.predict(x, ts)
        assert np.array_equal(pred, np.full(pred.shape, 5.0))

    def test_round_trip_matches_manual_composition(self):
        g = small_graph()
        cfg = small_config()
        model = build(cfg, g)
        normalizer = Normalizer(mean=np.array([3.0]), std=np.array([1.5]))
        model.normalizer = normalizer
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        manual = normalizer.invert(one_window(model, normalizer.apply(x), ts).data)
        assert np.max(np.abs(model.predict(x, ts) - manual)) < 1e-12

    def test_requires_normalizer(self):
        model = build(small_config(), small_graph())
        x, ts, _ = sample_inputs(model.config, model.graph.num_nodes)
        with pytest.raises(ValueError, match="normalizer"):
            model.predict(x, ts)


class TestFrozenInference:
    def test_frozen_default_batch_keeps_no_graph(self):
        # default config, 12 nodes, batch 32: a recorded graph holds hundreds
        # of MiB after the call; a frozen forward keeps only its output
        cfg = StgormerConfig()
        model = build(cfg, small_graph(n=12, seed=5, prob=0.3))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, cfg.input_len, 12, cfg.channels))
        ts = rng.uniform(0, 1, size=(32, cfg.input_len, cfg.temporal_features))
        with model.store.frozen():
            (pred, usage), kept = kept_bytes(lambda: stacked_forward(model, x, ts))
        assert kept < 2 ** 20, f"{kept / 2 ** 20:.1f} MiB live after a frozen forward"
        assert not pred.requires_grad and not any(u.requires_grad for u in usage)

    def test_recorded_default_batch_retains_under_150_mib(self):
        # the graph a training step keeps until backward: attention keeps only
        # its input and probabilities, the residual layer norm its row means
        # and inverse deviations, not the sum (the unfused graph kept about
        # 236 MiB)
        cfg = StgormerConfig()
        model = build(cfg, small_graph(n=12, seed=5, prob=0.3))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, cfg.input_len, 12, cfg.channels))
        ts = rng.uniform(0, 1, size=(32, cfg.input_len, cfg.temporal_features))
        (pred, _), kept = kept_bytes(lambda: stacked_forward(model, x, ts))
        assert pred.requires_grad
        assert kept < 150 * 2 ** 20, f"{kept / 2 ** 20:.1f} MiB live after a recorded forward"

    def test_default_step_keeps_under_95_mib_and_backward_frees_as_it_runs(self):
        # about 84 MiB of graph (110 when each post-norm kept its normalized
        # rows); backward releases each node once it has run and peaks at
        # about 1.15 times the graph (1.75 when every interior gradient lived
        # until backward returned)
        cfg = StgormerConfig()
        model = build(cfg, small_graph(n=12, seed=5, prob=0.3))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, cfg.input_len, 12, cfg.channels))
        ts = rng.uniform(0, 1, size=(32, cfg.input_len, cfg.temporal_features))
        y = rng.normal(size=(32, cfg.horizon, 12, cfg.channels))

        def forward():
            pred, usage = stacked_forward(model, x, ts)
            return loss(pred, y, usage, cfg.alpha)[0]

        with tracing():
            total, kept = kept_bytes(forward)
            _, extra = peak_bytes(lambda: backward(total, model.store))
        assert kept < 95 * 2 ** 20, f"{kept / 2 ** 20:.1f} MiB live after a recorded forward"
        assert kept + extra < 1.35 * kept, (
            f"backward peaks at {(kept + extra) / kept:.2f} times the recorded graph")

    def test_recorded_default_batch_without_moe_keeps_under_95_mib(self):
        # the lone expert runs the fused mixture node under a unit gate, which
        # keeps no hidden layer: about 74 MiB (a graph of linear, relu and
        # linear keeps about 187)
        cfg = StgormerConfig(use_moe=False)
        model = build(cfg, small_graph(n=12, seed=5, prob=0.3))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, cfg.input_len, 12, cfg.channels))
        ts = rng.uniform(0, 1, size=(32, cfg.input_len, cfg.temporal_features))
        (pred, _), kept = kept_bytes(lambda: stacked_forward(model, x, ts))
        assert pred.requires_grad
        assert kept < 95 * 2 ** 20, f"{kept / 2 ** 20:.1f} MiB live after a recorded forward"

    def test_frozen_default_batch_peak(self):
        # each block's attention, norm and feedforward outputs are freed once
        # consumed, and the fused primitives build their temporaries a block
        # at a time: about 9.5 MiB at peak, where keeping the attention and
        # feedforward outputs into the next block takes about 14.0
        cfg = StgormerConfig()
        model = build(cfg, small_graph(n=12, seed=5, prob=0.3))
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, cfg.input_len, 12, cfg.channels))
        ts = rng.uniform(0, 1, size=(32, cfg.input_len, cfg.temporal_features))
        with model.store.frozen():
            _, peak = peak_bytes(lambda: stacked_forward(model, x, ts))
        assert peak < 12 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB at peak"

    def test_frozen_forward_is_bitwise_the_recorded_one(self):
        cfg = small_config()
        model = build(cfg, small_graph())
        x, ts, _ = sample_inputs(cfg, 6)
        recorded = one_window(model, x, ts)
        with model.store.frozen():
            frozen = one_window(model, x, ts)
        assert recorded.requires_grad
        assert frozen.data.tobytes() == recorded.data.tobytes()

    def test_predict_keeps_each_parameter_flag(self):
        cfg = small_config()
        model = build(cfg, small_graph())
        model.normalizer = Normalizer(mean=np.array([0.0]), std=np.array([1.0]))
        frozen_path = "blocks.00.spatial.ffn.expert1.w2"
        model.store[frozen_path].requires_grad = False
        x, ts, _ = sample_inputs(cfg, 6)
        model.predict(x, ts)
        assert [p for p, t in model.store.items() if not t.requires_grad] == [frozen_path]


def batched_forecast(model, flows, ts, batch_size):
    """What ``forecast`` replaces: frozen ``forward_batch`` on the stacked
    windows, ``batch_size`` windows at a time, with no step shared."""
    t = model.config.input_len
    count = len(flows) - t + 1
    preds = []
    with model.store.frozen():
        for start in range(0, count, batch_size):
            starts = range(start, min(start + batch_size, count))
            preds.append(stacked_forward(model, np.stack([flows[i:i + t] for i in starts]),
                                         np.stack([ts[i:i + t] for i in starts]))[0].data)
    return np.concatenate(preds)


def step_sequence(cfg, n, steps, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(steps, n, cfg.channels)),
            rng.uniform(0, 1, size=(steps, cfg.temporal_features)))


# Outside the golden config a step-local pass may leave the MoE a tail block
# of at most 10 rows, whose second GEMM (K = expansion * width) OpenBLAS
# rounds differently from the same rows inside a larger block.
FORECAST_ATOL = 1e-12


class TestForecast:
    @pytest.mark.parametrize("overrides", [
        {"block_order": order} for order in ("SSSTTT", "STSTST", "TTTSSS", "TSTSTS", "SS", "T")
    ] + [{toggle: False} for toggle in ("use_time_encoding", "use_degree_encoding",
                                        "use_spd_bias", "use_moe")] + [{"horizon": 3}])
    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_matches_batched_forward(self, overrides, batch_size):
        # 13 windows: batch 4 does not divide them, batch 32 takes them at once
        cfg = small_config(input_len=6, **overrides)
        model = build(cfg, small_graph())
        flows, ts = step_sequence(cfg, 6, 18)
        got = model.forecast(flows, ts, batch_size)
        want = batched_forecast(model, flows, ts, batch_size)
        assert got.shape == (13, cfg.horizon, 6, cfg.channels)
        np.testing.assert_allclose(got, want, rtol=0, atol=FORECAST_ATOL)

    def test_default_width_matches_batched_forward(self):
        cfg = StgormerConfig(block_order="SSTT", input_len=4)
        model = build(cfg, small_graph(n=5))
        flows, ts = step_sequence(cfg, 5, 40)
        np.testing.assert_allclose(model.forecast(flows, ts, 16),
                                   batched_forecast(model, flows, ts, 16),
                                   rtol=0, atol=FORECAST_ATOL)

    @pytest.mark.parametrize("batch_size", [32, 16, 7, 1])
    def test_golden_config_is_bitwise_the_batched_forward(self, batch_size):
        data = load_data_dir(pathlib.Path(__file__).parent / "golden" / "data")
        cfg = StgormerConfig(hidden_dim=8, heads=2, block_order="ST", experts=2,
                             expert_expansion=2, time_dim=3, degree_dim=4, input_len=6,
                             horizon=1, seed=12)
        model = build(cfg, data.graph)
        test = split(data)[2]
        got = model.forecast(test.flows, test.timestamps, batch_size)
        assert got.tobytes() == batched_forecast(model, test.flows, test.timestamps,
                                                 batch_size).tobytes()

    def test_keeps_each_parameter_flag(self):
        model = build(small_config(), small_graph())
        model.store["head.w"].requires_grad = False
        model.forecast(*step_sequence(model.config, 6, 10), 2)
        assert [p for p, t in model.store.items() if not t.requires_grad] == ["head.w"]

    def test_too_few_steps_rejected(self):
        model = build(small_config(), small_graph())
        with pytest.raises(ValueError, match="7 steps hold no window of input_len=8"):
            model.forecast(*step_sequence(model.config, 6, 7), 4)



def window_batch(cfg, n, batch, steps=60, seed=0):
    """A step sequence, ``batch`` shuffled windows of it, overlapping as a
    training batch's do, and their targets: the windows both stacked and as
    their distinct steps plus a (B, T) index into those."""
    flows, ts = step_sequence(cfg, n, steps, seed)
    t = cfg.input_len
    rng = np.random.default_rng(seed + 1)
    starts = rng.permutation(steps - t - cfg.horizon + 1)[:batch]
    distinct, windows = np.unique(starts[:, None] + np.arange(t), return_inverse=True)
    ys = np.stack([flows[s + t:s + t + cfg.horizon] for s in starts])
    stacked = (np.stack([flows[s:s + t] for s in starts]),
               np.stack([ts[s:s + t] for s in starts]))
    return stacked, (flows[distinct], ts[distinct], windows.reshape(batch, t)), ys


def recorded_step(model, forward, ys):
    """The loss, gate usage, forecast and parameter gradients of one recorded
    ``forward()`` and its backward."""
    pred, weights = forward()
    total, parts = loss(pred, ys, weights, model.config.alpha)
    backward(total, model.store)
    return total.item(), parts["usage"], pred.data, {p: t.grad for p, t in model.store.items()}


def short_moe_tail(model, rows):
    """Whether ``rows`` tokens leave the MoE a tail block of at most 10 rows."""
    cfg = model.config
    block = stgormer.moe._BLOCK_BYTES // (8 * cfg.experts * cfg.expert_expansion * cfg.hidden_dim)
    return cfg.use_moe and 0 < rows % block <= 10


class TestSharedSteps:
    """A training batch's recorded forward over its distinct steps, gathered
    into the windows, against the per-window graph of the same windows."""

    def check(self, cfg, nodes, batch, steps=60):
        model = build(cfg, small_graph(n=nodes, seed=5, prob=0.3))
        stacked, shared, ys = window_batch(cfg, nodes, batch, steps)
        want = recorded_step(model, lambda: stacked_forward(model, *stacked), ys)
        got = recorded_step(model, lambda: model.forward_batch(*shared), ys)
        # A step-local MoE tail block of at most 10 rows is rounded by another
        # OpenBLAS kernel than the same rows inside a larger block (see
        # FORECAST_ATOL); every other token keeps its bits.
        if short_moe_tail(model, len(shared[0]) * nodes):
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
            for a, b in zip(got[1], want[1]):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)
        else:
            assert got[0] == want[0]
            assert [u.tobytes() for u in got[1]] == [u.tobytes() for u in want[1]]
            assert got[2].tobytes() == want[2].tobytes()
        # the scatter sums a step's window gradients before the leading
        # blocks' GEMMs, so the parameter gradients move in the last bits
        for path, g in want[3].items():
            assert np.abs(got[3][path] - g).max() <= 1e-12 * np.abs(g).max(), path

    @pytest.mark.parametrize("overrides", [
        {"block_order": order} for order in ("SSSTTT", "STST", "SS", "T")
    ] + [{"use_moe": False}, {"use_time_encoding": False}, {"horizon": 3}])
    @pytest.mark.parametrize("nodes,batch", [(12, 32), (7, 6)])
    def test_matches_per_window_graph(self, overrides, nodes, batch):
        self.check(small_config(input_len=12, **overrides), nodes, batch)

    # 44 steps hold 32 windows over 43 distinct steps: 516 tokens leave the
    # MoE's 128-row blocks a 4-row tail
    @pytest.mark.parametrize("order,nodes,batch,steps", [
        ("SSSTTT", 12, 32, 60), ("SSSTTT", 12, 32, 44), ("STST", 7, 6, 60)])
    def test_default_width_matches_per_window_graph(self, order, nodes, batch, steps):
        self.check(StgormerConfig(block_order=order), nodes, batch, steps)

    def test_finite_difference(self):
        cfg = small_config(block_order="SST", input_len=4)
        model = build(cfg, small_graph())
        _, shared, ys = window_batch(cfg, 6, 4, steps=12, seed=1)
        assert len(shared[0]) < 4 * cfg.input_len  # the windows overlap

        def fwd():
            pred, weights = model.forward_batch(*shared)
            return loss(pred, ys, weights, cfg.alpha)[0]

        assert finite_difference_check(fwd, model.store, max_coords=120) < 1e-4


class TestFullGradient:
    def test_full_model_finite_difference(self):
        cfg = small_config()
        g = small_graph()
        model = build(cfg, g)
        x, ts, y = sample_inputs(cfg, g.num_nodes, seed=5)

        def fwd():
            pred, usage = stacked_forward(model, x[None], ts[None])
            total, _ = loss(pred, y[None], usage, cfg.alpha)
            return total

        assert finite_difference_check(fwd, model.store, max_coords=120) < 1e-4

    def test_backward_releases_every_interior_node(self):
        cfg = small_config()
        g = small_graph()
        model = build(cfg, g)
        x, ts, y = sample_inputs(cfg, g.num_nodes, seed=5)
        pred, usage = stacked_forward(model, x[None], ts[None])
        total, _ = loss(pred, y[None], usage, cfg.alpha)
        interior, stack = {}, [total]
        while stack:
            node = stack.pop()
            if node._backward_fn is not None and id(node) not in interior:
                interior[id(node)] = node
                stack.extend(node._prev)
        backward(total, model.store)
        assert len(interior) == 23
        assert all(n.grad is None and n._backward_fn is None for n in interior.values())
        assert all(t.grad is not None for _, t in model.store.items())


def param_block_bytes(store: ParameterStore) -> bytes:
    manifest, payload = write_param_block(store)
    return manifest + b"".join(payload)


class TestParamBlock:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(12)
        store = ParameterStore()
        store.add("deep.nested.w", rng.normal(size=(3, 4)))
        store.add("bias", rng.normal(size=7))
        store.add("table", rng.normal(size=(2, 2, 2)))
        buf = io.BytesIO(param_block_bytes(store))
        values = read_param_block(buf)
        assert buf.read() == b""
        assert set(values) == {"deep.nested.w", "bias", "table"}
        for p, t in store.items():
            assert np.array_equal(values[p], t.data)
            assert values[p].dtype == np.float64

    def test_save_is_deterministic(self):
        store = ParameterStore()
        store.add("b", np.array([1.0]))
        store.add("a", np.array([2.0, 3.0]))
        assert param_block_bytes(store) == param_block_bytes(store)

    def test_bad_magic_rejected(self):
        # the block's "[params]" tag is its magic
        with pytest.raises(ValueError, match=r"expected \[params\]"):
            read_param_block(io.BytesIO(b"something else\n"))


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        g = small_graph()
        cfg = small_config()
        model = build(cfg, g)
        model.normalizer = Normalizer(mean=np.array([1.23456789012345]),
                                      std=np.array([2.34567890123456]))
        rng = np.random.default_rng(4)
        for _, t in model.store.items():
            t.data += rng.normal(scale=0.01, size=t.data.shape)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == cfg
        assert loaded.graph == g
        assert np.array_equal(loaded.normalizer.mean, model.normalizer.mean)
        assert np.array_equal(loaded.normalizer.std, model.normalizer.std)
        for (p1, t1), (p2, t2) in zip(model.store.items(), loaded.store.items()):
            assert p1 == p2
            assert np.array_equal(t1.data, t2.data)
        x, ts, _ = sample_inputs(cfg, g.num_nodes)
        assert np.array_equal(one_window(model, x, ts).data,
                              one_window(loaded, x, ts).data)

    def test_save_twice_identical_bytes(self, tmp_path):
        model = build(small_config(), small_graph())
        p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"nonsense\n")
        with pytest.raises(ValueError, match="magic"):
            load_model(p)

    def test_missing_config_field_takes_default(self, tmp_path):
        cfg = small_config(alpha=0.5)
        model = build(cfg, small_graph())
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        reseal(p, lambda body: body.replace(b"\nalpha=0.5\n", b"\n", 1))
        loaded = load_model(p)
        assert loaded.config == dataclasses.replace(cfg, alpha=StgormerConfig().alpha)
        for (_, t1), (_, t2) in zip(model.store.items(), loaded.store.items()):
            assert np.array_equal(t1.data, t2.data)

    @pytest.mark.parametrize("line,renamed", [
        (b"num_nodes=", b"nodes="), (b"directed=", b"direct="), (b"edges=", b"arcs="),
        (b"present=", b"has="), (b"mean=", b"avg="), (b"std=", b"sd=")])
    def test_renamed_graph_or_normalizer_key_rejected(self, tmp_path, line, renamed):
        model = build(small_config(), small_graph())
        model.normalizer = Normalizer(mean=np.array([1.5]), std=np.array([2.5]))
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        assert p.read_bytes().count(b"\n" + line) == 1
        reseal(p, lambda body: body.replace(b"\n" + line, b"\n" + renamed))
        with pytest.raises(ValueError, match="corrupt checkpoint: .*" + line[:-1].decode()):
            load_model(p)

    def test_flipped_payload_bit_rejected(self, tmp_path):
        model = build(small_config(), small_graph())
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        data = bytearray(p.read_bytes())
        data[-100] ^= 0x01
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt checkpoint: CRC-32"):
            load_model(p)

    def test_truncated_trailer_rejected(self, tmp_path):
        model = build(small_config(), small_graph())
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(ValueError, match="corrupt checkpoint: truncated checksum"):
            load_model(p)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flipped_byte_or_truncation_rejected(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_model(build(small_config(), small_graph()), p)
        raw = bytearray(p.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
                st.integers(1, 255), label="mask")
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_model(p)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flipped_byte_names_the_checkpoint_fault(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_model(build(small_config(), small_graph()), p)
        raw = bytearray(p.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask")
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            load_model(p)
        assert str(info.value).startswith(("corrupt checkpoint:", "not a model checkpoint:"))

    def test_loaded_parameters_equal_saved_bitwise(self, tmp_path):
        model = build(small_config(), small_graph())
        rng = np.random.default_rng(11)
        for _, t in model.store.items():
            t.data += rng.normal(scale=0.1, size=t.data.shape)
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.store.paths() == model.store.paths()
        for (_, saved), (_, got) in zip(model.store.items(), loaded.store.items()):
            assert got.data.tobytes() == saved.data.tobytes()

    def test_load_allocates_no_gradient_buffers(self, tmp_path, monkeypatch):
        model = build(small_config(), small_graph())
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        calls = []
        zeros_like = np.zeros_like

        def counting_zeros_like(*args, **kwargs):
            calls.append(args[0].shape)
            return zeros_like(*args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
        loaded = load_model(p)
        monkeypatch.undo()
        assert calls == []
        assert all(t.grad is None and t.requires_grad for _, t in loaded.store.items())
        for (_, saved), (_, got) in zip(model.store.items(), loaded.store.items()):
            assert got.data.tobytes() == saved.data.tobytes()

    def test_load_draws_no_parameters(self, tmp_path, monkeypatch):
        p = tmp_path / "model.ckpt"
        save_model(build(small_config(), small_graph()), p)

        def no_draw(seed, path):
            raise AssertionError(f"load_model drew {path!r}")

        monkeypatch.setattr(stgormer.model, "_path_rng", no_draw)
        load_model(p)

    def test_paths_not_matching_the_config_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        save_model(build(small_config(block_order="ST"), small_graph()), p)
        reseal(p, lambda body: body.replace(b"\nblock_order=ST\n", b"\nblock_order=TS\n"))
        with pytest.raises(ValueError, match=r"checkpoint incompatible with its config: "
                           r"missing=\['blocks\.00\.temporal.*"
                           r"unexpected=\['blocks\.00\.spatial"):
            load_model(p)

    def test_non_finite_values_rejected_naming_the_first_path(self, tmp_path):
        p = tmp_path / "model.ckpt"
        model = build(small_config(), small_graph())
        paths = model.store.paths()
        model.store[paths[-1]].data.flat[0] = np.nan
        model.store[paths[1]].data.flat[-1] = -np.inf
        save_model(model, p)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint: non-finite values in parameter '{paths[1]}'")):
            load_model(p)
        model.store[paths[-1]].data.flat[0] = model.store[paths[1]].data.flat[-1] = 0.0
        model.normalizer = Normalizer(mean=np.array([np.inf]), std=np.array([1.0]))
        save_model(model, p)
        with pytest.raises(ValueError, match="non-finite values in normalizer 'mean'"):
            load_model(p)

    def test_parameter_shapes_not_matching_the_config_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        save_model(build(small_config(expert_expansion=2), small_graph()), p)
        reseal(p, lambda body: body.replace(b"\nexpert_expansion=2\n",
                                            b"\nexpert_expansion=3\n"))
        with pytest.raises(ValueError, match=r"missing=\['blocks\.00\.spatial\.ffn\.expert0"
                           r"\.b1 \(shape \(16,\), expected \(24,\)\)'.* unexpected=\[\]"):
            load_model(p)

    def test_truncated_payload_rejected(self, tmp_path):
        model = build(small_config(), small_graph())
        p = tmp_path / "model.ckpt"
        save_model(model, p)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(p)


class TestResealedCheckpointThroughMain:
    """Sections edited under a valid checksum, as ``predict`` meets them."""

    def predict(self, tmp_path, capsys, pattern, replacement):
        cfg = small_config()
        model = build(cfg, small_graph())
        model.normalizer = Normalizer(mean=np.array([1.5]), std=np.array([2.5]))
        ckpt = tmp_path / "model.ckpt"
        save_model(model, ckpt)
        reseal(ckpt, lambda body: re.sub(pattern, replacement, body, count=1))
        x, ts, _ = sample_inputs(cfg, 6)
        write_flow_tensor(tmp_path / "window.txt", x)
        save_timestamps(tmp_path / "window_ts.txt", ts)
        forecast = tmp_path / "forecast.txt"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--window", str(tmp_path / "window.txt"),
                     "--timestamps", str(tmp_path / "window_ts.txt"),
                     "--out", str(forecast)])
        assert not forecast.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("pattern, replacement, message", [
        # unchecked, a zero std forecasts nan and a negative one a finite, wrong value
        (rb"\nstd=2\.5\n", b"\nstd=0.0\n", "normalizer 'std' has a value <= 0"),
        (rb"\nstd=2\.5\n", b"\nstd=-2.5\n", "normalizer 'std' has a value <= 0"),
        (rb"\nmean=1\.5\n", b"\nmean=1.5,1.5\n",
         "normalizer 'mean' has 2 values but config says channels=1"),
        (rb"\nstd=2\.5\n", b"\nstd=\n", "[normalizer] could not convert string to float: ''"),
        (rb"\nmean=1\.5\n", b"\nmean=1.5;2\n",
         "[normalizer] could not convert string to float: '1.5;2'"),
    ])
    def test_bad_normalizer_rejected(self, tmp_path, capsys, pattern, replacement, message):
        code, err = self.predict(tmp_path, capsys, pattern, replacement)
        assert (code, err) == (2, f"error: corrupt checkpoint: {message}\n")

    @pytest.mark.parametrize("pattern, replacement, message", [
        (rb"\nedges=", b"\nedges=0:x;", "invalid literal for int() with base 10: 'x'"),
        (rb"\nedges=", b"\nedges=0;", "invalid literal for int() with base 10: ''"),
        (rb"\nnum_nodes=6\n", b"\nnum_nodes=six\n",
         "invalid literal for int() with base 10: 'six'"),
        (rb"\ndirected=true\n", b"\ndirected=yes\n", "expected true or false, got 'yes'"),
        (rb"\nedges=", b"\nedges=0:9;", "edge 0->9 out of range for 6 nodes"),
        (rb"\nedges=", b"\nedges=0:0;", "self-loop 0->0 not allowed"),
        (rb"\nedges=([^;\n]+)", rb"\nedges=\1;\1", "duplicate edge"),
    ])
    def test_malformed_graph_section_rejected(self, tmp_path, capsys, pattern, replacement,
                                              message):
        code, err = self.predict(tmp_path, capsys, pattern, replacement)
        assert code == 2
        assert err.startswith(f"error: corrupt checkpoint: [graph] {message}")

    @pytest.mark.parametrize("pattern, replacement, message", [
        (rb"\npresent=true\n", b"\npresent=maybe\n",
         "[normalizer] expected true or false, got 'maybe'"),
        (rb"\nhead\.b 1\n", b"\nhead.b x\n",
         "parameter 'head.b' has extent 'x', not a non-negative integer"),
        (rb"\nhead\.b 1\n", b"\nhead.b -2\n",
         "parameter 'head.b' has extent '-2', not a non-negative integer"),
        (rb"\n\[data\]\n", b"\n[date]\n", "expected [data] after the manifest, got '[date]'"),
        (rb"\nalpha=", b"\nalpha\xff=",
         "[config] line 3 is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 5"),
        (rb"\nhead\.b 1\n", b"\nhead.b\xff 1\n", "[params] line 89 is not UTF-8"),
        (rb"\nhidden_dim=8\n", b"\nhidden_dim=0\n", "hidden_dim must be >= 1"),
        (rb"\nhead\.b 1\n", b"\nhead.c 1\n",
         "checkpoint incompatible with its config: missing=['head.b'] unexpected=['head.c']"),
    ], ids=["present-maybe", "extent-x", "extent-negative", "data-renamed", "config-0xff",
            "params-0xff", "config-invalid", "manifest-renamed"])
    def test_malformed_body_through_encode(self, tmp_path, capsys, pattern, replacement,
                                           message):
        graph = small_graph()
        model = build(small_config(), graph)
        model.normalizer = Normalizer(mean=np.array([1.5]), std=np.array([2.5]))
        ckpt = tmp_path / "model.ckpt"
        save_model(model, ckpt)
        reseal(ckpt, lambda body: re.sub(pattern, replacement, body, count=1))
        save_graph(graph, tmp_path / "graph.txt")
        out = tmp_path / "encodings"
        code = main(["encode", "--graph", str(tmp_path / "graph.txt"), "--out", str(out),
                     "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: corrupt checkpoint: {message}")
        assert err.count("corrupt checkpoint") == 1
        assert not (out / "sa_bias.csv").exists()
