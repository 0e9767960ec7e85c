"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is stated inline.
"""
import dataclasses
import time

import numpy as np
import pytest

from permutation import relabel
from windows import one_window, stacked_forward
from stgormer.cli import main
from stgormer.data import (SyntheticSpec, fit_normalizer, make_windows,
                           metrics, split, synthesize)
from stgormer.graph import UNREACHABLE, SpatioTemporalGraph, shortest_path_matrix
from stgormer.model import StgormerConfig, build, loss
from stgormer.moe import load_balance_loss
from stgormer.numerics import finite_difference_check
from stgormer.train import TrainConfig, train_loop


class Budget:
    """Asserts the criterion finished inside its stated runtime budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.name}: {verdict} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.1f}s")
        return False


def desk_config(**overrides):
    base = dict(hidden_dim=8, heads=2, block_order="ST", experts=3,
                expert_expansion=2, time_dim=3, temporal_features=2,
                degree_dim=4, max_degree=8, max_spd=6, alpha=0.01,
                input_len=8, horizon=1, channels=1, seed=7,
                use_time_encoding=True, use_degree_encoding=True,
                use_spd_bias=True, use_moe=True)
    base.update(overrides)
    return StgormerConfig(**base)


def desk_graph(n=6, seed=13, prob=0.35):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < prob]
    return SpatioTemporalGraph.from_edge_list(n, pairs)


def test_criterion_01_spd_oracle_equivalence():
    def floyd_warshall(g):
        n = g.num_nodes
        inf = float("inf")
        dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
        for u, v in g.edges:
            dist[u][v] = 1.0
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        return np.array([[UNREACHABLE if dist[i][j] == inf else int(dist[i][j])
                          for j in range(n)] for i in range(n)])

    with Budget("01 shortest-path oracle equivalence", 5):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.2]
            g = SpatioTemporalGraph.from_edge_list(n, pairs)
            assert np.array_equal(shortest_path_matrix(g),
                                  floyd_warshall(g))


def test_criterion_02_full_model_gradient_check():
    with Budget("02 full-model gradient check", 60):
        cfg = desk_config()  # N=6, T_in=8, T_out=1, D=8, heads=2, E=3, "ST"
        g = desk_graph(6)
        model = build(cfg, g)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(cfg.input_len, 6, 1))
        ts = rng.uniform(0, 1, size=(cfg.input_len, 2))
        y = rng.normal(size=(cfg.horizon, 6, 1))

        def forward():
            pred, usage = stacked_forward(model, x[None], ts[None])
            total, _ = loss(pred, y[None], usage, cfg.alpha)
            return total

        # keep every residual away from the |.| kink so central differences
        # at h=1e-5 probe a smooth region
        residuals = np.abs(one_window(model, x, ts).data - y)
        assert residuals.min() > 1e-3
        err = finite_difference_check(forward, model.store, step=1e-5,
                                      max_coords=200, seed=0)
        assert err < 1e-4, f"max relative gradient error {err:.3e}"


def test_criterion_03_load_balance_extremes():
    with Budget("03 load-balance loss extremes", 1):
        for experts in (2, 4, 6):
            usage = np.array([1.0 / experts] * experts)
            assert abs(load_balance_loss(usage) - 1.0 / experts ** 2) < 1e-12
        rng = np.random.default_rng(3)
        for _ in range(1000):
            experts = int(rng.integers(2, 7))
            point = rng.dirichlet(np.ones(experts))
            value = load_balance_loss(point)
            assert 1.0 / experts ** 2 - 1e-12 <= value <= 1.0 / experts + 1e-12
            if np.max(np.abs(point - 1.0 / experts)) > 1e-9:
                assert value > 1.0 / experts ** 2


def test_criterion_04_ablation_bit_equivalences():
    with Budget("04 ablation bit-equivalences", 30):
        g = desk_graph(6)
        cfg = desk_config()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(cfg.input_len, 6, 1))
        ts = rng.uniform(0, 1, size=(cfg.input_len, 2))

        # (a) disabling the shortest-path bias == zeroing its table
        m_on = build(desk_config(use_spd_bias=True), g)
        m_on.spd_table.data[:] = 0.0
        m_off = build(desk_config(use_spd_bias=False), g)
        assert np.max(np.abs(one_window(m_on, x, ts).data
                             - one_window(m_off, x, ts).data)) < 1e-12

        # (b) disabling time encoding makes outputs timestamp-invariant
        m_no_t = build(desk_config(use_time_encoding=False), g)
        other_ts = rng.uniform(0, 1, size=ts.shape)
        assert np.array_equal(one_window(m_no_t, x, ts).data,
                              one_window(m_no_t, x, other_ts).data)

        # (c) disabling degree encoding makes outputs table-invariant
        m_no_s = build(desk_config(use_degree_encoding=False), g)
        base = one_window(m_no_s, x, ts).data
        m_no_s.degree_tables.z_minus.data[:] += 11.0
        m_no_s.degree_tables.z_plus.data[:] -= 4.0
        assert np.array_equal(one_window(m_no_s, x, ts).data, base)

        # (d) single-expert soft mixture == plain feedforward path, bitwise:
        # both run one fused feedforward node, under a gate of exactly 1.0
        m_one = build(desk_config(use_moe=True, experts=1), g)
        m_plain = build(desk_config(use_moe=False), g)
        assert np.array_equal(one_window(m_one, x, ts).data, one_window(m_plain, x, ts).data)
        assert stacked_forward(m_plain, x[None], ts[None])[1] == []


def test_criterion_05_node_permutation_equivariance():
    with Budget("05 node-permutation equivariance", 30):
        cfg = desk_config()
        g = desk_graph(6)
        n = g.num_nodes
        rng = np.random.default_rng(5)
        x = rng.normal(size=(cfg.input_len, n, 1))
        ts = rng.uniform(0, 1, size=(cfg.input_len, 2))
        base = one_window(build(cfg, g), x, ts).data
        scale = max(1.0, np.max(np.abs(base)))
        for _ in range(10):
            perm = rng.permutation(n).tolist()
            model_p = build(cfg, relabel(g, perm))
            x_perm = np.empty_like(x)
            for v in range(n):
                x_perm[:, perm[v], :] = x[:, v, :]
            out = one_window(model_p, x_perm, ts).data
            for v in range(n):
                dev = np.max(np.abs(out[:, perm[v], :] - base[:, v, :]))
                assert dev / scale < 1e-8


def test_criterion_06_overfit_sanity():
    from stgormer.data import FlowDataset
    from stgormer.numerics import AdamState, adam_step, backward

    with Budget("06 overfit sanity", 600):
        spec = SyntheticSpec(num_nodes=12, edge_prob=0.3, seed=20,
                             daily_period=24, weekly_period=168,
                             total_steps=2016, noise_std=0.05)
        ds = synthesize(spec)
        train_ds, _, _ = split(ds)
        cfg = desk_config(hidden_dim=16, heads=2, block_order="SSTT",
                          experts=4, input_len=12, seed=1)
        model = build(cfg, ds.graph)
        normalizer = fit_normalizer(train_ds)
        model.normalizer = normalizer
        normalized = FlowDataset(normalizer.apply(train_ds.flows),
                                 train_ds.timestamps, train_ds.graph)
        windows = make_windows(normalized, cfg.input_len, cfg.horizon)
        # the normalized split has unit std, so the bar is plain mae < 0.1
        target_mae = 0.1 * float(normalized.flows.std())
        opt = AdamState(lr=1e-3)
        steps = 0
        epoch = 0
        reached = None
        while steps < 2000 and reached is None:
            epoch += 1
            order = np.random.default_rng([2, epoch]).permutation(len(windows))
            abs_sum = 0.0
            count = 0
            for start in range(0, len(order), 32):
                if steps == 2000:
                    break
                batch = order[start:start + 32]
                xs = np.stack([windows[i].x for i in batch])
                tss = np.stack([windows[i].x_timestamps for i in batch])
                ys = np.stack([windows[i].y for i in batch])
                pred, usage = stacked_forward(model, xs, tss)
                total, parts = loss(pred, ys, usage, cfg.alpha)
                backward(total, model.store)
                adam_step(model.store, opt)
                steps += 1
                abs_sum += parts["mae"] * ys.size
                count += ys.size
                if abs_sum / count < target_mae and start + 32 >= len(order):
                    reached = steps
            if count and abs_sum / count < target_mae:
                reached = steps
        assert reached is not None and reached <= 2000, (
            f"train mae still above {target_mae:.3f} after {steps} steps")
        print(f"  (criterion met after {reached} optimizer steps)")


def test_criterion_07_split_protocol():
    with Budget("07 split protocol", 1):
        flows = np.arange(100 * 3 * 1, dtype=float).reshape(100, 3, 1)
        g = SpatioTemporalGraph.from_edge_list(3, [(0, 1), (1, 2)])
        ts = np.stack([np.linspace(0, 0.99, 100),
                       np.zeros(100)], axis=1)
        from stgormer.data import FlowDataset
        ds = FlowDataset(flows, ts, g)
        train_ds, val_ds, test_ds = split(ds)
        assert (train_ds.num_steps, val_ds.num_steps, test_ds.num_steps) == \
            (70, 10, 20)
        bounds = [(0, 69), (70, 79), (80, 99)]
        for piece, (lo, hi) in zip((train_ds, val_ds, test_ds), bounds):
            for input_len in (1, 2, 5):
                for horizon in (1, 2):
                    if piece.num_steps < input_len + horizon:
                        continue
                    for w in make_windows(piece, input_len, horizon):
                        steps = np.concatenate([w.x, w.y]).reshape(-1, 3)[:, 0]
                        indices = steps / 3.0
                        assert indices.min() >= lo and indices.max() <= hi


def test_criterion_08_masked_metrics():
    with Budget("08 masked metrics", 5):
        got = metrics(np.array([2.0, 4.0, 0.0]), np.array([3.0, 3.0, 1.0]), 0.0)
        assert got["mae"] == 1.0 and got["rmse"] == 1.0 and got["mape"] == 0.375

        rng = np.random.default_rng(8)
        for _ in range(100):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            y = rng.uniform(-2.0, 6.0, size=shape)
            y_hat = y + rng.normal(size=shape)
            threshold = float(rng.uniform(-2.0, 3.0))
            mask = y > threshold
            if not mask.any():
                continue
            got = metrics(y, y_hat, threshold)
            assert got["count"] == int(mask.sum())
            err = y[mask] - y_hat[mask]
            assert abs(got["mae"] - np.abs(err).mean()) < 1e-12
            assert abs(got["rmse"] - np.sqrt((err ** 2).mean())) < 1e-12
            assert abs(got["mape"] - (np.abs(err) / np.abs(y[mask])).mean()) < 1e-12


def test_criterion_09_early_stopping():
    with Budget("09 early stopping", 30):
        spec = SyntheticSpec(num_nodes=5, edge_prob=0.4, seed=9,
                             daily_period=8, weekly_period=56,
                             total_steps=120, noise_std=0.05)
        ds = synthesize(spec)
        train_ds, val_ds, _ = split(ds)
        cfg = desk_config(input_len=6)
        tcfg = TrainConfig(batch_size=64, max_epochs=100, patience=25, seed=0)

        def rigged(model_, epoch):
            return 1.0 / epoch if epoch <= 3 else 9.9

        stopped = build(cfg, ds.graph)
        history = train_loop(stopped, (train_ds, val_ds), tcfg,
                             val_metric_fn=rigged)
        assert len(history.epochs) == 28
        assert history.best_epoch == 3

        reference = build(cfg, ds.graph)
        train_loop(reference, (train_ds, val_ds),
                   dataclasses.replace(tcfg, max_epochs=3),
                   val_metric_fn=rigged)
        for (p1, t1), (p2, t2) in zip(stopped.store.items(),
                                      reference.store.items()):
            assert p1 == p2 and np.array_equal(t1.data, t2.data)


def test_criterion_10_study_harness(tmp_path):
    with Budget("10 study harness", 900):
        (tmp_path / "synth.txt").write_text(
            "num_nodes=5\nedge_prob=0.4\nseed=6\ndaily_period=8\n"
            "weekly_period=56\ntotal_steps=120\nnoise_std=0.05\n")
        assert main(["synth", "--spec", str(tmp_path / "synth.txt"),
                     "--out", str(tmp_path / "data")]) == 0
        (tmp_path / "run.txt").write_text(
            "model.hidden_dim=8\nmodel.heads=2\nmodel.experts=2\n"
            "model.expert_expansion=2\nmodel.time_dim=3\nmodel.degree_dim=4\n"
            "model.input_len=6\nmodel.seed=11\ntrain.batch_size=32\n"
            "train.max_epochs=2\ntrain.seed=11\n")

        tables = {}
        for axis, rows in (("ablation", 5), ("block_order", 4)):
            outputs = []
            for attempt in (1, 2):
                out = tmp_path / f"{axis}{attempt}.csv"
                assert main(["study", "--config", str(tmp_path / "run.txt"),
                             "--data", str(tmp_path / "data"),
                             "--axis", axis, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{axis} table not deterministic"
            lines = outputs[0].decode().splitlines()
            assert lines[0] == "variant,mae,rmse,mape,epochs,params"
            assert len(lines) == rows + 1
            tables[axis] = lines
        assert [ln.split(",")[0] for ln in tables["ablation"][1:]] == [
            "full", "no_time_encoding", "no_degree_encoding",
            "no_spd_bias", "no_moe"]
        assert [ln.split(",")[0] for ln in tables["block_order"][1:]] == [
            "SSSTTT", "STSTST", "TTTSSS", "TSTSTS"]


def test_criterion_11_determinism_and_persistence(tmp_path):
    with Budget("11 determinism and persistence", 120):
        (tmp_path / "synth.txt").write_text(
            "num_nodes=5\nedge_prob=0.4\nseed=14\ndaily_period=8\n"
            "weekly_period=56\ntotal_steps=120\nnoise_std=0.05\n")
        assert main(["synth", "--spec", str(tmp_path / "synth.txt"),
                     "--out", str(tmp_path / "data")]) == 0
        (tmp_path / "run.txt").write_text(
            "model.hidden_dim=8\nmodel.heads=2\nmodel.experts=2\n"
            "model.expert_expansion=2\nmodel.time_dim=3\nmodel.degree_dim=4\n"
            "model.input_len=6\nmodel.seed=21\ntrain.batch_size=16\n"
            "train.max_epochs=3\ntrain.seed=21\n")
        for run in ("r1", "r2"):
            assert main(["train", "--config", str(tmp_path / "run.txt"),
                         "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / run)]) == 0
        ckpt1 = (tmp_path / "r1" / "model.ckpt").read_bytes()
        ckpt2 = (tmp_path / "r2" / "model.ckpt").read_bytes()
        assert ckpt1 == ckpt2, "training is not bitwise reproducible"

        for attempt in ("e1", "e2"):
            assert main(["eval", "--checkpoint", str(tmp_path / "r1" / "model.ckpt"),
                         "--data", str(tmp_path / "data"), "--split", "test",
                         "--out", str(tmp_path / f"{attempt}.txt")]) == 0
        assert (tmp_path / "e1.txt").read_bytes() == \
            (tmp_path / "e2.txt").read_bytes()
