import dataclasses

import numpy as np
import pytest

from tensor_ops import add, mean, mul
from traced_memory import peak_bytes
import stgormer.model
from stgormer.data import (FlowDataset, SyntheticSpec, fit_normalizer, make_windows,
                           metrics, split, synthesize)
from stgormer.model import StgormerConfig, build, load_model, loss, save_model
from stgormer.moe import ExpertParams, RouterParams, moe_forward
from stgormer.numerics import AdamState, Tensor, adam_step, backward
from stgormer.train import (DivergenceError, TrainConfig, evaluate, study,
                            study_variants, train_loop)


def tiny_dataset(total_steps=120, num_nodes=5, seed=4, noise=0.05):
    spec = SyntheticSpec(num_nodes=num_nodes, edge_prob=0.4, seed=seed,
                         daily_period=8, weekly_period=56,
                         total_steps=total_steps, noise_std=noise)
    return synthesize(spec)


def tiny_model_config(**overrides):
    base = dict(hidden_dim=8, heads=2, block_order="ST", experts=2,
                expert_expansion=2, time_dim=3, temporal_features=2,
                degree_dim=4, max_degree=8, max_spd=6, input_len=6,
                horizon=1, seed=3)
    base.update(overrides)
    return StgormerConfig(**base)


def tiny_train_config(**overrides):
    base = dict(batch_size=32, max_epochs=3, patience=25, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_early_stopping_rigged_signal(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)

        def rigged(model_, epoch):
            return 1.0 / epoch if epoch <= 3 else 1.0

        history = train_loop(model, (train_ds, val_ds),
                             tiny_train_config(max_epochs=100, patience=25),
                             val_metric_fn=rigged)
        assert len(history.epochs) == 28
        assert history.best_epoch == 3

    def test_early_stopping_restores_best_bitwise(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)

        def rigged(model_, epoch):
            return 1.0 / epoch if epoch <= 3 else 1.0

        stopped = build(tiny_model_config(), ds.graph)
        train_loop(stopped, (train_ds, val_ds),
                   tiny_train_config(max_epochs=100, patience=5),
                   val_metric_fn=rigged)

        reference = build(tiny_model_config(), ds.graph)
        train_loop(reference, (train_ds, val_ds),
                   tiny_train_config(max_epochs=3, patience=5),
                   val_metric_fn=rigged)
        for (p1, t1), (p2, t2) in zip(stopped.store.items(),
                                      reference.store.items()):
            assert p1 == p2
            assert np.array_equal(t1.data, t2.data)

    def test_never_exceeds_best_plus_patience(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)
        history = train_loop(model, (train_ds, val_ds),
                             tiny_train_config(max_epochs=60, patience=4))
        assert len(history.epochs) <= history.best_epoch + 4

    def test_zero_lr_keeps_parameters(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)
        before = model.store.snapshot()
        history = train_loop(model, (train_ds, val_ds),
                             tiny_train_config(max_epochs=2, lr=0.0))
        assert len(history.epochs) == 2
        for path, arr in model.store.snapshot().items():
            assert np.array_equal(arr, before[path])

    def test_reported_train_mae_matches_metrics_module(self):
        ds = tiny_dataset(total_steps=90)
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)
        # lr=0 and one batch per epoch: reported mae equals a recomputed one
        history = train_loop(model, (train_ds, val_ds),
                             tiny_train_config(max_epochs=1, lr=0.0,
                                               batch_size=10_000))
        norm = model.normalizer
        windows = make_windows(
            dataclasses.replace(train_ds, flows=norm.apply(train_ds.flows)),
            model.config.input_len, model.config.horizon)
        xs = np.stack([w.x for w in windows])
        tss = np.stack([w.x_timestamps for w in windows])
        ys = np.stack([w.y for w in windows])
        pred = model.forward_batch(xs, tss)[0].data
        report = metrics(ys, pred, -np.inf)
        assert abs(history.epochs[0].train_mae - report["mae"]) < 1e-12

    def test_expert_fractions_recorded_and_sum_to_one(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)
        history = train_loop(model, (train_ds, val_ds),
                             tiny_train_config(max_epochs=2))
        for record in history.epochs:
            assert len(record.expert_fractions) == 2  # one per block
            for fractions in record.expert_fractions:
                assert abs(sum(fractions) - 1.0) < 1e-10

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)
        with pytest.raises(DivergenceError, match="non-finite"):
            train_loop(model, (train_ds, val_ds),
                       tiny_train_config(max_epochs=10, lr=1e150))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_validation_mae_raises_and_saves_nothing(self, bad, tmp_path):
        ds = tiny_dataset()
        model = build(tiny_model_config(), ds.graph)
        with pytest.raises(DivergenceError, match="non-finite validation MAE .* at epoch 1;"):
            train_loop(model, split(ds)[:2], tiny_train_config(checkpoint_dir=str(tmp_path)),
                       val_metric_fn=lambda model_, epoch: bad)
        assert not (tmp_path / "model.ckpt").exists()

    def test_descent_smoke(self):
        spec = SyntheticSpec(num_nodes=12, edge_prob=0.3, seed=6,
                             daily_period=12, weekly_period=84,
                             total_steps=420, noise_std=0.05)
        ds = synthesize(spec)
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(hidden_dim=16, input_len=12, seed=0),
                      ds.graph)
        history = train_loop(model, (train_ds, val_ds),
                             tiny_train_config(max_epochs=10))
        maes = [r.train_mae for r in history.epochs]
        assert len(maes) == 10
        assert all(b < a for a, b in zip(maes, maes[1:]))

    def test_bitwise_reproducible_history(self):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)

        def run():
            model = build(tiny_model_config(), ds.graph)
            history = train_loop(model, (train_ds, val_ds),
                                 tiny_train_config(max_epochs=3))
            return [(r.train_mae, r.train_lb, r.val_mae) for r in
                    history.epochs], model.store.snapshot()

        rec1, snap1 = run()
        rec2, snap2 = run()
        assert rec1 == rec2
        for path in snap1:
            assert np.array_equal(snap1[path], snap2[path])

    def test_writes_checkpoint_when_dir_given(self, tmp_path):
        ds = tiny_dataset()
        train_ds, val_ds, _ = split(ds)
        model = build(tiny_model_config(), ds.graph)
        train_loop(model, (train_ds, val_ds),
                   tiny_train_config(max_epochs=1,
                                     checkpoint_dir=str(tmp_path / "run")))
        assert (tmp_path / "run" / "model.ckpt").is_file()


class TestGradientsNeverWrittenInPlace:
    """Every ndarray handed to ``Tensor._accumulate`` is marked read-only, so
    any later write into it, by the engine or the optimizer, raises."""

    @pytest.fixture(autouse=True)
    def read_only_gradients(self, monkeypatch):
        accumulate = Tensor._accumulate

        def guarded(node, g, *args, **kwargs):
            if isinstance(g, np.ndarray):
                g.flags.writeable = False
            accumulate(node, g, *args, **kwargs)

        monkeypatch.setattr(Tensor, "_accumulate", guarded)

    def test_train_steps(self):
        cfg = tiny_model_config()
        graph = tiny_dataset().graph
        model = build(cfg, graph)
        before = model.store.snapshot()
        opt = AdamState()
        rng = np.random.default_rng(6)
        for _ in range(2):
            xs = rng.normal(size=(4, cfg.input_len, graph.num_nodes, 1))
            tss = rng.uniform(0.0, 1.0, size=(4, cfg.input_len, cfg.temporal_features))
            ys = rng.normal(size=(4, cfg.horizon, graph.num_nodes, 1))
            pred, usage = model.forward_batch(xs, tss)
            total, _ = loss(pred, ys, usage, cfg.alpha)
            backward(total, model.store)
            adam_step(model.store, opt)
        assert opt.step_count == 2
        assert any(not np.array_equal(t.data, before[p]) for p, t in model.store.items())

    def test_clone_expert_mixture(self):
        rng = np.random.default_rng(63)

        def param(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        shared = ExpertParams(param(3, 5), param(5), param(5, 3), param(3))
        other = ExpertParams(param(3, 5), param(5), param(5, 3), param(3))
        experts = [shared, other, shared,
                   ExpertParams(shared.w1, other.b1, shared.w2, other.b2)]
        x = param(2, 4, 3)
        out, weights = moe_forward(x, experts, RouterParams(param(3, 4), param(4)))
        # the balance term from the loss node, whose MAE (zero against zero) adds nothing
        balance = loss(Tensor(np.zeros(1)), np.zeros(1), [weights], 1.0)[0]
        add(mean(mul(out, out)), balance).backward()
        for t in (x, shared.w1, shared.w2, other.b1, other.b2):
            assert t.grad.shape == t.data.shape and np.isfinite(t.grad).all()


class TestEvaluate:
    def test_deterministic_reports(self):
        ds = tiny_dataset()
        train_ds, val_ds, test_ds = split(ds)
        model = build(tiny_model_config(), ds.graph)
        train_loop(model, (train_ds, val_ds), tiny_train_config(max_epochs=2))
        r1 = evaluate(model, test_ds, 0.0)
        r2 = evaluate(model, test_ds, 0.0)
        assert r1 == r2

    def test_constant_predictor_hand_metrics(self):
        ds = tiny_dataset()
        train_ds, val_ds, test_ds = split(ds)
        model = build(tiny_model_config(), ds.graph)
        train_loop(model, (train_ds, val_ds), tiny_train_config(max_epochs=1))
        # zero head makes every forecast the training mean after denorm
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        report = evaluate(model, test_ds, 0.0)
        mu = model.normalizer.mean[0]
        targets = np.concatenate(
            [w.y for w in make_windows(test_ds, model.config.input_len,
                                       model.config.horizon)])
        mask = targets > 0.0
        expected_mae = np.abs(targets[mask] - mu).mean()
        assert abs(report["mae"] - expected_mae) < 1e-12

    def test_overfit_single_window(self):
        # memorize one sample (validating on it too): evaluation error
        # collapses well below the data scale
        ds = tiny_dataset(total_steps=70, noise=0.0)
        train_ds, _, _ = split(ds)
        cfg = tiny_model_config(input_len=6, hidden_dim=8)
        short = dataclasses.replace(
            train_ds, flows=train_ds.flows[:7], timestamps=train_ds.timestamps[:7])
        model = build(cfg, ds.graph)
        train_loop(model, (short, short),
                   tiny_train_config(max_epochs=400, patience=400, lr=0.01))
        report = evaluate(model, short, threshold=-np.inf)
        assert report["mae"] < 0.01 * ds.flows.std()

    def test_checkpoint_round_trip_reproduces_report(self, tmp_path):
        ds = tiny_dataset()
        train_ds, val_ds, test_ds = split(ds)
        model = build(tiny_model_config(), ds.graph)
        train_loop(model, (train_ds, val_ds), tiny_train_config(max_epochs=2))
        before = evaluate(model, test_ds, 0.0)
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt")
        after = evaluate(loaded, test_ds, 0.0)
        assert before == after

    def test_memory_does_not_grow_with_batch_count(self):
        # each batch's autodiff graph must be freed before the next batch runs
        ds = tiny_dataset()
        model = build(tiny_model_config(), ds.graph)
        model.normalizer = fit_normalizer(ds)
        span = model.config.input_len + model.config.horizon - 1

        def eval_peak(batches):
            steps = span + 16 * batches
            part = FlowDataset(ds.flows[:steps], ds.timestamps[:steps], ds.graph)
            return peak_bytes(lambda: evaluate(model, part, 0.0, batch_size=16))[1]

        one, three = eval_peak(1), eval_peak(3)
        assert three <= 1.5 * one, f"peak {three} B over 3 batches vs {one} B over 1"

    def test_memory_does_not_grow_with_batch_count_after_two_spatial_blocks(self):
        # the same bound when the step-local half runs two blocks and its
        # output is gathered into each batch's windows
        ds = tiny_dataset()
        model = build(tiny_model_config(block_order="SSTT"), ds.graph)
        model.normalizer = fit_normalizer(ds)
        span = model.config.input_len + model.config.horizon - 1

        def eval_peak(batches):
            steps = span + 16 * batches
            part = FlowDataset(ds.flows[:steps], ds.timestamps[:steps], ds.graph)
            return peak_bytes(lambda: evaluate(model, part, 0.0, batch_size=16))[1]

        one, three = eval_peak(1), eval_peak(3)
        assert three <= 1.5 * one, f"peak {three} B over 3 batches vs {one} B over 1"

    def test_leading_spatial_blocks_run_once_per_step(self, monkeypatch):
        # 18 test windows in batches of 7, 7 and 4: blocks 0-2 see each step
        # of a batch once, (B + T - 1) * N tokens, and blocks 3-5 each window,
        # B * T * N tokens
        ds = tiny_dataset(num_nodes=12)
        test_ds = split(ds)[2]
        model = build(tiny_model_config(block_order="SSSTTT"), ds.graph)
        model.normalizer = fit_normalizer(ds)
        t, n = model.config.input_len, 12
        rows = []

        def counted(x, experts, router):
            rows.append(int(np.prod(x.shape[:-1])))
            return moe_forward(x, experts, router)

        monkeypatch.setattr(stgormer.model, "moe_forward", counted)
        evaluate(model, test_ds, 0.0, batch_size=7)
        batches = (7, 7, 4)
        assert len(make_windows(test_ds, t, 1)) == sum(batches)
        assert rows == [r for b in batches
                        for r in [(b + t - 1) * n] * 3 + [b * t * n] * 3]

    def test_empty_split_rejected(self):
        ds = tiny_dataset()
        train_ds, val_ds, test_ds = split(ds)
        model = build(tiny_model_config(), ds.graph)
        train_loop(model, (train_ds, val_ds), tiny_train_config(max_epochs=1))
        stub = dataclasses.replace(test_ds, flows=test_ds.flows[:3],
                                   timestamps=test_ds.timestamps[:3])
        with pytest.raises(ValueError, match="too short"):
            evaluate(model, stub, 0.0)


class TestStudy:
    def test_variant_grids(self):
        assert [name for name, _ in study_variants("ablation")] == [
            "full", "no_time_encoding", "no_degree_encoding",
            "no_spd_bias", "no_moe"]
        assert [name for name, _ in study_variants("block_count")] == [
            "ST", "SSTT", "SSSTTT", "SSSSTTTT"]
        assert [name for name, _ in study_variants("block_order")] == [
            "SSSTTT", "STSTST", "TTTSSS", "TSTSTS"]
        with pytest.raises(ValueError, match="axis"):
            study_variants("nonsense")

    def test_ablation_study_rows(self):
        ds = tiny_dataset(total_steps=100)
        rows = study(tiny_model_config(), tiny_train_config(max_epochs=1),
                     ds, "ablation")
        assert [r["variant"] for r in rows] == [
            "full", "no_time_encoding", "no_degree_encoding",
            "no_spd_bias", "no_moe"]
        # dropping encodings or experts shrinks the parameter count
        params = {r["variant"]: r["params"] for r in rows}
        assert params["no_time_encoding"] < params["full"]
        assert params["no_degree_encoding"] < params["full"]
        assert params["no_moe"] < params["full"]
        assert params["no_spd_bias"] == params["full"]

    def test_study_deterministic(self):
        ds = tiny_dataset(total_steps=100)
        run = lambda: study(tiny_model_config(), tiny_train_config(max_epochs=1),
                            ds, "block_order")
        assert run() == run()

    def test_failing_variant_names_itself(self):
        ds = tiny_dataset(total_steps=100)
        bad = tiny_model_config(heads=3)  # 8 not divisible by 3
        with pytest.raises(RuntimeError, match="variant 'full'"):
            study(bad, tiny_train_config(max_epochs=1), ds, "ablation")
