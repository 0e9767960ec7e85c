"""Training loop with early stopping, evaluation on original scale, study grids.

Training minimizes mean absolute error plus the weighted balance loss on the
normalized scale; evaluation reports masked metrics on the original scale.
Everything is deterministic given seed, config, and data.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import FlowDataset, fit_normalizer, make_windows, metrics, split
from .model import StgormerConfig, StgormerModel, build, loss, save_model
from .numerics import AdamState, adam_step, backward, scheduled_lr


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or validation MAE."""


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 25
    seed: int = 0
    checkpoint_dir: str = ""
    threshold: float = 0.0
    lr: float = 1e-3
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 25
    lr_floor: float = 1e-5

    def validate(self) -> list[str]:
        errors = []
        if self.batch_size < 1:
            errors.append("batch_size must be >= 1")
        if self.max_epochs < 1:
            errors.append("max_epochs must be >= 1")
        if self.patience < 1:
            errors.append("patience must be >= 1")
        if self.lr < 0:
            errors.append("lr must be non-negative")
        if not (0 < self.lr_decay_factor <= 1):
            errors.append("lr_decay_factor must lie in (0, 1]")
        if self.lr_decay_every < 1:
            errors.append("lr_decay_every must be >= 1")
        if self.lr_floor < 0:
            errors.append("lr_floor must be >= 0")
        return errors


@dataclass
class EpochRecord:
    epoch: int
    train_mae: float
    train_lb: float
    val_mae: float
    lr: float
    expert_fractions: list[list[float]]
    wall_time: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def best_val_mae(self) -> float:
        return self.epochs[self.best_epoch - 1].val_mae


def _stack_windows(windows, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.stack([windows[i].x for i in indices])
    tss = np.stack([windows[i].x_timestamps for i in indices])
    ys = np.stack([windows[i].y for i in indices])
    return xs, tss, ys


def _normalized_dataset(ds: FlowDataset, normalizer) -> FlowDataset:
    return FlowDataset(normalizer.apply(ds.flows), ds.timestamps, ds.graph)


# No batch's autodiff graph outlives its batch: training keeps only ndarrays
# and floats from each forward_batch, so memory does not grow with the number
# of batches. Validation and evaluation run frozen and build no graph at all.
def _train_step(model: StgormerModel, opt: AdamState, xs, tss, ys, epoch: int) -> dict:
    """One optimizer step on a batch; returns the loss parts, gate usage included."""
    pred, weights = model.forward_batch(xs, tss)
    total, parts = loss(pred, ys, weights, model.config.alpha)
    if not np.isfinite(total.item()):
        raise DivergenceError(
            f"non-finite loss at epoch {epoch} (mae={parts['mae']}, "
            f"lb={parts['lb']}); lower the learning rate")
    backward(total, model.store)
    adam_step(model.store, opt)
    return parts


def _validation_mae(model: StgormerModel, ds: FlowDataset, targets: np.ndarray,
                    batch_size: int) -> float:
    """Plain MAE over all validation windows, on the normalized scale; ``ds``
    is the normalized split and ``targets`` its windows' targets."""
    steps = len(targets) + model.config.input_len - 1
    preds = model.forecast(ds.flows[:steps], ds.timestamps[:steps], batch_size)
    total_abs = 0.0
    # summed batch by batch, as when each batch was forwarded on its own, so
    # the MAE keeps its bits
    for start in range(0, len(targets), batch_size):
        batch = slice(start, start + batch_size)
        total_abs += float(np.abs(preds[batch] - targets[batch]).sum())
    return total_abs / targets.size


def train_loop(model: StgormerModel, splits: tuple[FlowDataset, FlowDataset],
               tcfg: TrainConfig, val_metric_fn=None) -> TrainHistory:
    """Optimize the model, stopping when validation MAE stalls.

    ``splits`` is (train, val) on the original scale; the normalizer is fitted
    here and attached to the model.  On return the model carries the
    parameters of the best validation epoch.  ``val_metric_fn(model, epoch)``,
    when given, replaces the computed validation metric (testing seam).
    """
    errors = tcfg.validate()
    if errors:
        raise ValueError("invalid train config: " + "; ".join(errors))
    train_ds, val_ds = splits
    cfg = model.config
    normalizer = fit_normalizer(train_ds)
    model.normalizer = normalizer
    train_windows = make_windows(_normalized_dataset(train_ds, normalizer),
                                 cfg.input_len, cfg.horizon)
    val_norm = _normalized_dataset(val_ds, normalizer)
    val_targets = np.stack([w.y for w in make_windows(val_norm, cfg.input_len, cfg.horizon)])

    opt = AdamState(lr=tcfg.lr)
    history = TrainHistory()
    best_val = np.inf
    best_values = model.store.snapshot()
    stall = 0

    for epoch in range(1, tcfg.max_epochs + 1):
        t0 = time.perf_counter()
        opt.lr = scheduled_lr(tcfg.lr, epoch - 1, tcfg.lr_decay_factor,
                              tcfg.lr_decay_every, tcfg.lr_floor)
        order = np.random.default_rng([tcfg.seed, epoch]).permutation(len(train_windows))
        abs_sum = 0.0
        abs_count = 0
        lb_sum = 0.0
        frac_sum: list[np.ndarray] = []
        n_steps = 0
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            xs, tss, ys = _stack_windows(train_windows, batch)
            parts = _train_step(model, opt, xs, tss, ys, epoch)
            fracs = parts["usage"]
            abs_sum += parts["mae"] * ys.size
            abs_count += ys.size
            lb_sum += parts["lb"]
            if fracs:
                if not frac_sum:
                    frac_sum = [f.copy() for f in fracs]
                else:
                    for acc, f in zip(frac_sum, fracs):
                        acc += f
            n_steps += 1

        if val_metric_fn is not None:
            val_mae = float(val_metric_fn(model, epoch))
        else:
            val_mae = _validation_mae(model, val_norm, val_targets, tcfg.batch_size)
        if not np.isfinite(val_mae):
            raise DivergenceError(f"non-finite validation MAE {val_mae} at epoch {epoch}; "
                                  "lower the learning rate")
        record = EpochRecord(
            epoch=epoch,
            train_mae=abs_sum / abs_count,
            train_lb=lb_sum / n_steps,
            val_mae=val_mae,
            lr=opt.lr,
            expert_fractions=[list(map(float, f / n_steps)) for f in frac_sum],
            wall_time=time.perf_counter() - t0)
        history.epochs.append(record)

        if val_mae < best_val:
            best_val = val_mae
            best_values = model.store.snapshot()
            history.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= tcfg.patience:
                break

    model.store.restore(best_values)
    if tcfg.checkpoint_dir:
        path = Path(tcfg.checkpoint_dir)
        path.mkdir(parents=True, exist_ok=True)
        save_model(model, path / "model.ckpt")
    return history


def evaluate(model: StgormerModel, ds: FlowDataset, threshold: float,
             batch_size: int = 32) -> dict:
    """Masked metrics over every window of a split, on the original scale."""
    if model.normalizer is None:
        raise ValueError("model has no normalizer attached; train or load first")
    cfg = model.config
    windows = make_windows(ds, cfg.input_len, cfg.horizon)
    steps = len(windows) + cfg.input_len - 1
    preds = model.forecast(model.normalizer.apply(ds.flows[:steps]), ds.timestamps[:steps],
                           batch_size)
    return metrics(np.stack([w.y for w in windows]), model.normalizer.invert(preds),
                   threshold)


STUDY_COLUMNS = ("variant", "mae", "rmse", "mape", "epochs", "params")

_ABLATION_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("full", {}),
    ("no_time_encoding", {"use_time_encoding": False}),
    ("no_degree_encoding", {"use_degree_encoding": False}),
    ("no_spd_bias", {"use_spd_bias": False}),
    ("no_moe", {"use_moe": False}),
)


def study_variants(axis: str) -> list[tuple[str, dict]]:
    """Named config overrides for one study axis."""
    if axis == "ablation":
        return list(_ABLATION_VARIANTS)
    if axis == "block_count":
        return [("S" * n + "T" * n, {"block_order": "S" * n + "T" * n})
                for n in (1, 2, 3, 4)]
    if axis == "block_order":
        return [(order, {"block_order": order})
                for order in ("SSSTTT", "STSTST", "TTTSSS", "TSTSTS")]
    raise ValueError(f"unknown study axis {axis!r}; "
                     "expected ablation, block_count, or block_order")


def study(model_cfg: StgormerConfig, tcfg: TrainConfig, ds: FlowDataset,
          axis: str) -> list[dict]:
    """Train one model per variant on shared data/seed; return comparison rows."""
    rows = []
    train_ds, val_ds, test_ds = split(ds)
    for name, overrides in study_variants(axis):
        cfg = dataclasses.replace(model_cfg, **overrides)
        try:
            model = build(cfg, ds.graph)
            history = train_loop(model, (train_ds, val_ds),
                                 dataclasses.replace(tcfg, checkpoint_dir=""))
            report = evaluate(model, test_ds, tcfg.threshold)
        except DivergenceError as exc:
            raise DivergenceError(f"study variant {name!r} failed: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"study variant {name!r} failed: {exc}") from exc
        rows.append({
            "variant": name,
            "mae": report["mae"],
            "rmse": report["rmse"],
            "mape": report["mape"],
            "epochs": len(history.epochs),
            "params": model.parameter_count(),
        })
    return rows
