"""The three workloads, each driving ``stgormer.cli.main`` in-process.

A workload prepares its inputs from the seed (``prepare``, timed as set-up),
computes the expected outputs through a separate library path (``reference``,
untimed), then runs operations: ``run(i)`` is the timed CLI call and returns
its exit code, ``check(i)`` verifies what that call wrote and returns a
description of the problem, or None.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import stgormer.cli
from stgormer.data import (fit_normalizer, make_windows, metrics, save_timestamps,
                           split, write_flow_tensor)
from stgormer.model import StgormerConfig, build, load_model, save_model

# Reports are recomputed from per-window forwards, whose GEMMs block
# differently from the batched ones; float64 keeps them far inside this.
REPORT_RTOL = 1e-9


def call_cli(argv: list[str]) -> int:
    """Run one CLI command in-process, silencing its output.

    ``stgormer.cli.main`` is looked up on every call so that the traced run
    sees its wrapper.
    """
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return stgormer.cli.main(argv)


def write_kv(path: Path, items: dict) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in items.items()), encoding="utf-8")
    return path


def synth(work: Path, seed: int, spec: dict) -> Path:
    data = work / "data"
    code = call_cli(["synth", "--spec", str(write_kv(work / "spec.txt", {**spec, "seed": seed})),
                     "--out", str(data)])
    if code:
        raise RuntimeError(f"synth exited with code {code}")
    return data


def untrained_checkpoint(data: Path, seed: int, path: Path) -> Path:
    """A seeded default-config model with the training-split normalizer."""
    ds = stgormer.cli.load_data_dir(data)
    model = build(StgormerConfig(seed=seed), ds.graph)
    model.normalizer = fit_normalizer(split(ds)[0])
    save_model(model, path)
    return path


def held_out_windows(data: Path):
    ds = stgormer.cli.load_data_dir(data)
    cfg = StgormerConfig()
    return make_windows(split(ds)[2], cfg.input_len, cfg.horizon)


def read_flow_tensor(path: Path) -> np.ndarray:
    """Parse the "T N C" flow-tensor format independently of the program."""
    lines = path.read_text(encoding="utf-8").splitlines()
    t, n, c = (int(v) for v in lines[0].split())
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:] if line]
    return np.array(rows, dtype=np.float64).reshape(t, n, c)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite value {token}")


class Workload:
    name = ""
    min_ops = 1
    warmup_ops = 0  # checked and counted, but not timed
    labels: dict[str, str] = {}  # the workload's own names for the printed figures
    windows_per_op = 1
    mae = 0.0  # forecast error of the outputs; printed, not gated

    def prepare(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def reference(self) -> str | None:
        """Compute expected outputs; return a problem found in set-up output."""
        return None

    def run(self, i: int) -> int:
        raise NotImplementedError

    def check(self, i: int) -> str | None:
        raise NotImplementedError


class TrainDefault(Workload):
    """``stgormer train`` for a fixed number of epochs on the default shape."""

    name = "train_default"
    min_ops = 3  # val_mae and the checkpoint must repeat across calls
    labels = {"windows_per_s": "train_windows_per_s", "latency_ms_p50": "train_call_ms_p50",
              "mae": "val_mae"}
    SPEC = {"num_nodes": 12, "edge_prob": 0.3, "total_steps": 300}
    EPOCHS = 1

    def prepare(self, work, seed):
        self.work = work
        self.data = synth(work, seed, self.SPEC)
        self.config = write_kv(work / "run.txt", {
            "model.seed": seed, "train.seed": seed, "train.max_epochs": self.EPOCHS,
            "train.patience": self.EPOCHS})

    def reference(self):
        cfg = StgormerConfig()
        train_ds = split(stgormer.cli.load_data_dir(self.data))[0]
        self.windows_per_op = self.EPOCHS * len(
            make_windows(train_ds, cfg.input_len, cfg.horizon))
        self.first = None
        return None

    def run(self, i):
        return call_cli(["train", "--config", str(self.config), "--data", str(self.data),
                         "--out", str(self.work / f"run-{i}")])

    def check(self, i):
        out = self.work / f"run-{i}"
        lines = (out / "history.jsonl").read_text(encoding="utf-8").splitlines()
        try:
            records = [json.loads(line, parse_constant=_reject_non_finite)
                       for line in lines[1:]]
        except ValueError as exc:
            return f"history: {exc}"
        if len(records) != self.EPOCHS:
            return f"history holds {len(records)} epochs, expected {self.EPOCHS}"
        val_mae = min(rec["val_mae"] for rec in records)
        digest = sha256(out / "model.ckpt")
        if self.first is None:
            self.first = (val_mae, digest)
            self.mae = val_mae
            return None
        shutil.rmtree(out)
        if val_mae.hex() != self.first[0].hex():
            return f"val_mae {val_mae!r} differs from the first call's {self.first[0]!r}"
        if digest != self.first[1]:
            return "checkpoint bytes differ from the first call's"
        return None


class EvalDefault(Workload):
    """Repeated ``stgormer eval --split test`` on an untrained checkpoint."""

    name = "eval_default"
    warmup_ops = 1  # the first call faults in its ~3 GB afresh
    labels = {"windows_per_s": "eval_windows_per_s", "latency_ms_p50": "eval_call_ms_p50",
              "mae": "test_mae"}
    SPEC = {"num_nodes": 12, "edge_prob": 0.3, "total_steps": 500}

    def prepare(self, work, seed):
        self.work = work
        self.data = synth(work, seed, self.SPEC)
        self.checkpoint = untrained_checkpoint(self.data, seed, work / "model.ckpt")

    def reference(self):
        model = load_model(self.checkpoint)
        windows = held_out_windows(self.data)
        preds = np.stack([model.predict(w.x, w.x_timestamps) for w in windows])
        self.expected = metrics(np.stack([w.y for w in windows]), preds, 0.0)
        self.windows_per_op = len(windows)
        self.first = None
        return None

    def run(self, i):
        return call_cli(["eval", "--checkpoint", str(self.checkpoint), "--data",
                         str(self.data), "--split", "test", "--out",
                         str(self.work / f"report-{i}.txt")])

    def check(self, i):
        path = self.work / f"report-{i}.txt"
        body = path.read_bytes()
        if self.first is not None:
            path.unlink()
            return None if body == self.first else "report differs from the first call's"
        self.first = body
        report = dict(line.split("=", 1) for line in body.decode().splitlines())
        self.mae = float(report["mae"])
        if int(report["count"]) != self.expected["count"]:
            return f"report count {report['count']} != {self.expected['count']}"
        for key in ("mae", "rmse", "mape"):
            got, want = float(report[key]), self.expected[key]
            if not math.isclose(got, want, rel_tol=REPORT_RTOL):
                return f"report {key}={got!r} but per-window forwards give {want!r}"
        return None


class PredictSparse(Workload):
    """Single-window ``stgormer predict`` requests on a sparse 24-node graph."""

    name = "predict_sparse"
    labels = {"latency_ms_p50": "predict_ms_p50", "latency_ms_p90": "predict_ms_p90",
              "mae": "forecast_mae"}
    SPEC = {"num_nodes": 24, "edge_prob": 0.05, "total_steps": 500}
    WINDOWS = 16

    def prepare(self, work, seed):
        self.work = work
        data = synth(work, seed, self.SPEC)
        self.checkpoint = untrained_checkpoint(data, seed, work / "model.ckpt")
        windows = held_out_windows(data)
        picks = np.linspace(0, len(windows) - 1, self.WINDOWS).round().astype(int)
        self.windows = [windows[k] for k in picks]
        for k, w in enumerate(self.windows):
            write_flow_tensor(work / f"window-{k}.txt", w.x)
            save_timestamps(work / f"window-{k}-ts.txt", w.x_timestamps)
        # Set-up ends with one request. The first request of a process costs
        # several times a later one, and a one-shot CLI pays it on every call.
        if self.run(-1):
            raise RuntimeError("first predict request failed")

    def reference(self):
        model = load_model(self.checkpoint)
        self.expected = [model.predict(w.x, w.x_timestamps) for w in self.windows]
        self.mae = float(np.mean([np.abs(p - w.y).mean()
                                  for p, w in zip(self.expected, self.windows)]))
        return self.check(-1)

    def run(self, i):
        k = i % self.WINDOWS
        return call_cli(["predict", "--checkpoint", str(self.checkpoint),
                         "--window", str(self.work / f"window-{k}.txt"),
                         "--timestamps", str(self.work / f"window-{k}-ts.txt"),
                         "--out", str(self.work / "forecast.txt")])

    def check(self, i):
        path = self.work / "forecast.txt"
        got = read_flow_tensor(path)
        path.unlink()
        want = self.expected[i % self.WINDOWS]
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return f"forecast {i} differs from StgormerModel.predict"
        return None


WORKLOADS = {w.name: w for w in (TrainDefault, EvalDefault, PredictSparse)}
