"""Datasets: file I/O, chronological splits, windowing, normalization, metrics.

Also houses the synthetic traffic generator used for desk-scale runs: per-node
daily sinusoids with weekly modulation, smoothed by neighbor averaging so that
nearby nodes correlate, plus Gaussian noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SpatioTemporalGraph
from .kv import read_lines


class FlowFormatError(ValueError):
    """Flow or timestamp file violates the documented format."""


@dataclass
class FlowDataset:
    """A traffic tensor (T, N, C) with per-step temporal context (T, k)."""

    flows: np.ndarray
    timestamps: np.ndarray
    graph: SpatioTemporalGraph

    def __post_init__(self) -> None:
        self.flows = np.asarray(self.flows, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.flows.ndim != 3:
            raise ValueError("flows must have shape (T, N, C)")
        if self.timestamps.ndim != 2 or self.timestamps.shape[0] != self.flows.shape[0]:
            raise ValueError("timestamps must have one row per time step")
        if self.flows.shape[1] != self.graph.num_nodes:
            raise ValueError(
                f"flows have {self.flows.shape[1]} nodes but graph has "
                f"{self.graph.num_nodes}")

    @property
    def num_steps(self) -> int:
        return self.flows.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.flows.shape[1]

    @property
    def num_channels(self) -> int:
        return self.flows.shape[2]


@dataclass
class WindowSample:
    """One supervised sample: input window, its timestamps, adjacent target."""

    x: np.ndarray
    x_timestamps: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Normalizer:
    """Per-channel z-score statistics fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


SPLIT_RATIOS = (7, 1, 2)  # train : val : test


def split(ds: FlowDataset) -> tuple[FlowDataset, FlowDataset, FlowDataset]:
    """Chronological train/val/test split by ``SPLIT_RATIOS``; the rest goes to test."""
    t = ds.num_steps
    total = sum(SPLIT_RATIOS)
    n_train = t * SPLIT_RATIOS[0] // total
    n_val = t * SPLIT_RATIOS[1] // total
    n_test = t - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"dataset with {t} steps is too short for a {SPLIT_RATIOS} split")

    def piece(lo: int, hi: int) -> FlowDataset:
        return FlowDataset(ds.flows[lo:hi], ds.timestamps[lo:hi], ds.graph)

    return (piece(0, n_train),
            piece(n_train, n_train + n_val),
            piece(n_train + n_val, t))


def make_windows(ds: FlowDataset, input_len: int, horizon: int) -> list[WindowSample]:
    """Slide a contiguous (input, target) window pair across the dataset, one step at a time."""
    if input_len < 1 or horizon < 1:
        raise ValueError("input_len and horizon must be >= 1")
    t = ds.num_steps
    if t < input_len + horizon:
        raise ValueError(
            f"split of {t} steps is too short for input_len={input_len} "
            f"plus horizon={horizon}")
    samples = []
    for start in range(t - input_len - horizon + 1):
        mid = start + input_len
        samples.append(WindowSample(
            x=ds.flows[start:mid],
            x_timestamps=ds.timestamps[start:mid],
            y=ds.flows[mid:mid + horizon]))
    return samples


def fit_normalizer(train: FlowDataset) -> Normalizer:
    """Per-channel mean and population std over the training split."""
    mean = train.flows.mean(axis=(0, 1))
    std = train.flows.std(axis=(0, 1))
    for c, s in enumerate(std):
        if s <= 0.0:
            raise ValueError(f"zero variance in channel {c}; cannot normalize")
    return Normalizer(mean=mean, std=std)


# -- synthetic traffic ------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic generator; fully determined by ``seed``."""

    num_nodes: int = 12
    edge_prob: float = 0.3
    seed: int = 0
    daily_period: int = 24
    weekly_period: int = 168
    total_steps: int = 2016
    channels: int = 1
    base_flow: float = 10.0
    amplitude_range: tuple[float, float] = (2.0, 5.0)
    phase_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    weekly_amplitude_range: tuple[float, float] = (0.2, 0.5)
    diffusion_rounds: int = 1
    noise_std: float = 0.1

    def validate(self) -> list[str]:
        """Collect every violation (not just the first)."""
        errors = []
        if self.num_nodes < 1 or self.total_steps < 1 or self.channels < 1:
            errors.append("num_nodes, total_steps, and channels must be >= 1")
        if not (0.0 <= self.edge_prob <= 1.0):
            errors.append("edge_prob must lie in [0, 1]")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        if (self.daily_period < 1 or self.weekly_period < 1
                or self.weekly_period % self.daily_period != 0):
            errors.append("weekly_period must be a positive multiple of daily_period")
        for name in ("amplitude_range", "phase_range", "weekly_amplitude_range"):
            lo, hi = getattr(self, name)
            # the sign bit, as numpy's uniform checks it: (0.0, -0.0) is empty too
            if np.signbit(hi - lo):
                errors.append(f"{name} is empty: ({lo}, {hi})")
        if self.diffusion_rounds < 0 or self.noise_std < 0:
            errors.append("diffusion_rounds and noise_std must be non-negative")
        return errors


def random_graph(num_nodes: int, edge_prob: float, seed: int) -> SpatioTemporalGraph:
    """Seeded directed Erdos-Renyi graph over ordered pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v and rng.random() < edge_prob:
                pairs.append((u, v))
    return SpatioTemporalGraph.from_edge_list(num_nodes, pairs)


def step_timestamps(total_steps: int, daily_period: int) -> np.ndarray:
    """Time-of-day and day-of-week features in [0, 1) derived from step index."""
    t = np.arange(total_steps)
    tod = (t % daily_period) / daily_period
    dow = ((t // daily_period) % 7) / 7.0
    return np.stack([tod, dow], axis=1).astype(np.float64)


def _diffuse(series: np.ndarray, graph: SpatioTemporalGraph, rounds: int) -> np.ndarray:
    """Average each node with its successors ``rounds`` times (per time step)."""
    adj = graph.adjacency()
    out = series
    for _ in range(rounds):
        mixed = out.copy()
        for node, succ in enumerate(adj):
            if succ:
                mixed[:, node] = (out[:, node] + out[:, succ].sum(axis=1)) / (len(succ) + 1)
        out = mixed
    return out


def synthesize(spec: SyntheticSpec) -> FlowDataset:
    """Generate a seeded synthetic dataset with daily and weekly seasonality."""
    errors = spec.validate()
    if errors:
        raise ValueError("invalid synthetic spec: " + "; ".join(errors))
    graph = random_graph(spec.num_nodes, spec.edge_prob, spec.seed)
    rng = np.random.default_rng(spec.seed)
    n, c = spec.num_nodes, spec.channels
    t = np.arange(spec.total_steps).reshape(-1, 1, 1)
    # finite knobs can still overflow: reported below, as the flow reader
    # rejects what is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        amp = rng.uniform(*spec.amplitude_range, size=(n, c))
        phase = rng.uniform(*spec.phase_range, size=(n, c))
        wamp = rng.uniform(*spec.weekly_amplitude_range, size=(n, c))
        wphase = rng.uniform(*spec.phase_range, size=(n, c))
        daily = np.sin(2.0 * np.pi * t / spec.daily_period + phase)
        weekly = 1.0 + wamp * np.sin(2.0 * np.pi * t / spec.weekly_period + wphase)
        signal = _diffuse(spec.base_flow + amp * daily * weekly, graph, spec.diffusion_rounds)
        if spec.noise_std > 0:
            # separate stream so graph/parameter draws stay stable across noise levels
            noise_rng = np.random.default_rng((spec.seed, 1))
            signal = signal + noise_rng.normal(0.0, spec.noise_std, size=signal.shape)
    bad = int(np.count_nonzero(~np.isfinite(signal)))
    if bad:
        raise ValueError(f"spec gives a non-finite signal in {bad} of {signal.size} "
                         "cells: base_flow, amplitude_range or noise_std is too large")
    ts = step_timestamps(spec.total_steps, spec.daily_period)
    return FlowDataset(signal, ts, graph)


# -- metrics ------------------------------------------------------------------------


def metrics(y: np.ndarray, y_hat: np.ndarray, threshold: float = 0.0) -> dict:
    """Masked MAE / RMSE / MAPE over positions where the target exceeds ``threshold``.

    MAPE is returned as a fraction of each target's magnitude.  ``count``
    reports how many positions qualified; a zero target among them (negative
    threshold) raises ``ValueError``.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: targets {y.shape} vs predictions {y_hat.shape}")
    mask = y > threshold
    count = int(mask.sum())
    if count == 0:
        raise ValueError(
            f"empty mask: no target exceeds threshold {threshold}")
    zeros = int(np.count_nonzero(y[mask] == 0))
    if zeros:
        raise ValueError(f"MAPE is undefined: {zeros} of {count} targets above "
                         f"threshold {threshold} are zero")
    err = y[mask] - y_hat[mask]
    return {
        "mae": float(np.abs(err).mean()),
        "rmse": float(np.sqrt((err ** 2).mean())),
        "mape": float((np.abs(err) / np.abs(y[mask])).mean()),
        "threshold": float(threshold),
        "count": count,
    }


# -- flow / timestamp file formats ----------------------------------------------------


def _write_rows(fh, rows: np.ndarray) -> None:
    """One line per row of comma-joined full-precision decimals."""
    fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def write_flow_tensor(path, values: np.ndarray) -> None:
    """Header "T N C" then T*N lines of C comma-joined full-precision decimals."""
    values = np.asarray(values, dtype=np.float64)
    t, n, c = values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{t} {n} {c}\n")
        _write_rows(fh, values.reshape(t * n, c))


def save_flows(path, ds: FlowDataset) -> None:
    write_flow_tensor(path, ds.flows)


def load_flows(path, graph: SpatioTemporalGraph,
               timestamps: np.ndarray) -> FlowDataset:
    """Parse a flow file, cross-checking node count and step count.

    Every cell must be a finite decimal; errors name the file's line number.
    """
    lines = read_lines(path, FlowFormatError)
    if not lines:
        raise FlowFormatError("line 1: missing header 'T N C'")
    header = lines[0].split()
    if len(header) != 3:
        raise FlowFormatError(f"line 1: malformed header {lines[0]!r}, expected 'T N C'")
    try:
        t, n, c = (int(x) for x in header)
    except ValueError:
        raise FlowFormatError(f"line 1: non-integer header field in {lines[0]!r}") from None
    if n != graph.num_nodes:
        raise FlowFormatError(
            f"header says {n} nodes but graph has {graph.num_nodes}")
    if timestamps.shape[0] != t:
        raise FlowFormatError(
            f"timestamps carry {timestamps.shape[0]} steps but flows carry {t}")
    data_lines = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2)
                  if ln.strip()]
    if len(data_lines) != t * n:
        raise FlowFormatError(
            f"expected {t * n} data lines (T*N) but found {len(data_lines)}")
    # the header's C sizes the array, so the first data line must bear it out
    if c < 1:
        raise FlowFormatError(f"line 1: channel count {c} is not positive")
    width = data_lines[0][1].count(",") + 1 if data_lines else c
    if c != width:
        raise FlowFormatError(
            f"line 1: header says {c} channels but the first data line has {width}")
    values = np.empty((t * n, c), dtype=np.float64)
    for i, (lineno, raw) in enumerate(data_lines):
        cells = raw.strip().split(",")
        if len(cells) != c:
            raise FlowFormatError(
                f"line {lineno}: expected {c} channels, found {len(cells)}")
        try:
            values[i] = [float(cell) for cell in cells]
        except ValueError:
            raise FlowFormatError(
                f"line {lineno}: non-numeric cell in {raw.strip()!r}") from None
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno, raw = data_lines[int(np.argmin(finite))]
        raise FlowFormatError(f"line {lineno}: non-finite cell in {raw.strip()!r}")
    return FlowDataset(values.reshape(t, n, c), timestamps, graph)


def save_timestamps(path, timestamps: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, np.asarray(timestamps, dtype=np.float64))


def load_timestamps(path) -> np.ndarray:
    """One line per step of comma-separated decimals in [0, 1)."""
    rows = []
    for lineno, raw in enumerate(read_lines(path, FlowFormatError), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise FlowFormatError(
                f"line {lineno}: non-numeric timestamp in {line!r}") from None
        for v in row:
            if not (0.0 <= v < 1.0):
                raise FlowFormatError(
                    f"line {lineno}: timestamp feature {v} outside [0, 1)")
        if rows and len(row) != len(rows[0]):
            raise FlowFormatError(
                f"line {lineno}: inconsistent feature count")
        rows.append(row)
    if not rows:
        raise FlowFormatError("timestamps file is empty")
    return np.asarray(rows, dtype=np.float64)
