"""Full model assembly: encodings, axis-wise attention blocks, MoE, regression head.

Each block applies attention along its axis, then the feedforward sublayer
(mixture-of-experts, or a single expert when MoE is disabled), both wrapped in
residual + post-layer-norm.  The regression head flattens the time axis per
node.  All parameters are seeded per path, so two configs that share a
parameter path initialize it identically.
"""
from __future__ import annotations

import dataclasses
import io
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kv
from .attention import AttentionParams, spatial_attention, spd_bias, temporal_attention
from .encoding import (DegreeEmbeddingTables, Time2VecParams, fuse_inputs,
                       spatial_input_encoding, temporal_input_encoding)
from .graph import SpatioTemporalGraph, shortest_path_matrix
from .moe import ExpertParams, RouterParams, expert_forward, load_balance_loss, moe_forward
from .numerics import ParameterStore, Tensor, layer_norm, linear

_MODEL_MAGIC = "stgormer-model-checkpoint 2"
_CRC_READ = 1 << 20  # bytes per read of the checksum pass


@dataclass
class StgormerConfig:
    """Every architectural knob plus the ablation toggles and init seed."""

    hidden_dim: int = 64
    heads: int = 4
    block_order: str = "SSSTTT"
    experts: int = 6
    expert_expansion: int = 4
    time_dim: int = 8
    temporal_features: int = 2
    degree_dim: int = 8
    max_degree: int = 16
    max_spd: int = 10
    alpha: float = 0.01
    input_len: int = 12
    horizon: int = 1
    channels: int = 1
    use_time_encoding: bool = True
    use_degree_encoding: bool = True
    use_spd_bias: bool = True
    use_moe: bool = True
    seed: int = 0

    def validate(self) -> list[str]:
        """Collect every violation (not just the first)."""
        errors = []
        if self.hidden_dim < 1:
            errors.append("hidden_dim must be >= 1")
        if self.heads < 1:
            errors.append("heads must be >= 1")
        elif self.hidden_dim % self.heads:
            errors.append(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}")
        if not self.block_order:
            errors.append("block_order must be non-empty")
        elif set(self.block_order) - {"S", "T"}:
            errors.append(
                f"block_order {self.block_order!r} may only contain 'S' and 'T'")
        if self.experts < 1:
            errors.append("experts must be >= 1")
        if self.expert_expansion < 1:
            errors.append("expert_expansion must be >= 1")
        if self.time_dim < 1:
            errors.append("time_dim must be >= 1")
        if self.temporal_features < 1:
            errors.append("temporal_features must be >= 1")
        if self.degree_dim < 1:
            errors.append("degree_dim must be >= 1")
        if self.max_degree < 0:
            errors.append("max_degree must be >= 0")
        if self.max_spd < 0:
            errors.append("max_spd must be >= 0")
        if self.alpha < 0:
            errors.append("alpha must be >= 0")
        if self.input_len < 1:
            errors.append("input_len must be >= 1")
        if self.horizon < 1:
            errors.append("horizon must be >= 1")
        if self.channels < 1:
            errors.append("channels must be >= 1")
        return errors

    @property
    def fusion_width(self) -> int:
        width = self.channels
        if self.use_time_encoding:
            width += self.temporal_features * self.time_dim
        if self.use_degree_encoding:
            width += self.degree_dim
        return width


@dataclass
class Block:
    """One transformer block's parameter views; axis is 'S' or 'T'."""

    axis: str
    attn: AttentionParams
    experts: list[ExpertParams]
    router: RouterParams | None
    norm1_gamma: Tensor
    norm1_beta: Tensor
    norm2_gamma: Tensor
    norm2_beta: Tensor


def _path_rng(seed: int, path: str) -> np.random.Generator:
    # per-path streams keep shared paths identical across config variants
    return np.random.default_rng([seed, zlib.crc32(path.encode("utf-8"))])


class _Init:
    """Creates each parameter: drawn from its path's RNG stream or, when
    ``values`` (a checkpoint's arrays by path) is given, taken from there.

    Paths that ``values`` lacks, or holds in another shape, are collected in
    ``missing`` and filled with zeros.
    """

    def __init__(self, store: ParameterStore, seed: int,
                 values: dict[str, np.ndarray] | None = None):
        self.store = store
        self.seed = seed
        self.values = values
        self.missing: list[str] = []

    def _add(self, path: str, shape: tuple[int, ...],
             draw: Callable[[], np.ndarray]) -> Tensor:
        if self.values is None:
            return self.store.add(path, draw())
        value = self.values.get(path)
        if value is None or value.shape != shape:
            self.missing.append(path if value is None
                                else f"{path} (shape {value.shape}, expected {shape})")
            value = np.zeros(shape)
        return self.store.add(path, value)

    def weight(self, path: str, fan_in: int, fan_out: int) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        shape = (fan_in, fan_out)
        return self._add(path, shape, lambda: _path_rng(self.seed, path).uniform(
            -bound, bound, size=shape))

    def vector_weight(self, path: str, dim: int) -> Tensor:
        return self._add(path, (dim,), lambda: _path_rng(self.seed, path).uniform(
            -1.0, 1.0, size=dim))

    def zeros(self, path: str, *shape: int) -> Tensor:
        return self._add(path, shape, lambda: np.zeros(shape))

    def ones(self, path: str, *shape: int) -> Tensor:
        return self._add(path, shape, lambda: np.ones(shape))

    def table(self, path: str, *shape: int) -> Tensor:
        return self._add(path, shape, lambda: _path_rng(self.seed, path).normal(
            0.0, 0.02, size=shape))


class StgormerModel:
    """Built model: parameter store, precomputed graph signals, block views.

    Parameters are drawn from per-path seeds, or copied once from ``values``
    (a checkpoint's arrays by path), which must hold exactly the config's paths.
    """

    def __init__(self, config: StgormerConfig, graph: SpatioTemporalGraph,
                 values: dict[str, np.ndarray] | None = None):
        errors = config.validate()
        if errors:
            raise ValueError("invalid model config: " + "; ".join(errors))
        self.config = config
        self.graph = graph
        self.spd = shortest_path_matrix(graph)
        self.normalizer = None
        self.store = ParameterStore()
        init = _Init(self.store, config.seed, values)
        d = config.hidden_dim

        self.time_params = [
            Time2VecParams(
                w=init.vector_weight(f"encoding.time.f{j}.w", config.time_dim),
                b=init.zeros(f"encoding.time.f{j}.b", config.time_dim))
            for j in range(config.temporal_features)
        ]
        rows = config.max_degree + 2
        self.degree_tables = DegreeEmbeddingTables(
            z_minus=init.table("encoding.degree.in", rows, config.degree_dim),
            z_plus=init.table("encoding.degree.out", rows, config.degree_dim),
            max_degree=config.max_degree)
        self.fusion_w = init.weight("encoding.fusion.w", config.fusion_width, d)
        self.fusion_b = init.zeros("encoding.fusion.b", d)
        self.spd_table = init.table("spd_bias.table", config.max_spd + 3)

        self.blocks: list[Block] = []
        # the leading run of spatial blocks, which belongs to the step-local half
        self._lead = len(config.block_order) - len(config.block_order.lstrip("S"))
        for i, axis in enumerate(config.block_order):
            name = "spatial" if axis == "S" else "temporal"
            base = f"blocks.{i:02d}.{name}"
            attn = AttentionParams(
                w_q=init.weight(f"{base}.attn.w_q", d, d),
                b_q=init.zeros(f"{base}.attn.b_q", d),
                w_k=init.weight(f"{base}.attn.w_k", d, d),
                w_v=init.weight(f"{base}.attn.w_v", d, d),
                b_v=init.zeros(f"{base}.attn.b_v", d),
                w_o=init.weight(f"{base}.attn.w_o", d, d),
                b_o=init.zeros(f"{base}.attn.b_o", d),
                heads=config.heads)
            hidden = config.expert_expansion * d
            n_experts = config.experts if config.use_moe else 1
            experts = [
                ExpertParams(
                    w1=init.weight(f"{base}.ffn.expert{j}.w1", d, hidden),
                    b1=init.zeros(f"{base}.ffn.expert{j}.b1", hidden),
                    w2=init.weight(f"{base}.ffn.expert{j}.w2", hidden, d),
                    b2=init.zeros(f"{base}.ffn.expert{j}.b2", d))
                for j in range(n_experts)
            ]
            router = None
            if config.use_moe:
                router = RouterParams(
                    w=init.weight(f"{base}.ffn.router.w", d, config.experts),
                    b=init.zeros(f"{base}.ffn.router.b", config.experts))
            self.blocks.append(Block(
                axis=axis, attn=attn, experts=experts, router=router,
                norm1_gamma=init.ones(f"{base}.norm1.gamma", d),
                norm1_beta=init.zeros(f"{base}.norm1.beta", d),
                norm2_gamma=init.ones(f"{base}.norm2.gamma", d),
                norm2_beta=init.zeros(f"{base}.norm2.beta", d)))

        head_in = config.input_len * d
        head_out = config.horizon * config.channels
        self.head_w = init.weight("head.w", head_in, head_out)
        self.head_b = init.zeros("head.b", head_out)
        if values is not None:
            unexpected = sorted(set(values) - set(self.store.paths()))
            if init.missing or unexpected:
                raise ValueError("checkpoint incompatible with its config: "
                                 f"missing={sorted(init.missing)} unexpected={unexpected}")

    def parameter_count(self) -> int:
        return self.store.num_values()

    # -- forward -----------------------------------------------------------

    def forward_batch(self, x: np.ndarray, timestamps: np.ndarray,
                      windows: np.ndarray) -> tuple[Tensor, list[Tensor]]:
        """Batched forward: a step sequence, (S, N, C) plus (S, k), and a
        (B, T) array of step indices, whose rows are the windows ``x[windows]``
        -> (B, horizon, N, C).

        The step-local half runs once per step, and its output is gathered into
        the windows. With a graph, the gather's backward sums each step's
        window gradients.

        Also returns, in block order, the gate weights of each MoE block that
        records a graph, for the balance term of ``loss``: none when MoE is
        off, and none from a frozen store, whose forward keeps only its output.
        A leading block's weights are gathered into the windows too, so the
        balance term counts each step once per window that covers it.
        """
        cfg = self.config
        _, t = windows.shape
        if t != cfg.input_len:
            raise ValueError(f"window length {t} != configured input_len {cfg.input_len}")
        bias = (spd_bias(self.spd, self.spd_table, cfg.max_spd)
                if cfg.use_spd_bias else None)
        weights: list[Tensor] = []
        # The window half: the remaining blocks, then the head. Each half gets
        # its input as a temporary, not kept in a name here, so that without a
        # graph the input is freed once the first block has consumed it.
        h = self._run_blocks(self._step_local(x, timestamps, windows, bias, weights),
                             self.blocks[self._lead:], bias, weights)
        b, t, n, d = h.shape
        per_node = h.transpose(0, 2, 1, 3).reshape(b, n, t * d)
        out = linear(per_node, self.head_w, self.head_b)
        return out.reshape(b, n, cfg.horizon, cfg.channels).transpose(0, 2, 1, 3), weights

    def forecast(self, flows: np.ndarray, timestamps: np.ndarray,
                 batch_size: int) -> np.ndarray:
        """Forecasts of every sliding window of a step sequence, on the frozen
        store: (S, N, C) plus (S, k) -> (S - T + 1, horizon, N, C), window i
        being steps i to i + T - 1.

        Each batch of up to ``batch_size`` windows is one ``forward_batch`` of
        the steps that the batch covers, with the windows' step indices.
        """
        t = self.config.input_len
        count = len(flows) - t + 1
        if count < 1:
            raise ValueError(f"{len(flows)} steps hold no window of input_len={t}")
        preds = []
        with self.store.frozen():
            for start in range(0, count, batch_size):
                size = min(batch_size, count - start)
                steps = slice(start, start + size + t - 1)
                windows = np.arange(size)[:, None] + np.arange(t)
                preds.append(self.forward_batch(flows[steps], timestamps[steps],
                                                windows)[0].data)
        return np.concatenate(preds)

    def _step_local(self, x: np.ndarray, timestamps: np.ndarray, windows: np.ndarray,
                    bias: Tensor | None, weights: list[Tensor]) -> Tensor:
        """The step-local half: (S, N, C) plus (S, k) -> (S, N, D) through the
        encodings, the fusion and the leading run of spatial blocks, then the
        gather of that output, and of the gate weights it appended to
        ``weights``, into the (B, T) ``windows``.

        Every token here depends on its own step alone: the encodings read its
        flow, its step's timestamps and its node's degrees, spatial attention
        mixes nodes within one step, and the feedforward and the layer norms
        act on one token at a time.
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        n, c = x.shape[-2:]
        if n != self.graph.num_nodes:
            raise ValueError(f"window has {n} nodes but graph has {self.graph.num_nodes}")
        if c != cfg.channels:
            raise ValueError(f"window has {c} channels but config says {cfg.channels}")
        if timestamps.shape != x.shape[:-2] + (cfg.temporal_features,):
            raise ValueError(
                f"timestamps shape {timestamps.shape} != expected "
                f"{x.shape[:-2] + (cfg.temporal_features,)}")

        t_enc = (temporal_input_encoding(timestamps, self.time_params)
                 if cfg.use_time_encoding else None)
        s_enc = (spatial_input_encoding(self.graph, self.degree_tables)
                 if cfg.use_degree_encoding else None)
        h = self._run_blocks(fuse_inputs(Tensor(x), t_enc, s_enc, self.fusion_w, self.fusion_b),
                             self.blocks[:self._lead], bias, weights)
        # the leading blocks' gate weights as the windows hold them, so that
        # the balance term counts each step once per window that covers it
        weights[:] = [w[windows] for w in weights]
        return h[windows]

    @staticmethod
    def _run_blocks(h: Tensor, blocks: list[Block], bias: Tensor | None,
                    weights: list[Tensor]) -> Tensor:
        """``blocks`` in order on ``h``, appending the gate weights of each MoE
        block that records a graph to ``weights``."""
        # Each activation is dropped as soon as it is consumed: without a
        # graph (inference) that frees it before the next one is made.
        for block in blocks:
            if block.axis == "S":
                attended = spatial_attention(h, block.attn, bias)
            else:
                attended = temporal_attention(h, block.attn)
            h = layer_norm(h, attended, block.norm1_gamma, block.norm1_beta)
            del attended
            if block.router is not None:
                f, gate_weights = moe_forward(h, block.experts, block.router)
                if gate_weights.requires_grad:
                    weights.append(gate_weights)
                del gate_weights
            else:
                f = expert_forward(h, block.experts[0])
            h = layer_norm(h, f, block.norm2_gamma, block.norm2_beta)
            del f
        return h

    def predict(self, window: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
        """One window's forecast on the original scale, on the frozen store (no
        graph): (T, N, C) plus (T, k) -> (horizon, N, C)."""
        if self.normalizer is None:
            raise ValueError("model has no normalizer attached; train or load first")
        window = self.normalizer.apply(np.asarray(window, dtype=np.float64))
        with self.store.frozen():
            pred, _ = self.forward_batch(window, timestamps, np.arange(len(window))[None])
        return self.normalizer.invert(pred.data[0])


def build(config: StgormerConfig, graph: SpatioTemporalGraph) -> StgormerModel:
    return StgormerModel(config, graph)


def loss(pred: Tensor, target: np.ndarray, weights: list[Tensor],
         alpha: float) -> tuple[Tensor, dict]:
    """Mean absolute error plus alpha times the mean per-block balance loss,
    as one graph node whose parents are ``pred`` and the gate ``weights`` that
    ``forward_batch`` returns.

    A block's usage is its mean gate weight per expert over its tokens. The
    parts are the MAE, the balance term and each block's usage.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred.data - target
    mae = np.abs(diff).sum() * (1 / diff.size)
    tokens = [w.data.reshape(-1, w.shape[-1]) for w in weights]
    usage = [t.sum(axis=0) * (1 / len(t)) for t in tokens]
    lb = sum(load_balance_loss(u) for u in usage) * (1.0 / len(usage)) if usage else 0.0
    total = mae + lb * alpha

    def back(g: np.ndarray) -> list:
        g_lb = g * alpha * (1.0 / len(usage)) if usage else None
        return [np.sign(diff) * (g * (1 / diff.size))] + [
            np.broadcast_to(2.0 * (u * (g_lb * (1.0 / len(u)))) * (1 / len(t)), t.shape)
            .reshape(w.shape) for w, t, u in zip(weights, tokens, usage)]

    parts = {"mae": float(mae), "lb": float(lb), "usage": usage}
    return Tensor._result(total, (pred, *weights), back), parts


# -- checkpointing -------------------------------------------------------------


def write_param_block(store: ParameterStore) -> tuple[bytes, list[memoryview]]:
    """The ``[params]`` manifest, one path and its extents per line, through its
    ``[data]`` line, and a view of each parameter's little-endian float64 bytes."""
    items = store.items()
    lines = [" ".join((path, *map(str, t.data.shape))) for path, t in items]
    manifest = "\n".join(["[params]", *lines, "[data]", ""]).encode("utf-8")
    return manifest, [np.ascontiguousarray(t.data, dtype="<f8").data for _, t in items]


def save_model(model: StgormerModel, path) -> None:
    g, norm = model.graph, model.normalizer
    pairs = g.edges if g.directed else g.undirected_edges()
    normalizer = {"present": norm is not None}
    if norm is not None:
        normalizer.update(mean=tuple(norm.mean), std=tuple(norm.std))
    sections = {
        "config": dict(sorted(dataclasses.asdict(model.config).items())),
        "graph": {"num_nodes": g.num_nodes, "directed": g.directed,
                  "edges": ";".join(f"{u}:{v}" for u, v in pairs)},
        "normalizer": normalizer}
    header = "".join(f"[{tag}]\n{kv.dump(items)}" for tag, items in sections.items())
    manifest, payload = write_param_block(model.store)
    crc = 0
    with open(path, "wb") as fh:
        for chunk in (f"{_MODEL_MAGIC}\n{header}".encode("utf-8"), manifest, *payload):
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(crc.to_bytes(4, "little"))


def _crc_fault(fh, size: int) -> str | None:
    """Stream every byte before the 4-byte trailer through CRC-32, in reads of
    ``_CRC_READ`` bytes; None when the trailer matches, else the mismatch."""
    fh.seek(0)
    crc, left = 0, size - 4
    while left > 0:
        chunk = fh.read(min(_CRC_READ, left))
        crc = zlib.crc32(chunk, crc)
        left -= len(chunk)
    stored = int.from_bytes(fh.read(4), "little")
    if stored == crc:
        return None
    return f"CRC-32 {crc:08x} of the contents does not match the stored {stored:08x}"


def _read_line(fh, section: str, number: int) -> str:
    """The line at a binary file's position, which is line ``number`` of the
    file and part of ``[section]``, without its newline; a line that is not
    UTF-8 is named by both."""
    try:
        return fh.readline().decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"[{section}] line {number} is not UTF-8: {exc}") from None


def _read_section(fh, tag: str, number: int) -> dict[str, str]:
    """The ``[tag]`` section's key=value lines, up to the next ``[...]`` line;
    its header is line ``number`` of the file."""
    line = _read_line(fh, tag, number)
    if line != f"[{tag}]":
        raise ValueError(f"expected [{tag}], got {line!r}")
    items: dict[str, str] = {}
    while True:
        start = fh.tell()
        line = _read_line(fh, tag, number + 1 + len(items))
        if not line or line.startswith("["):
            fh.seek(start)
            return items
        key, eq, value = line.partition("=")
        if not eq or key in items:
            raise ValueError(f"bad line {line!r} in [{tag}]")
        items[key] = value


def read_param_block(fh, number: int = 1) -> dict[str, np.ndarray]:
    """A parameter block whose ``[params]`` line is line ``number`` of the file."""
    manifest: list[tuple[str, tuple[int, ...]]] = []
    line = _read_line(fh, "params", number)
    if line != "[params]":
        raise ValueError(f"expected [params] section, got {line!r}")
    while True:
        line = _read_line(fh, "params", number + 1 + len(manifest))
        if line == "[data]":
            break
        if not line:
            raise ValueError("unterminated manifest: missing [data] section")
        if line.startswith("["):
            raise ValueError(f"expected [data] after the manifest, got {line!r}")
        path, *extents = line.split(" ")
        bad = [e for e in extents if not (e.isascii() and e.isdigit())]
        if bad:
            raise ValueError(f"parameter {path!r} has extent {bad[0]!r}, "
                             "not a non-negative integer")
        manifest.append((path, tuple(int(e) for e in extents)))
    values: dict[str, np.ndarray] = {}
    non_finite = []
    for path, dims in manifest:
        count = int(np.prod(dims))
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise ValueError(f"truncated checkpoint payload at parameter {path!r}")
        # a read-only view of the bytes just read; ParameterStore.add copies it once
        values[path] = np.frombuffer(raw, dtype="<f8").reshape(dims)
        # checked while those bytes are still in cache: on a 10 MiB checkpoint
        # this costs about 0.7 ms, a separate pass over all values 1.8 ms
        if not np.isfinite(values[path]).all():
            non_finite.append(path)
    if non_finite:
        raise ValueError(f"non-finite values in parameter {min(non_finite)!r}")
    return values


def _decode_sections(sections: dict[str, dict[str, str]]):
    """The config, graph and normalizer that a checkpoint's text sections
    hold; a ValueError says what is malformed. Config fields missing from the
    checkpoint take their defaults."""
    from .data import Normalizer

    def required(tag: str, key: str) -> str:
        if key not in sections[tag]:
            raise ValueError(f"has no {key!r} line")
        return sections[tag][key]

    errors: list[str] = []
    config = kv.overlay(StgormerConfig(), sections["config"], errors)
    errors.extend(config.validate())
    if errors:
        raise ValueError("; ".join(errors))

    try:
        num_nodes, directed, edges = (required("graph", key)
                                      for key in ("num_nodes", "directed", "edges"))
        pairs = []
        for token in edges.split(";") if edges else []:
            a, _, b = token.partition(":")
            pairs.append((int(a), int(b)))
        graph = SpatioTemporalGraph.from_edge_list(
            kv.decode(0, num_nodes), pairs, directed=kv.decode(True, directed))
    except ValueError as exc:
        raise ValueError(f"[graph] {exc}") from None

    stats = None
    try:
        if kv.decode(True, required("normalizer", "present")):
            stats = [np.array([float(x) for x in required("normalizer", key).split(",")])
                     for key in ("mean", "std")]
    except ValueError as exc:
        raise ValueError(f"[normalizer] {exc}") from None
    if stats is None:
        return config, graph, None
    for key, value in zip(("mean", "std"), stats):
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite values in normalizer {key!r}")
        if value.shape != (config.channels,):
            raise ValueError(f"normalizer {key!r} has {value.size} values "
                             f"but config says channels={config.channels}")
    # fit_normalizer refuses a zero variance, so no saved model holds one
    if (stats[1] <= 0).any():
        raise ValueError("normalizer 'std' has a value <= 0")
    return config, graph, Normalizer(*stats)


def load_model(path) -> StgormerModel:
    """Rebuild a model from its checkpoint, verifying config/parameter agreement.

    The magic line is checked first, then the CRC-32 trailer against every
    byte before it, and only then is the body parsed. A damaged file is
    reported as ``corrupt checkpoint: …`` whatever byte was hit, and so is
    every parse error in a body whose checksum holds: a malformed section,
    manifest or value, a line that is not UTF-8, a config that fails
    validation, parameters that do not match the config, a non-finite
    parameter or normalizer value, and a normalizer std ≤ 0 or of the wrong
    length.
    """
    with open(path, "rb") as fh:
        head = fh.readline(len(_MODEL_MAGIC) + 1)
        if head != _MODEL_MAGIC.encode() + b"\n":
            raise ValueError(f"not a model checkpoint: bad magic {head!r}")
        size = fh.seek(0, io.SEEK_END)
        fault = _crc_fault(fh, size)
        # after a mismatch the body is still parsed, but only to tell a cut
        # or extended file from a damaged one: its parse errors are not shown
        fh.seek(len(head))
        try:
            sections, number = {}, 2
            for tag in ("config", "graph", "normalizer"):
                sections[tag] = _read_section(fh, tag, number)
                number += 1 + len(sections[tag])
            values = read_param_block(fh, number)
            end = fh.tell() + 4
            if end > size:
                fault = "truncated checksum trailer"
            elif end < size:
                fault = "trailing bytes after the checksum trailer"
            if fault is None:
                config, graph, normalizer = _decode_sections(sections)
                model = StgormerModel(config, graph, values)
        except ValueError as exc:
            if fault is None:
                fault = str(exc)
            elif fh.tell() >= size:
                fault = "truncated contents"
    if fault is not None:
        raise ValueError(f"corrupt checkpoint: {fault}")
    model.normalizer = normalizer
    return model
