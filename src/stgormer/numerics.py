"""Dense arrays with reverse-mode differentiation, the optimizer, and gradient oracles.

Everything runs at double precision on numpy storage.  A ``Tensor`` records the
operation that produced it; calling :meth:`Tensor.backward` on a scalar walks
the recorded graph in reverse topological order and accumulates gradients into
every reachable leaf.  Parameters live in a :class:`ParameterStore` keyed by
dotted path; :func:`write_param_block` and :func:`read_param_block` carry a
store's values in and out of a model checkpoint.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kv

__all__ = [
    "Tensor",
    "ParameterStore",
    "AdamState",
    "adam_step",
    "scheduled_lr",
    "backward",
    "finite_difference_check",
    "linear",
    "layer_norm",
    "write_param_block",
    "read_param_block",
]


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting introduced."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backpropagation.

    Values are treated as immutable once constructed; in-place edits are only
    legitimate on parameter leaves between training steps (the optimizer and
    the finite-difference probe do this).
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._prev: tuple[Tensor, ...] | None = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- graph plumbing -----------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"],
                backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        live = tuple(p for p in parents if p.requires_grad)
        if live:
            out.requires_grad = True
            out._prev = live
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to this node's gradient.

        The engine never writes into an array once it has been passed here:
        ``g`` may be a view or a buffer that siblings share, so a second
        contribution builds a new array.
        """
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Each interior node drops its gradient and its closure, with the arrays
        it kept, once its backward has run; its ``_prev`` becomes None, which
        marks the graph consumed, so a later walk into it raises RuntimeError.
        Leaves keep their ``grad``."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._prev is None:
                raise RuntimeError("backward through a graph that an earlier backward consumed")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node.grad, node._backward_fn, node._prev = None, None, None

    # -- basic accessors ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        in_shape = self.data.shape

        def back(g: np.ndarray) -> None:
            self._accumulate(g.reshape(in_shape))

        return Tensor._result(data, (self,), back)

    def transpose(self, *axes) -> "Tensor":
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def back(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return Tensor._result(data, (self,), back)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]
        in_shape = self.data.shape

        def back(g: np.ndarray) -> None:
            buf = np.zeros(in_shape, dtype=np.float64)
            np.add.at(buf, key, g)
            self._accumulate(buf)

        return Tensor._result(np.array(data), (self,), back)


# Lanes: contiguous runs of whole row blocks that the row-wise primitives
# (attention, layer norm and the MoE's dense_mixture) run on two threads.
# Lane 0 runs in the calling thread and the others on _POOL; numpy releases
# the GIL in matmul and the ufuncs, and each BLAS call stays on one thread. A
# constant rather than the core count, so the split, and with it the bits,
# depends only on the row count. The pool has one worker, whose thread starts
# on first use, not on import: each concurrent BLAS caller gets its own
# OpenBLAS buffer, so a second worker would cost memory and gain no core.
_LANES = 2
# Blocks a lane needs at least. A call of a few blocks (batch-1 inference)
# lasts a few ms, and waiting there for a second core that the host has
# descheduled for a while costs more than the lane saves.
_LANE_BLOCKS = 2
_POOL = ThreadPoolExecutor(max_workers=_LANES - 1, thread_name_prefix="lane")
# Rows per block of attention and layer norm. A block's temporaries then stay
# a few hundred KiB each, small enough that malloc keeps reusing them instead
# of returning them to the system and faulting them in again: on a 2-core
# host a default training step took 8.3-8.5k minor page faults at 384 rows,
# 7.6-15.9k at 768, and 10.5-10.8k with the unfused graph.
_BLOCK_ROWS = 384


def _lanes(rows: int, block: int) -> list[list[slice]]:
    """Row blocks of ``block`` rows, dealt into at most ``_LANES`` contiguous
    lanes of at least ``_LANE_BLOCKS`` whole blocks, or into one lane."""
    blocks = [slice(start, min(start + block, rows)) for start in range(0, rows, block)]
    count = max(1, min(_LANES, len(blocks) // _LANE_BLOCKS))
    cuts = [len(blocks) * i // count for i in range(count + 1)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:])]


def _in_blocks(rows: int, block: int, run, sums=(), scratch=lambda rows: ()) -> list:
    """``run(span, *buffers, *totals)`` on each block ``span`` of ``_lanes(rows,
    block)``, lane 0 in this thread and the rest on ``_POOL``. Returns once
    every lane has finished, also when one raises (the first failure in lane
    order): lane 0's totals, with every other lane's added in lane order.

    Each lane gets its own ``scratch(rows)`` buffers, sized to its first
    block, which is its largest, and its own zeroed total of each shape in
    ``sums``. Every array that outlives a block is allocated in this thread: a
    worker thread allocates from its own malloc arena, which cannot reuse the
    memory this thread has freed."""
    work = [(blocks, scratch(blocks[0].stop - blocks[0].start if blocks else 0),
             [np.zeros(shape) for shape in sums]) for blocks in _lanes(rows, block)]

    def lane(blocks: list[slice], buffers, totals: list[np.ndarray]) -> None:
        for span in blocks:
            run(span, *buffers, *totals)

    futures = [_POOL.submit(lane, *args) for args in work[1:]]
    try:
        lane(*work[0])
    finally:
        for future in futures:
            future.exception()  # waits for the lane; its failure is raised below
    totals = work[0][2]
    for future, (_, _, part) in zip(futures, work[1:]):
        future.result()
        for total, more in zip(totals, part):
            total += more
    return totals


# -- free functions over tensors ----------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the trailing axis: x @ weight + bias.

    Fused primitive: one flattened GEMM forward, two GEMMs plus a column
    reduction backward.
    """
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"linear: trailing extent {x.shape[-1]} does not match "
            f"weight rows {weight.shape[0]}")
    lead = x.shape[:-1]
    w = weight.data
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w
    out += bias.data

    def back(g: np.ndarray) -> None:
        g2 = g.reshape(-1, w.shape[1])
        if x.requires_grad:
            x._accumulate((g2 @ w.T).reshape(x.data.shape))
        if weight.requires_grad:
            weight._accumulate(x2.T @ g2)
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    return Tensor._result(out.reshape(lead + (w.shape[1],)), (x, weight, bias), back)


def layer_norm(x: Tensor, residual: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Residual post-norm: normalize the trailing axis of ``x + residual`` to
    zero mean / unit variance, then affine.

    Fused primitive: one graph node with the standard closed-form backward.
    Rows run in blocks of ``_BLOCK_ROWS`` (:func:`_in_blocks`); the node keeps
    only each row's mean and inverse deviation; backward recomputes the
    normalized rows, bitwise, from its parents ``x`` and ``residual``.
    """
    if residual.shape != x.shape:
        raise ValueError(f"layer_norm: residual shape {residual.shape} "
                         f"does not match input shape {x.shape}")
    width = x.shape[-1]
    x2 = x.data.reshape(-1, width)
    r2 = residual.data.reshape(-1, width)
    out = np.empty_like(x2)
    mean = np.empty((len(x2), 1))
    inv_sigma = np.empty((len(x2), 1))

    def forward_block(rows: slice) -> None:
        centered = np.add(x2[rows], r2[rows], out=out[rows])
        centered -= np.mean(centered, axis=-1, keepdims=True, out=mean[rows])
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv_sigma[rows] = (var + eps) ** -0.5
        centered *= inv_sigma[rows]
        centered *= gamma.data
        centered += beta.data

    _in_blocks(len(x2), _BLOCK_ROWS, forward_block)

    def back(g: np.ndarray) -> None:
        g2 = g.reshape(-1, width)
        dx = np.empty_like(g2) if x.requires_grad or residual.requires_grad else None

        def backward_block(rows: slice, normed: np.ndarray, d_gamma: np.ndarray,
                           d_beta: np.ndarray) -> None:
            normed = np.add(x2[rows], r2[rows], out=normed[:rows.stop - rows.start])
            normed -= mean[rows]
            normed *= inv_sigma[rows]
            d_beta += g2[rows].sum(axis=0)
            d_gamma += (g2[rows] * normed).sum(axis=0)
            if dx is not None:
                gn = np.multiply(g2[rows], gamma.data, out=dx[rows])
                inner = (gn * normed).mean(axis=-1, keepdims=True)
                gn -= gn.mean(axis=-1, keepdims=True)
                gn -= normed * inner
                gn *= inv_sigma[rows]

        d_gamma, d_beta = _in_blocks(len(x2), _BLOCK_ROWS, backward_block,
                                     sums=(width, width),
                                     scratch=lambda rows: (np.empty((rows, width)),))
        if beta.requires_grad:
            beta._accumulate(d_beta)
        if gamma.requires_grad:
            gamma._accumulate(d_gamma)
        if dx is not None:
            dx = dx.reshape(x.shape)
            for t in (x, residual):
                if t.requires_grad:
                    t._accumulate(dx)

    return Tensor._result(out.reshape(x.shape), (x, residual, gamma, beta), back)


# -- parameters -----------------------------------------------------------------


class ParameterStore:
    """Named model parameters with one gradient slot per parameter.

    Paths are dotted strings; iteration is always in sorted path order so
    every consumer (optimizer, checkpointing, gradient checks) sees a stable
    layout across runs.  Gradients are set by :func:`backward`, so a store
    that only runs forward passes never holds any; nothing writes into them.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, path: str, value: np.ndarray) -> Tensor:
        """Register a float64 copy of ``value`` under ``path``."""
        if path in self._params:
            raise ValueError(f"parameter path {path!r} already registered")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self._params[path] = t
        return t

    @contextmanager
    def frozen(self):
        """Inference mode: inside the block no parameter requires a gradient,
        so forward passes record no graph and free each intermediate as soon
        as it is dropped.  On exit, even by an exception, every parameter
        gets its own previous flag back."""
        flags = [(t, t.requires_grad) for t in self._params.values()]
        for t, _ in flags:
            t.requires_grad = False
        try:
            yield self
        finally:
            for t, flag in flags:
                t.requires_grad = flag

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def paths(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(p, self._params[p]) for p in self.paths()]

    def num_values(self) -> int:
        """Total scalar parameter count."""
        return sum(t.data.size for t in self._params.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p: t.data.copy() for p, t in self._params.items()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            raise ValueError("snapshot paths do not match store paths")
        for p, arr in values.items():
            t = self._params[p]
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch restoring {p!r}")
            t.data = arr.copy()


def backward(loss: Tensor, store: ParameterStore) -> None:
    """Set every parameter's ``grad`` to d(loss)/d(parameter), zeros where the
    loss does not reach it. Two parameters may share one gradient array."""
    if loss.data.size != 1:
        raise ValueError("loss must be scalar")
    params = store._params.values()
    if not any(t.requires_grad for t in params):
        raise ValueError("backward on a frozen parameter store")
    if not loss.requires_grad:
        raise ValueError("loss has no autodiff graph (frozen or constant inputs only)")
    for t in params:
        t.grad = None
    loss.backward()
    for t in params:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)


# -- optimizer --------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam accumulators and hyperparameters.

    ``lr`` is the rate in force for the next step; the training loop rescales
    it per epoch via :func:`scheduled_lr`.  The update uses the step-size form
    alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) with epsilon inside the
    uncorrected denominator.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def scheduled_lr(base_lr: float, epoch_index: int, factor: float = 0.5,
                 every: int = 25, floor: float = 1e-5) -> float:
    """Step decay: multiply by ``factor`` every ``every`` epochs, floored.

    The floor stops further decay but never raises the rate above the base
    (so a zero base rate stays zero).
    """
    return max(base_lr * factor ** (epoch_index // every), min(floor, base_lr))


def adam_step(store: ParameterStore, state: AdamState) -> None:
    """One Adam update over every parameter, consuming the current gradients."""
    state.step_count += 1
    t = state.step_count
    alpha = state.lr * np.sqrt(1.0 - state.beta2 ** t) / (1.0 - state.beta1 ** t)
    for path, p in store.items():
        if p.grad is None:
            raise ValueError(f"gradient missing for parameter {path!r}")
        g = p.grad
        m = state.m.get(path)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[path] = m
            state.v[path] = np.zeros_like(p.data)
        v = state.v[path]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= alpha * m / (np.sqrt(v) + state.eps)


# -- gradient oracle ----------------------------------------------------------------


def finite_difference_check(
    forward: Callable[[], Tensor],
    store: ParameterStore,
    step: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``forward`` must rebuild the loss from the store's current parameter
    values on every call.  When the store holds more than ``max_coords``
    scalars, a seeded random subsample of coordinates is probed.  Returns the
    worst relative error max|a - n| / max(|a|, |n|, 1e-8).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    ref = forward().item()
    again = forward().item()
    if ref != again:
        raise RuntimeError("forward is not deterministic: repeated evaluations disagree")

    loss = forward()
    backward(loss, store)
    analytic = {path: p.grad.copy() for path, p in store.items()}

    coords: list[tuple[str, int]] = []
    for path, p in store.items():
        coords.extend((path, i) for i in range(p.data.size))
    if len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(chosen)]

    worst = 0.0
    for path, flat_index in coords:
        p = store[path]
        original = p.data.flat[flat_index]
        p.data.flat[flat_index] = original + step
        f_plus = forward().item()
        p.data.flat[flat_index] = original - step
        f_minus = forward().item()
        p.data.flat[flat_index] = original
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = analytic[path].flat[flat_index]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


# -- checkpoint parameter block ----------------------------------------------------------


def write_param_block(fh, store: ParameterStore) -> None:
    """Manifest lines (path + shape) then raw little-endian float64 payload."""
    items = store.items()
    fh.write(b"[params]\n")
    for path, t in items:
        dims = " ".join(str(d) for d in t.data.shape)
        fh.write(f"{path} {dims}".rstrip().encode("utf-8") + b"\n")
    fh.write(b"[data]\n")
    for _, t in items:
        fh.write(np.ascontiguousarray(t.data, dtype="<f8").data)


def read_param_block(fh, number: int = 1) -> dict[str, np.ndarray]:
    """A parameter block whose ``[params]`` line is line ``number`` of the file."""
    manifest: list[tuple[str, tuple[int, ...]]] = []
    line = kv.read_line(fh, "params", number)
    if line != "[params]":
        raise ValueError(f"expected [params] section, got {line!r}")
    while True:
        line = kv.read_line(fh, "params", number + 1 + len(manifest))
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
        count = int(np.prod(dims)) if dims else 1
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
