"""Mixture-of-experts feedforward block: gating, soft aggregation, balance loss.

Routing is dense: every expert runs on every token and outputs are combined
with the gate's softmax weights, so the balance loss stays differentiable.
The experts, or a lone expert when the MoE is off, run as one stacked
primitive (:func:`dense_mixture`) over row blocks of tokens, split into lanes
on two threads; their parameters stay separate tensors, stacked on every call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, _in_blocks

# Hidden-layer bytes per row block of dense_mixture: 128 tokens at the default
# width (6 experts of 256), within a 2 MiB per-core L2 cache. On a 2-core host
# 128 rows beat 64 and 256 on a default training step; at small widths the
# larger blocks keep the per-block overhead down.
_BLOCK_BYTES = 3 << 19


@dataclass
class ExpertParams:
    """One two-layer feedforward expert: D -> m*D -> D with relu between."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class RouterParams:
    """Single linear gating layer mapping hidden width to expert count."""

    w: Tensor
    b: Tensor


def gate(x: Tensor, router: RouterParams) -> Tensor:
    """Per-token expert weights softmax(x W + b) over the trailing axis, as one
    graph node. Rows are shifted by their max before exp."""
    w = router.w.data
    x2 = x.data.reshape(-1, x.shape[-1])
    probs = x2 @ w
    probs += router.b.data
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    probs = probs.reshape(x.shape[:-1] + w.shape[1:])

    def back(g: np.ndarray) -> tuple:
        d = g - (g * probs).sum(axis=-1, keepdims=True)
        d *= probs
        d2 = d.reshape(-1, w.shape[1])
        dx = (d2 @ w.T).reshape(x.shape) if x.requires_grad else None
        return dx, x2.T @ d2, d2.sum(axis=0)

    return Tensor._result(probs, (x, router.w, router.b), back)


def dense_mixture(x: Tensor, weights: Tensor, experts: list[ExpertParams]) -> Tensor:
    """sum_e weights[..., e] * expert_e(x) as one graph node.

    The E experts' parameters are stacked into W1 (D+1, E*H), whose last row
    is b1, W2 (E*H, D) and B2 (E, D). Forward: relu([x 1] W1), each H-wide
    slice scaled by the token's gate weight, times W2, plus weights @ B2.
    Tokens run in row blocks of about ``_BLOCK_BYTES`` of hidden layer, so
    that a block's hidden layer stays in cache (:func:`numerics._in_blocks`).
    The hidden layer is not kept: the closed-form backward recomputes it block
    by block, and the stacked parameter gradients are sliced back to each
    expert.
    """
    n_exp = len(experts)
    if weights.shape != x.shape[:-1] + (n_exp,):
        raise ValueError(f"gate weights shape {weights.shape} does not match "
                         f"{n_exp} experts over input shape {x.shape}")
    width, hid = experts[0].w1.shape
    x2 = x.data.reshape(-1, width)
    gw = weights.data.reshape(-1, n_exp)
    w1 = np.concatenate([np.vstack([e.w1.data, e.b1.data]) for e in experts], axis=1)
    w2 = np.concatenate([e.w2.data for e in experts], axis=0)
    b2 = np.stack([e.b2.data for e in experts])
    block = max(1, _BLOCK_BYTES // (8 * n_exp * hid))

    def scratch(rows: int, hidden_count: int = 1) -> list[np.ndarray]:
        """A lane's [x 1] block buffer and ``hidden_count`` hidden-layer ones,
        for blocks of up to ``rows`` rows."""
        x1 = np.empty((rows, width + 1))
        x1[:, width] = 1.0
        return [x1] + [np.empty((rows, n_exp * hid)) for _ in range(hidden_count)]

    def load(buf: np.ndarray, rows: slice) -> np.ndarray:
        """[x 1] for one block of rows, written into the lane's buffer."""
        x1 = buf[:rows.stop - rows.start]
        x1[:, :width] = x2[rows]
        return x1

    def hidden(x1: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """relu([x 1] W1) for one block of rows of [x 1], written into ``buf``."""
        h = np.matmul(x1, w1, out=buf[:len(x1)])
        return np.maximum(h, 0.0, out=h)

    def scale(a: np.ndarray, rows: slice) -> None:
        """Multiply each expert's H-wide slice of a block by its gate weight."""
        a3 = a.reshape(len(a), n_exp, hid)
        a3 *= gw[rows, :, None]

    out = np.empty_like(x2)

    def forward_block(rows: slice, x1_buf: np.ndarray, h_buf: np.ndarray) -> None:
        h = hidden(load(x1_buf, rows), h_buf)
        scale(h, rows)
        np.matmul(h, w2, out=out[rows])

    _in_blocks(len(x2), block, forward_block, scratch=scratch)
    out += gw @ b2

    def back(g: np.ndarray) -> list:
        g2 = g.reshape(-1, width)
        d_gw = np.empty_like(gw) if weights.requires_grad else None
        dx = np.empty_like(x2) if x.requires_grad else None

        def backward_block(rows: slice, x1_buf: np.ndarray, h_buf: np.ndarray,
                           d_buf: np.ndarray, part1: np.ndarray, part2: np.ndarray,
                           dw1: np.ndarray, dw2: np.ndarray) -> None:
            x1 = load(x1_buf, rows)
            h = hidden(x1, h_buf)
            d = np.matmul(g2[rows], w2.T, out=d_buf[:len(h)])
            if d_gw is not None:
                np.einsum("teh,teh->te", d.reshape(len(d), n_exp, hid),
                          h.reshape(len(h), n_exp, hid), out=d_gw[rows])
            d *= h > 0
            scale(d, rows)
            scale(h, rows)
            dw2 += np.matmul(h.T, g2[rows], out=part2)
            if dx is not None:
                np.matmul(d, w1[:width].T, out=dx[rows])
            dw1 += np.matmul(x1.T, d, out=part1)

        dw1, dw2 = _in_blocks(
            len(x2), block, backward_block, sums=(w1.shape, w2.shape),
            scratch=lambda rows: scratch(rows, 2) + [np.empty_like(w1), np.empty_like(w2)])
        if d_gw is not None:
            d_gw += g2 @ b2.T
            d_gw = d_gw.reshape(weights.shape)
        per_expert = zip(np.split(dw1[:width], n_exp, axis=1), np.split(dw1[width], n_exp),
                         np.split(dw2, n_exp), gw.T @ g2)
        return [None if dx is None else dx.reshape(x.shape), d_gw,
                *(d for grads in per_expert for d in grads)]

    params = [p for e in experts for p in (e.w1, e.b1, e.w2, e.b2)]
    return Tensor._result(out.reshape(x.shape), (x, weights, *params), back)


def expert_forward(x: Tensor, expert: ExpertParams) -> Tensor:
    """One expert alone: :func:`dense_mixture` of ``[expert]`` under a unit gate."""
    return dense_mixture(x, Tensor(np.ones(x.shape[:-1] + (1,))), [expert])


def moe_forward(x: Tensor, experts: list[ExpertParams],
                router: RouterParams) -> tuple[Tensor, Tensor]:
    """Dense soft mixture sum_i gate_i(x) * expert_i(x), plus the gate weights,
    whose mean per expert the balance term of the loss reads."""
    weights = gate(x, router)
    return dense_mixture(x, weights, experts), weights


def load_balance_loss(usage: np.ndarray) -> float:
    """Mean squared usage fraction: (1/E) * sum_i f_i^2 for usage f of length E.

    Minimized at uniform usage (value 1/E^2), maximized when one expert
    takes everything (value 1/E).
    """
    return (usage * usage).sum() * (1.0 / float(usage.shape[-1]))
