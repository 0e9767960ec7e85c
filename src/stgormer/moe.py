"""Mixture-of-experts feedforward block: gating, soft aggregation, balance loss.

Routing is dense: every expert runs on every token and outputs are combined
with the gate's softmax weights, so the balance loss stays differentiable.
The experts run as one stacked primitive (:func:`dense_mixture`) over row
blocks of tokens; their parameters stay separate tensors and are stacked on
every call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, linear, softmax

# Tokens per row block of dense_mixture. At the default width (6 experts of
# 256) a 128-token block's hidden layer is 1.5 MiB, within a 2 MiB per-core
# L2 cache; on a 2-core host, 128 beat 64 and 256 on a default training step.
_CHUNK = 128


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


def expert_forward(x: Tensor, expert: ExpertParams) -> Tensor:
    return linear(linear(x, expert.w1, expert.b1).relu(), expert.w2, expert.b2)


def gate(x: Tensor, router: RouterParams) -> Tensor:
    """Per-token expert weight distribution (softmax over the gate logits)."""
    return softmax(linear(x, router.w, router.b), axis=-1)


def _with_ones(a: np.ndarray) -> np.ndarray:
    """``a`` with a column of ones appended, which multiplies a bias row."""
    return np.concatenate([a, np.ones((len(a), 1))], axis=1)


def dense_mixture(x: Tensor, weights: Tensor, experts: list[ExpertParams]) -> Tensor:
    """sum_e weights[..., e] * expert_e(x) as one graph node.

    The E experts' parameters are stacked into W1 (D+1, E*H), whose last row
    is b1, W2 (E*H, D) and B2 (E, D). Forward: relu([x 1] W1), each H-wide
    slice scaled by the token's gate weight, times W2, plus weights @ B2.
    Tokens run in row blocks of ``_CHUNK`` so that a block's hidden layer
    stays in cache. The hidden layer is not kept: the closed-form backward
    recomputes it block by block, sums the stacked parameter gradients over
    the blocks and slices them back to each expert.
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
    blocks = [slice(start, start + _CHUNK) for start in range(0, len(x2), _CHUNK)]
    block_shape = (min(_CHUNK, len(x2)), n_exp * hid)

    def hidden(block: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """relu([x 1] W1) for one block of rows of [x 1], written into ``buf``."""
        h = np.matmul(block, w1, out=buf[:len(block)])
        return np.maximum(h, 0.0, out=h)

    def scale(a: np.ndarray, rows: slice) -> None:
        """Multiply each expert's H-wide slice of a block by its gate weight."""
        a3 = a.reshape(len(a), n_exp, hid)
        a3 *= gw[rows, :, None]

    x1 = _with_ones(x2)
    out = np.empty_like(x2)
    buf = np.empty(block_shape)
    for rows in blocks:
        h = hidden(x1[rows], buf)
        scale(h, rows)
        np.matmul(h, w2, out=out[rows])
    out += gw @ b2

    def back(g: np.ndarray) -> None:
        g2 = g.reshape(-1, width)
        x1 = _with_ones(x2)
        d_gw = np.empty_like(gw) if weights.requires_grad else None
        dx = np.empty_like(x2) if x.requires_grad else None
        dw1, dw2 = np.zeros_like(w1), np.zeros_like(w2)
        h_buf, d_buf = np.empty(block_shape), np.empty(block_shape)
        for rows in blocks:
            h = hidden(x1[rows], h_buf)
            d = np.matmul(g2[rows], w2.T, out=d_buf[:len(h)])
            if d_gw is not None:
                d_gw[rows] = np.einsum("teh,teh->te", d.reshape(len(d), n_exp, hid),
                                       h.reshape(len(h), n_exp, hid))
            d *= h > 0
            scale(d, rows)
            scale(h, rows)
            dw2 += h.T @ g2[rows]
            if dx is not None:
                np.matmul(d, w1[:width].T, out=dx[rows])
            dw1 += x1[rows].T @ d
        if d_gw is not None:
            d_gw += g2 @ b2.T
            weights._accumulate(d_gw.reshape(weights.shape))
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))
        dw1, db1 = dw1[:width], dw1[width]
        db2 = gw.T @ g2
        for e, expert in enumerate(experts):
            cols = slice(e * hid, (e + 1) * hid)
            for param, part in ((expert.w1, dw1[:, cols]), (expert.b1, db1[cols]),
                                (expert.w2, dw2[cols]), (expert.b2, db2[e])):
                if param.requires_grad:
                    param._accumulate(part)

    params = [p for e in experts for p in (e.w1, e.b1, e.w2, e.b2)]
    return Tensor._result(out.reshape(x.shape), (x, weights, *params), back)


def moe_forward(x: Tensor, experts: list[ExpertParams],
                router: RouterParams) -> tuple[Tensor, Tensor]:
    """Dense soft mixture sum_i gate_i(x) * expert_i(x), plus the gate usage.

    The usage is the mean gate probability per expert over every token of
    ``x``, kept in the graph so the balance loss backpropagates into the router.
    """
    weights = gate(x, router)
    usage = weights.reshape(-1, weights.shape[-1]).mean(axis=0)
    return dense_mixture(x, weights, experts), usage


def load_balance_loss(usage: Tensor) -> Tensor:
    """Mean squared usage fraction: (1/E) * sum_i f_i^2 for usage f of length E.

    Minimized at uniform usage (value 1/E^2), maximized when one expert
    takes everything (value 1/E).
    """
    return (usage * usage).sum() * (1.0 / float(usage.shape[-1]))
