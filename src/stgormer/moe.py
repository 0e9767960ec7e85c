"""Mixture-of-experts feedforward block: gating, soft aggregation, balance loss.

Routing is dense: every expert runs on every token and outputs are combined
with the gate's softmax weights, so the balance loss stays differentiable.
The experts run as one stacked primitive (:func:`dense_mixture`); their
parameters stay separate tensors and are stacked on every call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, linear, softmax


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


def dense_mixture(x: Tensor, weights: Tensor, experts: list[ExpertParams]) -> Tensor:
    """sum_e weights[..., e] * expert_e(x) as one graph node.

    The E experts' parameters are stacked into W1 (D, E*H), b1 (E*H),
    W2 (E*H, D) and B2 (E, D). Forward: relu(x W1 + b1), each H-wide slice
    scaled by the token's gate weight, times W2, plus weights @ B2. Backward
    is closed form: one large GEMM each for the hidden layer, W2, W1 and the
    input, and the gate gradient from the hidden layer's. The stacked
    parameter gradients are sliced back to each expert. Only the relu output
    is kept for backward; its scaled copy is rebuilt there.
    """
    n_exp = len(experts)
    if weights.shape != x.shape[:-1] + (n_exp,):
        raise ValueError(f"gate weights shape {weights.shape} does not match "
                         f"{n_exp} experts over input shape {x.shape}")
    width, hid = experts[0].w1.shape
    x2 = x.data.reshape(-1, width)
    gw = weights.data.reshape(-1, n_exp)
    gw3 = gw[:, :, None]
    w1 = np.concatenate([e.w1.data for e in experts], axis=1)
    w2 = np.concatenate([e.w2.data for e in experts], axis=0)
    b2 = np.stack([e.b2.data for e in experts])
    hidden = x2 @ w1
    hidden += np.concatenate([e.b1.data for e in experts])
    np.maximum(hidden, 0.0, out=hidden)
    hidden3 = hidden.reshape(-1, n_exp, hid)
    out = (hidden3 * gw3).reshape(hidden.shape) @ w2
    out += gw @ b2

    def back(g: np.ndarray) -> None:
        g2 = g.reshape(-1, width)
        d_scaled = (g2 @ w2.T).reshape(hidden3.shape)
        if weights.requires_grad:
            d_gw = np.einsum("teh,teh->te", d_scaled, hidden3) + g2 @ b2.T
            weights._accumulate(d_gw.reshape(weights.shape), fresh=True)
        dw2 = (hidden3 * gw3).reshape(hidden.shape).T @ g2
        db2 = gw.T @ g2
        d_scaled *= gw3
        d_scaled *= hidden3 > 0
        d_pre = d_scaled.reshape(hidden.shape)
        if x.requires_grad:
            x._accumulate((d_pre @ w1.T).reshape(x.shape), fresh=True)
        dw1 = x2.T @ d_pre
        db1 = d_pre.sum(axis=0)
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
