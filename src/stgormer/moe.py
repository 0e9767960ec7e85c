"""Mixture-of-experts feedforward block: gating, soft aggregation, balance loss.

Routing is dense: every expert runs on every token and outputs are combined
with the gate's softmax weights, so the balance loss stays differentiable.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def moe_forward(x: Tensor, experts: list[ExpertParams],
                router: RouterParams) -> tuple[Tensor, Tensor]:
    """Dense soft mixture sum_i gate_i(x) * expert_i(x), plus the gate usage.

    The usage is the mean gate probability per expert over every token of
    ``x``, kept in the graph so the balance loss backpropagates into the router.
    """
    weights = gate(x, router)
    usage = weights.reshape(-1, weights.shape[-1]).mean(axis=0)
    out = None
    for i, expert in enumerate(experts):
        term = weights[..., i:i + 1] * expert_forward(x, expert)
        out = term if out is None else out + term
    return out, usage


def load_balance_loss(usage: Tensor) -> Tensor:
    """Mean squared usage fraction: (1/E) * sum_i f_i^2 for usage f of length E.

    Minimized at uniform usage (value 1/E^2), maximized when one expert
    takes everything (value 1/E).
    """
    return (usage * usage).sum() * (1.0 / float(usage.shape[-1]))
