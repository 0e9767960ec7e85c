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


class MoEState:
    """Accumulates gate probability mass per expert within one training step.

    The accumulator is kept as a graph tensor so the balance loss
    backpropagates into the router.  Reset at the start of every step.
    """

    def __init__(self, num_experts: int):
        self.num_experts = num_experts
        self._prob_sum: Tensor | None = None
        self._token_count = 0

    @property
    def token_count(self) -> int:
        return self._token_count

    def accumulate(self, weights: Tensor) -> None:
        """Add a batch of per-token gate weights (..., E) to the running sums."""
        if weights.shape[-1] != self.num_experts:
            raise ValueError("gate width does not match expert count")
        tokens = 1
        for extent in weights.shape[:-1]:
            tokens *= extent
        flat = weights.reshape(tokens, self.num_experts)
        summed = flat.sum(axis=0)
        self._prob_sum = summed if self._prob_sum is None else self._prob_sum + summed
        self._token_count += tokens

    def fractions(self) -> Tensor:
        """Mean gate probability per expert over the accumulated tokens."""
        if self._token_count == 0:
            raise ValueError("empty state: no tokens accumulated since reset")
        return self._prob_sum * (1.0 / float(self._token_count))

    def reset(self) -> None:
        self._prob_sum = None
        self._token_count = 0


def expert_forward(x: Tensor, expert: ExpertParams) -> Tensor:
    return linear(linear(x, expert.w1, expert.b1).relu(), expert.w2, expert.b2)


def gate(x: Tensor, router: RouterParams) -> Tensor:
    """Per-token expert weight distribution (softmax over the gate logits)."""
    return softmax(linear(x, router.w, router.b), axis=-1)


def moe_forward(x: Tensor, experts: list[ExpertParams], router: RouterParams,
                state: MoEState | None = None) -> Tensor:
    """Dense soft mixture: sum_i gate_i(x) * expert_i(x), tracking gate stats."""
    weights = gate(x, router)
    if state is not None:
        state.accumulate(weights)
    out = None
    for i, expert in enumerate(experts):
        term = weights[..., i:i + 1] * expert_forward(x, expert)
        out = term if out is None else out + term
    return out


def load_balance_loss(state: MoEState) -> Tensor:
    """Mean squared probability fraction: (1/E) * sum_i f_i^2.

    Minimized at uniform usage (value 1/E^2), maximized when one expert
    takes everything (value 1/E).
    """
    f = state.fractions()
    return (f * f).sum() * (1.0 / float(state.num_experts))
