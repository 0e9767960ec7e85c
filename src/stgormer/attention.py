"""Multi-head self-attention along either axis, plus the shortest-path bias.

Temporal attention batches over nodes (no mixing across space); spatial
attention batches over time steps and can add an N x N bias looked up from a
learnable table indexed by shortest-path distance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SpdMatrix, UNREACHABLE
from .numerics import Tensor, gather_rows, linear, softmax


@dataclass
class AttentionParams:
    """Projection weights for one attention layer; head width = D / heads.

    The key projection carries no bias: a constant key offset shifts every
    score in a row equally, so softmax cancels it and the parameter would be
    unidentifiable (gradient identically zero).
    """

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    heads: int


def spd_bucket_indices(spd: SpdMatrix, max_spd: int) -> np.ndarray:
    """Map raw distances to bias-table rows.

    Rows 0..max_spd are exact distances, max_spd+1 catches longer paths and
    max_spd+2 holds the unreachable sentinel.
    """
    vals = spd.values
    idx = np.minimum(vals, max_spd + 1)
    return np.where(vals == UNREACHABLE, max_spd + 2, idx).astype(np.int64)


def spd_bias(spd: SpdMatrix, table: Tensor, max_spd: int) -> Tensor:
    """Realize the N x N additive attention bias from the bucket table."""
    return gather_rows(table, spd_bucket_indices(spd, max_spd))


def scaled_dot_attention(x: Tensor, params: AttentionParams,
                         bias: Tensor | None = None) -> Tensor:
    """Multi-head attention over (batch, length, width) input.

    Scores are q k^T / sqrt(head_width); ``bias`` (length x length) is added
    after scaling and broadcast over batch and heads.
    """
    m, length, width = x.shape
    h = params.heads
    if width % h:
        raise ValueError(f"width {width} not divisible by {h} heads")
    dh = width // h
    if bias is not None and bias.shape != (length, length):
        raise ValueError(
            f"bias shape {bias.shape} does not match sequence length {length}")

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(m, length, h, dh).transpose(0, 2, 1, 3)

    q = split_heads(linear(x, params.w_q, params.b_q))
    k = split_heads(linear(x, params.w_k, None))
    v = split_heads(linear(x, params.w_v, params.b_v))

    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
    if bias is not None:
        scores = scores + bias.reshape(1, 1, length, length)
    attn = softmax(scores, axis=-1)
    mixed = attn @ v
    merged = mixed.transpose(0, 2, 1, 3).reshape(m, length, width)
    return linear(merged, params.w_o, params.b_o)


def temporal_attention(h: Tensor, params: AttentionParams) -> Tensor:
    """Attend along time independently per node; input (..., T, N, D)."""
    *lead, t, n, d = h.shape
    batch = int(np.prod(lead)) if lead else 1
    per_node = h.transpose(*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2)
    flat = per_node.reshape(batch * n, t, d)
    out = scaled_dot_attention(flat, params)
    back = out.reshape(*lead, n, t, d)
    return back.transpose(*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2)


def spatial_attention(h: Tensor, params: AttentionParams,
                      bias: Tensor | None = None) -> Tensor:
    """Attend across nodes independently per time step; input (..., T, N, D)."""
    *lead, t, n, d = h.shape
    batch = int(np.prod(lead)) if lead else 1
    flat = h.reshape(batch * t, n, d)
    out = scaled_dot_attention(flat, params, bias=bias)
    return out.reshape(*lead, t, n, d)
