"""Multi-head self-attention along either axis, plus the shortest-path bias.

Temporal attention batches over nodes (no mixing across space); spatial
attention batches over time steps and can add an N x N bias looked up from a
learnable table indexed by shortest-path distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import UNREACHABLE
from .numerics import _BLOCK_ROWS, Tensor, _in_blocks


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


def spd_bucket_indices(spd: np.ndarray, max_spd: int) -> np.ndarray:
    """Map raw distances to bias-table rows.

    Rows 0..max_spd are exact distances, max_spd+1 catches longer paths and
    max_spd+2 holds the unreachable sentinel.
    """
    idx = np.minimum(spd, max_spd + 1)
    return np.where(spd == UNREACHABLE, max_spd + 2, idx).astype(np.int64)


def spd_bias(spd: np.ndarray, table: Tensor, max_spd: int) -> Tensor:
    """Realize the N x N additive attention bias from the bucket table."""
    return table[spd_bucket_indices(spd, max_spd)]


def scaled_dot_attention(x: Tensor, params: AttentionParams, axis: int,
                         bias: Tensor | None = None) -> Tensor:
    """Multi-head attention over (..., T, N, D) input as one graph node: along
    time separately for each node (``axis`` -3), or across nodes separately
    for each time step (``axis`` -2).

    Scores are q k^T / sqrt(head_width); ``bias`` (length x length) is added
    after scaling and broadcast over sequences and heads. Q, K and V come from
    one GEMM against [W_q W_k W_v], stacked on every call. Whole sequences run
    in blocks of about ``_BLOCK_ROWS`` rows (:func:`numerics._in_blocks`). The
    node keeps only its input and the attention probabilities: the
    closed-form backward recomputes q, k, v and the merged heads block by
    block.
    """
    if axis not in (-3, -2) or x.data.ndim < -axis:
        raise ValueError(f"cannot attend along axis {axis} of shape {x.shape}")
    # (sequences, length, nodes, width): the sequence of (p, q) is x4[p, :, q]
    x4 = x.data.reshape((-1, x.shape[axis], math.prod(x.shape[axis + 1:-1]), x.shape[-1]))
    count, length, nodes, width = x4.shape
    h = params.heads
    if width % h:
        raise ValueError(f"width {width} not divisible by {h} heads")
    dh = width // h
    if bias is not None and bias.shape != (length, length):
        raise ValueError(
            f"bias shape {bias.shape} does not match sequence length {length}")
    w_qkv = np.concatenate([params.w_q.data, params.w_k.data, params.w_v.data], axis=1)
    b_qkv = np.concatenate([params.b_q.data, np.zeros(width), params.b_v.data])
    w_o = params.w_o.data
    scale = 1.0 / np.sqrt(dh)
    block = max(1, _BLOCK_ROWS // (length * nodes))

    def rows_of(a4: np.ndarray, seqs: slice) -> np.ndarray:
        """A block's sequences of ``a4`` as rows, in (sequence, position) order."""
        return a4[seqs].transpose(0, 2, 1, 3).reshape(-1, width)

    def put(a4: np.ndarray, seqs: slice, rows: np.ndarray) -> None:
        """The inverse of :func:`rows_of`: write a block's rows into ``a4``."""
        a4[seqs] = rows.reshape(-1, nodes, length, width).transpose(0, 2, 1, 3)

    def heads(rows: np.ndarray) -> list[np.ndarray]:
        """(rows, k * width) as k views (sequences, heads, length, head width)."""
        return [part.reshape(-1, length, h, dh).transpose(0, 2, 1, 3)
                for part in np.split(rows, rows.shape[1] // width, axis=1)]

    def project(xs: np.ndarray) -> list[np.ndarray]:
        """q, k and v of a block, as views into one [q k v] array."""
        qkv = xs @ w_qkv
        qkv += b_qkv
        return heads(qkv)

    def merge(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.matmul(attn, v).transpose(0, 2, 1, 3).reshape(-1, width)

    out = np.empty(x4.shape)
    probs = np.empty((count, nodes, h, length, length))

    def forward_block(seqs: slice) -> None:
        q, k, v = project(rows_of(x4, seqs))
        scores = np.matmul(q, k.transpose(0, 1, 3, 2))
        scores *= scale
        if bias is not None:
            scores += bias.data
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        attn = probs[seqs].reshape(scores.shape)
        np.divide(scores, scores.sum(axis=-1, keepdims=True), out=attn)
        y = merge(attn, v) @ w_o
        y += params.b_o.data
        put(out, seqs, y)

    _in_blocks(count, block, forward_block)

    def back(g: np.ndarray) -> tuple:
        g4 = g.reshape(x4.shape)
        dx = np.empty(x4.shape) if x.requires_grad else None

        def backward_block(seqs: slice, dw_qkv: np.ndarray, db_qkv: np.ndarray,
                           dw_o: np.ndarray, db_o: np.ndarray, d_bias: np.ndarray) -> None:
            xs = rows_of(x4, seqs)
            gs = rows_of(g4, seqs)
            q, k, v = project(xs)
            attn = probs[seqs].reshape(-1, h, length, length)
            dw_o += merge(attn, v).T @ gs
            db_o += gs.sum(axis=0)
            d_mixed, = heads(gs @ w_o.T)
            d_scores = np.matmul(d_mixed, v.transpose(0, 1, 3, 2))
            d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
            d_scores *= attn
            d_bias += d_scores.sum(axis=(0, 1))
            d_scores *= scale
            d_qkv = np.empty((len(xs), 3 * width))
            dq, dk, dv = heads(d_qkv)
            dq[...] = np.matmul(d_scores, k)
            dk[...] = np.matmul(d_scores.transpose(0, 1, 3, 2), q)
            dv[...] = np.matmul(attn.transpose(0, 1, 3, 2), d_mixed)
            dw_qkv += xs.T @ d_qkv
            db_qkv += d_qkv.sum(axis=0)
            if dx is not None:
                put(dx, seqs, d_qkv @ w_qkv.T)

        dw_qkv, db_qkv, dw_o, db_o, d_bias = _in_blocks(
            count, block, backward_block,
            sums=(w_qkv.shape, b_qkv.shape, w_o.shape, width, (length, length)))
        dw_q, dw_k, dw_v = np.split(dw_qkv, 3, axis=1)
        db_q, _, db_v = np.split(db_qkv, 3)
        return (None if dx is None else dx.reshape(x.shape), dw_q, db_q, dw_k, dw_v, db_v,
                dw_o, db_o) + (() if bias is None else (d_bias,))

    parents = (x, params.w_q, params.b_q, params.w_k, params.w_v, params.b_v,
               params.w_o, params.b_o) + (() if bias is None else (bias,))
    return Tensor._result(out.reshape(x.shape), parents, back)


def temporal_attention(h: Tensor, params: AttentionParams) -> Tensor:
    """Attend along time independently per node; input (..., T, N, D)."""
    return scaled_dot_attention(h, params, -3)


def spatial_attention(h: Tensor, params: AttentionParams,
                      bias: Tensor | None = None) -> Tensor:
    """Attend across nodes independently per time step; input (..., T, N, D)."""
    return scaled_dot_attention(h, params, -2, bias)
