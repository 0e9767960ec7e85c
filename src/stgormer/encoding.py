"""Input encodings: periodic time features, degree-centrality embeddings, fusion.

The time encoding has one linear dimension and sinusoidal remainder, each with
a learnable frequency and phase.  Node importance enters through two degree
embedding tables (indegree / outdegree) added per node.  A single affine layer
fuses raw flows with whichever encodings are enabled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SpatioTemporalGraph, degrees
from .numerics import Tensor, _unbroadcast, linear


@dataclass
class Time2VecParams:
    """One temporal feature's frequency and phase vectors, of equal length."""

    w: Tensor
    b: Tensor


@dataclass
class DegreeEmbeddingTables:
    """Indegree / outdegree embeddings with a shared overflow bucket.

    Row layout: rows 0..max_degree hold exact degrees, row max_degree+1
    catches anything larger.
    """

    z_minus: Tensor
    z_plus: Tensor
    max_degree: int


def temporal_input_encoding(timestamps, feature_params: list[Time2VecParams]) -> Tensor:
    """Time2Vec of each temporal feature, concatenated, as one graph node.

    ``timestamps`` (an array) has shape (..., k) with k == len(feature_params);
    the result has shape (..., k * dim). Feature j's z = t_j * w_j + b_j keeps
    dimension 0 and takes sin of the rest; backward recomputes z for the cos.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    k = ts.shape[-1]
    if k != len(feature_params):
        raise ValueError(
            f"timestamps carry {k} features but {len(feature_params)} "
            "parameter sets are configured")
    w = np.stack([p.w.data for p in feature_params])
    b = np.stack([p.b.data for p in feature_params])
    z = ts[..., None] * w + b
    np.sin(z[..., 1:], out=z[..., 1:])

    def back(g: np.ndarray) -> None:
        gz = g.reshape(z.shape).copy()
        gz[..., 1:] *= np.cos(ts[..., None] * w[:, 1:] + b[:, 1:])
        for j, p in enumerate(feature_params):
            if p.b.requires_grad:
                p.b._accumulate(_unbroadcast(gz[..., j, :], p.b.shape))
            if p.w.requires_grad:
                p.w._accumulate(_unbroadcast(gz[..., j, :] * ts[..., j, None], p.w.shape))

    params = [t for p in feature_params for t in (p.w, p.b)]
    return Tensor._result(z.reshape(ts.shape[:-1] + (-1,)), params, back)


def spatial_input_encoding(g: SpatioTemporalGraph,
                           tables: DegreeEmbeddingTables) -> Tensor:
    """Per-node centrality encoding z_minus[indeg] + z_plus[outdeg], degrees
    clamped to the overflow row, as one graph node."""
    cap = tables.max_degree + 1
    lookups = [(table, np.minimum(deg, cap))
               for table, deg in zip((tables.z_minus, tables.z_plus), degrees(g))]

    def back(grad: np.ndarray) -> None:
        for table, idx in lookups:
            if table.requires_grad:
                buf = np.zeros(table.shape)
                np.add.at(buf, idx, grad)
                table._accumulate(buf)

    (z_minus, in_idx), (z_plus, out_idx) = lookups
    return Tensor._result(z_minus.data[in_idx] + z_plus.data[out_idx],
                          (z_minus, z_plus), back)


def fuse_inputs(
    x: Tensor,
    t_enc: Tensor | None,
    s_enc: Tensor | None,
    weight: Tensor,
    bias: Tensor,
) -> Tensor:
    """Project flows plus enabled encodings into hidden width.

    ``x`` has shape (..., T, N, C); ``t_enc`` (..., T, k*dim) broadcasts over
    nodes and ``s_enc`` (N, d) broadcasts over time and any batch axes.
    Disabled encodings are passed as None and simply omitted from the
    concatenation (the fusion weight is sized accordingly), which is one
    graph node.
    """
    parts = [(x, x.shape)]
    if t_enc is not None:
        parts.append((t_enc, t_enc.shape[:-1] + (1, t_enc.shape[-1])))
    if s_enc is not None:
        parts.append((s_enc, s_enc.shape))
    offsets = np.cumsum([0] + [shape[-1] for _, shape in parts])
    if offsets[-1] != weight.shape[0]:
        raise ValueError(
            f"fusion input width {offsets[-1]} does not match projection "
            f"rows {weight.shape[0]}; check encoding toggles against weights")
    lead = x.shape[:-1]
    fused = np.concatenate([np.broadcast_to(t.data.reshape(shape), lead + shape[-1:])
                            for t, shape in parts], axis=-1)

    def back(g: np.ndarray) -> None:
        for (t, shape), lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(_unbroadcast(g[..., lo:hi], shape).reshape(t.shape))

    return linear(Tensor._result(fused, [t for t, _ in parts], back), weight, bias)
