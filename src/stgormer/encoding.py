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
from .numerics import Tensor, concat, linear


@dataclass
class Time2VecParams:
    """Per-feature frequency and phase vectors, both of length ``dim``."""

    w: Tensor
    b: Tensor

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass
class DegreeEmbeddingTables:
    """Indegree / outdegree embeddings with a shared overflow bucket.

    Row layout: rows 0..max_degree hold exact degrees, row max_degree+1
    catches anything larger.
    """

    z_minus: Tensor
    z_plus: Tensor
    max_degree: int


def time2vec(t, params: Time2VecParams) -> Tensor:
    """Encode scalar time features: dimension 0 is affine, the rest sinusoidal.

    ``t`` may be a float or a Tensor of any shape; output appends an axis of
    length ``params.dim``.
    """
    t = t if isinstance(t, Tensor) else Tensor(t)
    z = t.reshape(t.shape + (1,)) * params.w + params.b
    if params.dim == 1:
        return z
    return concat([z[..., :1], z[..., 1:].sin()])


def temporal_input_encoding(timestamps, feature_params: list[Time2VecParams]) -> Tensor:
    """Concatenate one time2vec block per temporal feature.

    ``timestamps`` has shape (..., k) with k == len(feature_params); the
    result has shape (..., k * dim).
    """
    ts = timestamps if isinstance(timestamps, Tensor) else Tensor(timestamps)
    k = ts.shape[-1]
    if k != len(feature_params):
        raise ValueError(
            f"timestamps carry {k} features but {len(feature_params)} "
            "parameter sets are configured")
    parts = [time2vec(ts[..., j], feature_params[j]) for j in range(k)]
    return concat(parts)


def spatial_input_encoding(g: SpatioTemporalGraph,
                           tables: DegreeEmbeddingTables) -> Tensor:
    """Per-node centrality encoding: z_minus[indeg] + z_plus[outdeg], clamped."""
    indeg, outdeg = degrees(g)
    cap = tables.max_degree + 1
    in_idx = np.minimum(indeg, cap)
    out_idx = np.minimum(outdeg, cap)
    return tables.z_minus[in_idx] + tables.z_plus[out_idx]


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
    concatenation (the fusion weight is sized accordingly).
    """
    lead = x.shape[:-1]
    parts = [x]
    if t_enc is not None:
        widened = t_enc.reshape(t_enc.shape[:-1] + (1, t_enc.shape[-1]))
        parts.append(widened.expand(lead + (t_enc.shape[-1],)))
    if s_enc is not None:
        parts.append(s_enc.expand(lead + (s_enc.shape[-1],)))
    fused = concat(parts)
    if fused.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"fusion input width {fused.shape[-1]} does not match projection "
            f"rows {weight.shape[0]}; check encoding toggles against weights")
    return linear(fused, weight, bias)
