"""Spatio-temporal graph transformer for traffic forecasting.

Core pieces: structural graph encodings (degree centrality, shortest-path
distances), periodic time encoding, axis-wise multi-head attention with a
learnable shortest-path bias, mixture-of-experts feedforward blocks with a
load-balancing loss, and a deterministic train/evaluate/forecast pipeline.
"""
import os as _os
import sys as _sys
import warnings as _warnings

# Desk-scale tensors: threaded BLAS loses to its own synchronization here and
# single-threaded reductions keep results reproducible. Respected only if the
# user has not chosen; BLAS reads the variables once, when numpy first loads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_THREADS:
        _os.environ.setdefault(_var, "1")
elif not any(_var in _os.environ for _var in _BLAS_THREADS):
    _warnings.warn(
        "numpy was imported before stgormer, so BLAS runs its default thread count "
        "instead of one thread: import stgormer first, or set OPENBLAS_NUM_THREADS=1 "
        "(OMP_NUM_THREADS, MKL_NUM_THREADS for other BLAS builds) before numpy loads",
        RuntimeWarning)

__version__ = "0.1.0"
