"""Stacked windows for the tests: ``forward_batch`` takes a step sequence and
a (B, T) index into it, and these lay separate windows end to end as one."""
import numpy as np


def stacked_forward(model, xs, tss):
    """``forward_batch`` on B windows, (B, T, N, C) plus (B, T, k), laid end to
    end as B * T steps, so that no two windows share a step."""
    b, t = np.shape(xs)[:2]
    return model.forward_batch(np.concatenate(xs), np.concatenate(tss),
                               np.arange(b * t).reshape(b, t))


def one_window(model, x, ts):
    """The (horizon, N, C) forecast Tensor of one (T, N, C) window and its
    (T, k) timestamps."""
    pred, _ = model.forward_batch(x, ts, np.arange(len(x))[None])
    return pred.reshape(pred.shape[1:])
