"""General arithmetic on Tensors, for the tests only.

The package computes with fused graph nodes and has no use for elementwise
arithmetic or reductions on a Tensor. The tests build their scalar losses and
their unfused reference compositions from these functions, which record the
same graph nodes, with the same bits, as the engine's former operators.
"""
import numpy as np

from stgormer.numerics import Tensor, _unbroadcast


def _constant(b) -> Tensor:
    return b if isinstance(b, Tensor) else Tensor(b)


def add(a: Tensor, b) -> Tensor:
    b = _constant(b)
    return Tensor._result(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b) -> Tensor:
    b = _constant(b)
    return Tensor._result(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def sub(a: Tensor, b) -> Tensor:
    b = _constant(b)
    return Tensor._result(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def total(a: Tensor, axis=None) -> Tensor:
    """The sum over ``axis``, or over every axis."""

    def back(g: np.ndarray) -> tuple:
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy(),

    return Tensor._result(a.data.sum(axis=axis), (a,), back)


def mean(a: Tensor, axis=None) -> Tensor:
    summed = total(a, axis=axis)
    # an exact integer ratio, correctly rounded: the bits of 1 / count
    return mul(summed, summed.data.size / a.data.size)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return Tensor._result(np.abs(a.data), (a,), lambda g: (g * sign,))
