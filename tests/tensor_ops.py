"""General arithmetic on Tensors, for the tests only.

The package computes with fused graph nodes and has no use for elementwise
arithmetic or reductions on a Tensor. The tests build their scalar losses and
their unfused reference compositions from these functions, which record the
same graph nodes, with the same bits, as the engine's former operators.
"""
import numpy as np

from stgormer.numerics import Tensor, _unbroadcast


def add(a: Tensor, b) -> Tensor:
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = a.data + b.data

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._result(data, (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = a.data * b.data

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(data, (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = a.data - b.data

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor._result(data, (a, b), back)


def total(a: Tensor, axis=None) -> Tensor:
    """The sum over ``axis``, or over every axis."""
    data = a.data.sum(axis=axis)
    in_shape = a.data.shape

    def back(g: np.ndarray) -> None:
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, in_shape).copy())

    return Tensor._result(data, (a,), back)


def mean(a: Tensor, axis=None) -> Tensor:
    summed = total(a, axis=axis)
    # an exact integer ratio, correctly rounded: the bits of 1 / count
    return mul(summed, summed.data.size / a.data.size)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)
    sign = np.sign(a.data)

    def back(g: np.ndarray) -> None:
        a._accumulate(g * sign)

    return Tensor._result(data, (a,), back)
