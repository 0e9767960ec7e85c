"""tracemalloc measurements for the memory tests: the bytes a call keeps
alive, and the most bytes live at once while it runs.

Each function traces only while it runs, unless tracing is already on (inside
:func:`tracing`), so a test can measure a forward pass and then the backward
pass that consumes it against one trace."""
import tracemalloc
from contextlib import contextmanager


@contextmanager
def tracing():
    """Trace allocations inside the block, unless something already does."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def kept_bytes(fn):
    """``fn()`` and the bytes it allocated that are still live when it returns."""
    with tracing():
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - before


def peak_bytes(fn):
    """``fn()`` and the most bytes live at once while it ran, above those live
    before it began."""
    with tracing():
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
