"""Stand-ins for the engine's lane pool (``numerics._POOL``) that run the
lanes of a primitive in a fixed order, for the tests that check that its bits
do not depend on which lane finishes first."""
from concurrent.futures import Future


class InlinePool:
    """Runs each lane as it is submitted, so lane 1 runs before lane 0."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class DeferredPool:
    """Holds the lanes back until the caller first waits on one (after lane 0
    has run), then runs every held lane in reverse order of submission."""

    def __init__(self):
        self.held = []

    def submit(self, fn, *args):
        pool = self

        class Deferred(Future):
            def exception(self, timeout=None):
                pool.run_held()
                return super().exception(timeout)

            def result(self, timeout=None):
                pool.run_held()
                return super().result(timeout)

        future = Deferred()
        self.held.append((future, fn, args))
        return future

    def run_held(self):
        while self.held:
            future, fn, args = self.held.pop()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
