import ast
import pathlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane_pools import DeferredPool, InlinePool
from traced_memory import kept_bytes, peak_bytes
from tensor_ops import absolute, add, mean, mul, sub, total
from stgormer import numerics
from stgormer.moe import RouterParams, gate
from stgormer.numerics import (AdamState, ParameterStore, Tensor, _lanes, adam_step,
                               backward, finite_difference_check,
                               layer_norm, linear, scheduled_lr)


def square(t: Tensor) -> Tensor:
    return mul(t, t)


def softmax(x: Tensor) -> Tensor:
    """The router node's softmax over the trailing axis: moe.gate under an
    identity map, which changes no bit of its input."""
    n = x.shape[-1]
    return gate(x, RouterParams(Tensor(np.eye(n)), Tensor(np.zeros(n))))


def triple_loop_matmul(x, w, b):
    out = np.zeros((x.shape[0], w.shape[1]))
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            acc = 0.0
            for k in range(x.shape[1]):
                acc += x[i, k] * w[k, j]
            out[i, j] = acc + b[j]
    return out


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        y = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(y.data, x.data)

    def test_direct_sum(self):
        y = linear(Tensor([1.0, 2.0]), Tensor([[1.0], [1.0]]), Tensor([0.0]))
        assert y.data.tolist() == [3.0]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=(3, 4))
            w = rng.normal(size=(4, 5))
            b = rng.normal(size=5)
            got = linear(Tensor(x), Tensor(w), Tensor(b)).data
            assert np.max(np.abs(got - triple_loop_matmul(x, w, b))) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="linear"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                   Tensor(np.zeros(5)))


class TestSoftmax:
    def test_symmetric_pair(self):
        out = softmax(Tensor([0.0, 0.0])).data
        assert out.tolist() == [0.5, 0.5]

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, values, c):
        base = softmax(Tensor(values)).data
        shifted = softmax(Tensor([v + c for v in values])).data
        assert np.max(np.abs(base - shifted)) < 1e-12

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.normal(scale=5.0, size=7)
            wide = np.exp(x.astype(np.longdouble))
            expected = (wide / wide.sum()).astype(np.float64)
            got = softmax(Tensor(x)).data
            assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=30.0, size=(4, 6, 5))
        out = softmax(Tensor(x)).data
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12

    def test_extreme_values_stable(self):
        out = softmax(Tensor([1e300, 0.0, -1e300])).data
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12


def unfused_layer_norm(x, f, gamma, beta, eps=1e-5):
    """The residual add and the layer norm as separate steps on plain arrays,
    the reference for the fused node's bits."""
    s = x + f
    centered = s - s.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + eps) ** -0.5
    return normed * gamma + beta


class TestLayerNorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((3, 4), 2.0))
        f = Tensor(np.full((3, 4), 0.5))
        out = layer_norm(x, f, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_zero_gamma_collapses_to_beta(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5)))
        f = Tensor(rng.normal(size=(2, 5)))
        beta = rng.normal(size=5)
        out = layer_norm(x, f, Tensor(np.zeros(5)), Tensor(beta))
        assert np.max(np.abs(out.data - beta)) == 0.0

    def test_moment_check(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(scale=3.0, size=(6, 32)))
        f = Tensor(rng.normal(size=(6, 32)))
        out = layer_norm(x, f, Tensor(np.ones(32)), Tensor(np.zeros(32)), eps=1e-10)
        mean = out.data.mean(axis=-1)
        var = out.data.var(axis=-1)
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(var - 1.0)) < 1e-6

    def test_recorded_node_keeps_no_normalized_rows(self):
        # the node keeps each row's mean and inverse deviation; its backward
        # recomputes the normalized rows from x and the residual
        rng = np.random.default_rng(6)
        rows, width = 4096, 64
        x = Tensor(rng.normal(size=(rows, width)), requires_grad=True)
        f = Tensor(rng.normal(size=(rows, width)), requires_grad=True)
        gamma = Tensor(rng.normal(size=width), requires_grad=True)
        beta = Tensor(rng.normal(size=width), requires_grad=True)
        out, kept = kept_bytes(lambda: layer_norm(x, f, gamma, beta))
        assert out.requires_grad
        assert kept - out.data.nbytes < rows * width * 8

    def test_residual_shape_checked(self):
        with pytest.raises(ValueError, match="residual shape"):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))),
                       Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestLayerNormLanes:
    """layer_norm's row blocks run in two lanes on two threads."""

    # 384-row blocks: 1,600 rows are 5 blocks, lanes [0, 1] and [2, 3, 4]
    SHAPE = (2, 800, 8)

    def tensors(self, store=None, probed=()):
        """x, the residual f, gamma and beta. With a store, the ``probed``
        ones are registered there and the rest are constants."""
        rng = np.random.default_rng(90)
        width = self.SHAPE[-1]
        values = [rng.normal(size=self.SHAPE), rng.normal(size=self.SHAPE),
                  rng.normal(size=width), rng.normal(size=width)]
        if store is None:
            return [Tensor(v, requires_grad=True) for v in values]
        return [store.add(name, v) if name in probed else Tensor(v)
                for name, v in zip(("x", "f", "gamma", "beta"), values)]

    def run(self):
        """Forward output, then the gradients of x, f, gamma and beta."""
        tensors = self.tensors()
        out = layer_norm(*tensors)
        target = np.random.default_rng(91).normal(size=self.SHAPE)
        diff = sub(out, Tensor(target))
        total(mul(diff, diff)).backward()
        return [out.data] + [t.grad for t in tensors]

    def test_spans_two_lanes(self):
        rows = int(np.prod(self.SHAPE[:-1]))
        assert [len(lane) for lane in _lanes(rows, numerics._BLOCK_ROWS)] == [2, 3]

    def test_forward_is_bitwise_the_unfused_composition(self):
        x, f, gamma, beta = self.tensors()
        got = layer_norm(x, f, gamma, beta).data
        want = unfused_layer_norm(x.data, f.data, gamma.data, beta.data)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def assert_matches_one_lane(got, one):
        for i in (0, 1, 2):  # out, dx, df: each lane writes its own rows
            assert got[i].tobytes() == one[i].tobytes()
        for g, want in zip(got[3:], one[3:]):  # sums over the blocks
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    def test_forward_is_bitwise_the_one_lane_run(self, monkeypatch):
        two = self.run()
        monkeypatch.setattr(numerics, "_LANES", 1)
        self.assert_matches_one_lane(two, self.run())

    def test_many_lanes_under_fast_thread_switching(self, monkeypatch):
        # 17 blocks in 8 lanes on 7 workers, more threads than cores, with the
        # interpreter switching threads as often as it can: a row lost or
        # written by the wrong lane would break the bitwise match
        monkeypatch.setattr(self, "SHAPE", (2, 3200, 8))
        monkeypatch.setattr(numerics, "_LANES", 1)
        one = self.run()
        pool = ThreadPoolExecutor(max_workers=7)
        monkeypatch.setattr(numerics, "_LANES", 8)
        monkeypatch.setattr(numerics, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = self.run()
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)
        self.assert_matches_one_lane(many, one)

    def test_bits_do_not_depend_on_lane_order(self, monkeypatch):
        threaded = self.run()
        for pool in (InlinePool(), DeferredPool()):
            monkeypatch.setattr(numerics, "_POOL", pool)
            for got, want in zip(self.run(), threaded):
                assert got.tobytes() == want.tobytes()

    def test_gradients_across_lanes(self):
        # a weighted sum of the outputs: the squared error of the 12,800
        # outputs reads 1.1e-5 of round-off on the smallest input gradients at
        # the default step, 1.2e-4 at width 3
        weights = Tensor(np.random.default_rng(92).normal(size=self.SHAPE))
        for probed in (("gamma", "beta"), ("x", "f")):
            store = ParameterStore()
            tensors = self.tensors(store, probed)

            def fwd():
                return total(mul(layer_norm(*tensors), weights))

            assert finite_difference_check(fwd, store) < 1e-5, probed


class TestBlockRunner:
    # 8 rows in blocks of 2: lanes [0:2, 2:4] and [4:6, 6:8], lane 1 on the pool

    def test_scratch_is_made_in_the_calling_thread(self):
        made, ran = [], []

        def scratch(rows):
            made.append((threading.get_ident(), rows))
            return [np.empty(rows)]

        def run(rows, buf):
            assert len(buf) == rows.stop - rows.start
            ran.append(threading.get_ident())

        numerics._in_blocks(8, 2, run, scratch=scratch)
        assert made == [(threading.get_ident(), 2)] * 2
        assert len(ran) == 4 and len(set(ran)) == 2  # one lane ran on the pool

    def test_every_lane_keeps_the_callers_errstate(self):
        seen = []
        with np.errstate(over="ignore"):
            numerics._in_blocks(8, 2, lambda rows: seen.append(np.geterr()["over"]))
        assert seen == ["ignore"] * 4

    @pytest.mark.parametrize("pool", [None, InlinePool, DeferredPool])
    def test_totals_are_lane_0_plus_lane_1(self, monkeypatch, pool):
        if pool is not None:
            monkeypatch.setattr(numerics, "_POOL", pool())
        parts = {0: 1e16, 2: 1.0, 4: 1.0, 6: 1.0}

        def run(rows, total, pair):
            total += parts[rows.start]
            pair += parts[rows.start]

        total, pair = numerics._in_blocks(8, 2, run, sums=((), 2))
        lane0 = (0.0 + 1e16) + 1.0
        lane1 = (0.0 + 1.0) + 1.0
        assert lane0 + lane1 != ((lane0 + 1.0) + 1.0)  # the grouping shows
        assert total.tobytes() == np.float64(lane0 + lane1).tobytes()
        assert pair.tobytes() == np.full(2, lane0 + lane1).tobytes()

    def test_no_rows_returns_zeroed_totals(self):
        def run(rows, *arrays):
            raise AssertionError("no block to run")

        totals = numerics._in_blocks(0, 4, run, sums=(3, (2, 2)),
                                     scratch=lambda rows: [np.empty(rows)])
        assert [t.shape for t in totals] == [(3,), (2, 2)]
        assert not any(t.any() for t in totals)


def test_only_numerics_names_the_lane_split():
    # the lane pool and the lane split are numerics' own: every other module
    # runs its blocks through numerics._in_blocks
    lane_names = {"_POOL", "_lanes", "_LANES", "_LANE_BLOCKS"}
    package = pathlib.Path(numerics.__file__).parent
    named = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in lane_names:
                named.setdefault(path.name, set()).add(name)
    assert set(named) == {"numerics.py"}, named


class TestBackward:
    def test_sum_of_squares_gradient(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0, -2.0, 3.0]))
        backward(total(mul(p, p)), store)
        assert np.array_equal(p.grad, 2.0 * p.data)

    def test_unused_parameter_gets_zero(self):
        store = ParameterStore()
        p = store.add("used", np.array([1.0, 2.0]))
        q = store.add("unused", np.array([5.0]))
        backward(total(mul(p, p)), store)
        assert np.array_equal(q.grad, np.zeros(1))

    def test_loss_must_be_scalar(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            backward(mul(p, p), store)

    def test_linear_in_loss(self):
        rng = np.random.default_rng(5)
        store = ParameterStore()
        p = store.add("p", rng.normal(size=(3, 3)))
        x = Tensor(rng.normal(size=(2, 3)))

        def make_loss():
            return mean(total(gate(x, RouterParams(p, Tensor(np.zeros(3)))), axis=0))

        backward(make_loss(), store)
        g1 = p.grad.copy()
        backward(mul(make_loss(), 3.5), store)
        assert np.max(np.abs(p.grad - 3.5 * g1)) < 1e-12

    def test_gradient_accumulates_across_shared_use(self):
        store = ParameterStore()
        p = store.add("p", np.array([2.0]))
        backward(total(add(mul(p, p), mul(p, 3.0))), store)
        assert p.grad.tolist() == [2 * 2.0 + 3.0]

    @pytest.mark.parametrize("sum_first", [True, False])
    def test_shared_gradient_buffer_is_not_written_in_place(self, sum_first):
        # a + b hands its own gradient buffer to both a and b; the second
        # contribution each then gets must land in neither that buffer nor
        # the sibling's gradient, whichever contribution arrives first
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        s = add(a, b)
        received = []
        back = s._backward_fn
        s._backward_fn = lambda g: (received.append(g), back(g))[1]
        via_sum = total(mul(s, np.array([1.0, 10.0])))
        direct = add(total(mul(a, 100.0)), total(mul(b, 1000.0)))
        (add(via_sum, direct) if sum_first else add(direct, via_sum)).backward()
        # backward releases s's gradient; the buffer it handed on must be intact
        assert received[0].tolist() == [1.0, 10.0]
        assert a.grad.tolist() == [101.0, 110.0]
        assert b.grad.tolist() == [1001.0, 1010.0]

    def test_second_backward_raises(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = total(mul(a, a))
        loss.backward()
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            loss.backward()
        assert a.grad.tolist() == [2.0, 4.0]

    def test_new_loss_on_a_consumed_node_raises(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = mul(a, a)
        total(h).backward()
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            total(mul(h, 3.0)).backward()


class TestNodeContract:
    """A node's backward returns one gradient per parent; the engine adds them up."""

    def node(self, parents, grads) -> Tensor:
        return Tensor._result(np.zeros(()), parents, lambda g: grads)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_gradient_count_raises(self, count):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="zip"):
            self.node((a, b), [np.ones(2)] * count).backward()

    def test_wrong_gradient_shape_raises_naming_both_shapes(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"shape \(3, 2\) .* shape \(2, 3\)"):
            self.node((a,), [np.ones((3, 2))]).backward()
        assert a.grad is None

    def test_none_and_parents_without_gradient_are_skipped(self):
        a = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        b = Tensor(np.ones(3), requires_grad=True)
        # c's entry is never looked at, not even its shape
        self.node((a, c, b), [None, np.ones(5), np.arange(3.0)]).backward()
        assert a.grad is None and c.grad is None
        assert b.grad.tolist() == [0.0, 1.0, 2.0]


class TestIndex:
    def test_integer_array_index_allocates_its_output_once(self):
        # numpy's integer-array index already copies; 32 windows of 12 steps
        # gathered from 43 steps, as a training batch's step-local output is
        h = Tensor(np.zeros((43, 12, 64)), requires_grad=True)
        windows = np.arange(32)[:, None] + np.arange(12)
        out, peak = peak_bytes(lambda: h[windows])
        assert peak < 1.25 * out.data.nbytes, f"{peak / out.data.nbytes:.2f} outputs at peak"

    def test_basic_index_of_a_leaf_does_not_follow_its_later_edits(self):
        # a slice is a view, and the optimizer edits parameter leaves in place
        p = Tensor(np.arange(6.0), requires_grad=True)
        part = p[1:3]
        p.data[1] = 10.0
        assert part.data.tolist() == [1.0, 2.0]


class TestFrozenStore:
    def test_forward_inside_records_no_graph(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0, 2.0]))
        with store.frozen():
            out = total(mul(p, p))
        assert not out.requires_grad
        assert out._prev == () and out._backward_fn is None
        assert p.requires_grad

    def test_restores_mixed_flags_after_exception(self):
        store = ParameterStore()
        live = store.add("live", np.zeros(2))
        kept_frozen = store.add("expert.w1", np.zeros(2))
        kept_frozen.requires_grad = False
        with pytest.raises(RuntimeError, match="inside"):
            with store.frozen():
                assert not live.requires_grad and not kept_frozen.requires_grad
                raise RuntimeError("raised inside the block")
        assert live.requires_grad
        assert not kept_frozen.requires_grad
        with store.frozen():
            with store.frozen():
                pass
            assert not live.requires_grad
        assert live.requires_grad and not kept_frozen.requires_grad

    def test_backward_inside_is_rejected(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0, 2.0]))
        loss = total(mul(p, p))
        with store.frozen():
            with pytest.raises(ValueError, match="frozen parameter store"):
                backward(loss, store)
            frozen_loss = total(mul(p, p))
        with pytest.raises(ValueError, match="no autodiff graph"):
            backward(frozen_loss, store)
        assert p.grad is None

    def test_backward_of_constant_loss_is_rejected(self):
        store = ParameterStore()
        store.add("p", np.array([1.0]))
        with pytest.raises(ValueError, match="no autodiff graph"):
            backward(Tensor(np.array(3.0)), store)

    def test_add_allocates_no_gradient_until_backward(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0, 2.0]))
        assert p.grad is None
        backward(total(mul(p, p)), store)
        assert np.array_equal(p.grad, np.array([2.0, 4.0]))

    def test_add_copies_a_read_only_value_into_a_writable_parameter(self):
        store = ParameterStore()
        value = np.frombuffer(np.array([1.0, 2.0]).tobytes(), dtype="<f8")
        p = store.add("p", value)
        assert not np.shares_memory(p.data, value)
        assert p.data.flags.writeable and p.data.tolist() == [1.0, 2.0]


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0, -1.0]))
        before = p.data.copy()
        p.grad = np.zeros(2)
        adam_step(store, AdamState(lr=0.01))
        assert np.array_equal(p.data, before)

    def test_first_step_closed_form(self):
        # alpha_1 = lr*sqrt(1-b2)/(1-b1);  m1=(1-b1)g, v1=(1-b2)g^2
        # => |update| = lr*|g| / (|g| + eps/sqrt(1-b2))
        store = ParameterStore()
        g = 0.37
        p = store.add("p", np.array([4.0]))
        p.grad = np.array([g])
        state = AdamState(lr=0.002)
        adam_step(store, state)
        expected = state.lr * abs(g) / (abs(g) + state.eps * (1 - state.beta2) ** -0.5)
        # the realized update is recovered by subtraction at magnitude 4.0,
        # so resolution is ~1e-15; the closed form itself is exact
        assert abs((4.0 - p.data[0]) - expected) < 1e-12

    def test_quadratic_descent(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0]))
        state = AdamState(lr=0.001)
        prev = abs(p.data[0])
        for step in range(100):
            backward(total(mul(p, p)), store)
            adam_step(store, state)
            cur = abs(p.data[0])
            if step >= 5:
                assert cur < prev
            prev = cur

    def test_bitwise_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(7)
            store = ParameterStore()
            p = store.add("p", rng.normal(size=(4, 4)))
            x = Tensor(rng.normal(size=(3, 4)))
            state = AdamState(lr=0.01)
            for _ in range(20):
                y = linear(x, p, Tensor(np.zeros(4)))
                backward(total(mul(y, y)), store)
                adam_step(store, state)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_missing_gradient_rejected(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0]))
        p.grad = None
        with pytest.raises(ValueError, match="gradient missing"):
            adam_step(store, AdamState())

    def test_scheduled_lr(self):
        assert scheduled_lr(1e-3, 0) == 1e-3
        assert scheduled_lr(1e-3, 24) == 1e-3
        assert scheduled_lr(1e-3, 25) == 5e-4
        assert scheduled_lr(1e-3, 50) == 2.5e-4
        assert scheduled_lr(1e-3, 10_000) == 1e-5
        # floor stops decay but never raises the base rate
        assert scheduled_lr(0.0, 100) == 0.0


class TestFiniteDifference:
    def test_linear_loss_is_exact(self):
        store = ParameterStore()
        w = np.array([1.5, -2.0, 0.5])
        p = store.add("p", np.array([0.3, 0.7, -0.2]))
        err = finite_difference_check(lambda: total(mul(p, Tensor(w))), store)
        assert err < 1e-10

    def test_softmax_composition(self):
        rng = np.random.default_rng(8)
        store = ParameterStore()
        p = store.add("p", rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(5, 4)))
        target = Tensor(rng.normal(size=(5, 3)))

        def fwd():
            probs = gate(x, RouterParams(p, Tensor(np.zeros(3))))
            diff = sub(probs, target)
            return mean(mul(diff, diff))

        assert finite_difference_check(fwd, store, step=1e-5) < 1e-6

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(9)
        store = ParameterStore()
        p = store.add("p", rng.normal(size=6))

        class Corrupted(Tensor):
            def backward(self):
                super().backward()
                p.grad *= 1.10

        def fwd():
            out = total(mul(p, p))
            bad = Corrupted(out.data)
            bad.requires_grad = out.requires_grad
            bad._prev = out._prev
            bad._backward_fn = out._backward_fn
            return bad

        assert finite_difference_check(fwd, store) > 0.05

    def test_rejects_nondeterministic_forward(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.0]))
        counter = [0]

        def fwd():
            counter[0] += 1
            return total(mul(p, float(counter[0])))

        with pytest.raises(RuntimeError, match="deterministic"):
            finite_difference_check(fwd, store)

    def test_subsamples_large_stores(self):
        rng = np.random.default_rng(10)
        store = ParameterStore()
        p = store.add("p", rng.normal(size=500))
        calls = [0]

        def fwd():
            calls[0] += 1
            return total(mul(p, p))

        err = finite_difference_check(fwd, store, max_coords=200)
        # cancellation in the 500-term sum dominates; analytic grad is exact
        assert err < 1e-4
        # 2 determinism probes + 1 analytic pass + 2 per probed coordinate
        assert calls[0] == 3 + 2 * 200


class TestPrimitiveGradients:
    """Each differentiable building block against the finite-difference oracle."""

    def check(self, build_loss, shapes, seed=0, tol=1e-6):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        params = [store.add(f"p{i}", rng.normal(size=s))
                  for i, s in enumerate(shapes)]
        assert finite_difference_check(lambda: build_loss(*params), store) < tol

    def test_add_mul_sub(self):
        self.check(lambda a, b: total(mul(mul(add(a, b), sub(a, b)), add(mul(b, b), 3.0))),
                   [(3, 4), (3, 4)])

    def test_broadcast_add(self):
        self.check(lambda a, b: mean(square(add(a, b))), [(3, 4), (4,)])

    def test_matmul(self):
        self.check(lambda a, b: total(linear(a, b, Tensor(np.zeros(2)))), [(3, 4), (4, 2)])

    def test_linear_without_bias(self):
        # a constant zero bias, outside the store
        self.check(lambda x, w: total(square(linear(x, w, Tensor(np.zeros(5))))),
                   [(2, 3, 4), (4, 5)])

    def test_reductions(self):
        self.check(lambda a: add(mean(total(a, axis=0)), total(mean(a, axis=(0, 1)))),
                   [(3, 4, 2)])

    def test_reshape_transpose_slice(self):
        self.check(lambda a: total(square(a.reshape(6, 2).transpose(1, 0)[:, 1:4])),
                   [(3, 4)])

    def test_getitem_with_repeated_indices(self):
        # an embedding lookup: repeated rows add their gradients
        idx = np.array([[0, 2, 2], [1, 0, 2]])
        self.check(lambda t: total(square(t[idx])), [(3, 5)])

    def test_nonlinearities(self):
        # both signs of the slope: |a + 10| |a - 10| = 100 - a^2 near zero
        self.check(lambda a: total(mul(absolute(add(a, 10.0)), absolute(sub(a, 10.0)))),
                   [(4, 3)])

    def test_softmax_layer_norm_composed(self):
        self.check(
            lambda a, f, g, b: total(square(softmax(layer_norm(a, f, g, b)))),
            [(3, 6), (3, 6), (6,), (6,)], tol=1e-5)


class TestCheckpoint:
    def test_duplicate_path_rejected(self):
        store = ParameterStore()
        store.add("p", np.zeros(1))
        with pytest.raises(ValueError, match="already registered"):
            store.add("p", np.zeros(1))
