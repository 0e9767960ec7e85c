import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane_pools import DeferredPool, InlinePool
from tensor_ops import add, mean, mul, sub, total
from traced_memory import kept_bytes
from stgormer import model, moe, numerics
from stgormer.moe import (_BLOCK_BYTES, ExpertParams, RouterParams, dense_mixture, gate,
                          load_balance_loss, moe_forward)
from stgormer.numerics import ParameterStore, Tensor, _lanes, finite_difference_check, linear


def make_expert(rng, width, hidden, store=None, prefix="expert"):
    def reg(name, arr):
        return Tensor(arr) if store is None else store.add(f"{prefix}.{name}", arr)

    s1, s2 = 1.0 / np.sqrt(width), 1.0 / np.sqrt(hidden)
    return ExpertParams(
        w1=reg("w1", rng.uniform(-s1, s1, (width, hidden))),
        b1=reg("b1", rng.uniform(-s1, s1, hidden)),
        w2=reg("w2", rng.uniform(-s2, s2, (hidden, width))),
        b2=reg("b2", rng.uniform(-s2, s2, width)))


def unfused_expert(x, expert):
    """One expert as a graph of small ops: linear, relu, linear. The relu is
    a product with a constant mask, whose gradient is the relu's."""
    a = linear(x, expert.w1, expert.b1)
    return linear(mul(a, Tensor(a.data > 0)), expert.w2, expert.b2)


def balance(weights: Tensor) -> Tensor:
    """0.1 times the balance loss of one block's gate weights, from the loss
    node: its MAE, of a zero prediction against a zero target, adds nothing."""
    return model.loss(Tensor(np.zeros(1)), np.zeros(1), [weights], 0.1)[0]


def make_router(rng, width, experts, store=None, prefix="router"):
    def reg(name, arr):
        return Tensor(arr) if store is None else store.add(f"{prefix}.{name}", arr)

    s = 1.0 / np.sqrt(width)
    return RouterParams(w=reg("w", rng.uniform(-s, s, (width, experts))),
                        b=reg("b", np.zeros(experts)))


class TestGate:
    def test_single_expert_weight_is_exactly_one(self):
        rng = np.random.default_rng(50)
        router = make_router(rng, 4, 1)
        weights = gate(Tensor(rng.normal(size=(3, 2, 4))), router).data
        assert np.array_equal(weights, np.ones((3, 2, 1)))

    def test_zero_parameters_give_uniform_weights(self):
        rng = np.random.default_rng(51)
        router = RouterParams(w=Tensor(np.zeros((4, 5))), b=Tensor(np.zeros(5)))
        weights = gate(Tensor(rng.normal(size=(6, 4))), router).data
        assert np.array_equal(weights, np.full((6, 5), 0.2))

    def test_matches_per_token_oracle(self):
        rng = np.random.default_rng(52)
        router = make_router(rng, 5, 3)
        x = rng.normal(size=(4, 2, 5))
        weights = gate(Tensor(x), router).data
        for i in range(4):
            for j in range(2):
                logits = x[i, j] @ router.w.data + router.b.data
                e = np.exp(logits - logits.max())
                assert np.max(np.abs(weights[i, j] - e / e.sum())) < 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(53)
        router = make_router(rng, 4, 6)
        weights = gate(Tensor(rng.normal(size=(7, 4)) * 20), router).data
        assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-12


class TestMoEForward:
    def test_single_expert_equals_plain_fnn(self):
        rng = np.random.default_rng(54)
        expert = make_expert(rng, 4, 8)
        router = make_router(rng, 4, 1)
        x = Tensor(rng.normal(size=(5, 4)))
        mixed = moe_forward(x, [expert], router)[0].data
        plain = unfused_expert(x, expert).data
        assert np.max(np.abs(mixed - plain)) < 1e-12

    def test_identical_experts_ignore_gate(self):
        rng = np.random.default_rng(55)
        expert = make_expert(rng, 4, 8)
        clones = [ExpertParams(expert.w1, expert.b1, expert.w2, expert.b2)
                  for _ in range(3)]
        router = make_router(rng, 4, 3)
        x = Tensor(rng.normal(size=(5, 4)))
        mixed = moe_forward(x, clones, router)[0].data
        single = unfused_expert(x, expert).data
        assert np.max(np.abs(mixed - single)) < 1e-12

    def test_expert_forward_is_one_node(self):
        # the model's feedforward without the MoE: the fused node itself,
        # whose parents are x and the expert's parameters
        rng = np.random.default_rng(58)
        expert = make_expert(rng, 4, 8)
        params = (expert.w1, expert.b1, expert.w2, expert.b2)
        for t in params:
            t.requires_grad = True
        x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        out = model.expert_forward(x, expert)
        assert out._prev == (x,) + params
        assert np.max(np.abs(out.data - unfused_expert(x, expert).data)) < 1e-12

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(56)
        experts = [make_expert(rng, 4, 6) for _ in range(3)]
        router = make_router(rng, 4, 3)
        x = rng.normal(size=(2, 3, 4))
        got = moe_forward(Tensor(x), experts, router)[0].data
        weights = gate(Tensor(x), router).data
        expected = np.zeros_like(x)
        for i, e in enumerate(experts):
            hidden = np.maximum(x @ e.w1.data + e.b1.data, 0.0)
            expected += weights[..., i:i + 1] * (hidden @ e.w2.data + e.b2.data)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_gradients_including_balance_path(self):
        rng = np.random.default_rng(57)
        store = ParameterStore()
        experts = [make_expert(rng, 3, 5, store, f"e{i}") for i in range(3)]
        router = make_router(rng, 3, 3, store)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))

        def fwd():
            out, weights = moe_forward(Tensor(x), experts, router)
            diff = sub(out, Tensor(target))
            err = mean(mul(diff, diff))
            return add(err, balance(weights))

        assert finite_difference_check(fwd, store) < 1e-4


def loop_mixture(x, weights, experts):
    """Per-expert reference: sum_i weights[..., i] * expert_i(x) from small ops."""
    out = None
    for i, expert in enumerate(experts):
        term = mul(weights[..., i:i + 1], unfused_expert(x, expert))
        out = term if out is None else add(out, term)
    return out


class TestDenseMixture:
    @pytest.mark.parametrize("lead,width,hidden,count",
                             [((5,), 4, 8, 1), ((2, 3), 4, 6, 3), ((2, 3, 2), 5, 7, 4),
                              ((3, 100), 5, 7, 3), ((2, 250), 4, 512, 3)])
    def test_matches_per_expert_loop(self, lead, width, hidden, count):
        rng = np.random.default_rng(62)
        experts = [make_expert(rng, width, hidden) for _ in range(count)]
        router = make_router(rng, width, count)
        for e in experts:
            for t in (e.w1, e.b1, e.w2, e.b2):
                t.requires_grad = True
        x = Tensor(rng.normal(size=lead + (width,)), requires_grad=True)
        weights = Tensor(gate(x, router).data, requires_grad=True)
        target = Tensor(rng.normal(size=lead + (width,)))
        tensors = [x, weights] + [p for e in experts for p in (e.w1, e.b1, e.w2, e.b2)]

        def run(combine):
            for t in tensors:
                t.grad = None
            out = combine(x, weights, experts)
            diff = sub(out, target)
            total(mul(diff, diff)).backward()
            return out.data, [t.grad for t in tensors]

        fused, fused_grads = run(dense_mixture)
        loop, loop_grads = run(loop_mixture)
        assert np.max(np.abs(fused - loop)) <= 1e-12
        for got, want in zip(fused_grads, loop_grads):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_gradients_across_token_blocks(self):
        rng = np.random.default_rng(67)
        store = ParameterStore()
        # 128-token blocks (128, 128, 128, 128, 9) in two lanes: [0, 1] and [2, 3, 4]
        block = _BLOCK_BYTES // (8 * 3 * 512)
        tokens = 4 * block + 9
        assert [len(lane) for lane in _lanes(tokens, block)] == [2, 3]
        experts = [make_expert(rng, 3, 512, store, f"e{i}") for i in range(3)]
        router = make_router(rng, 3, 3, store)
        x = store.add("x", rng.normal(size=(tokens, 3)))
        target = rng.normal(size=(tokens, 3))

        def fwd():
            out, weights = moe_forward(x, experts, router)
            diff = sub(out, Tensor(target))
            return add(mean(mul(diff, diff)), balance(weights))

        # a step of 1e-5 moves a coordinate of x across a relu kink (5e-3, the
        # same in a one-lane run); at 1e-6 round-off on the smallest gradients
        # reaches 8e-5; 3e-6 gives 9e-6
        assert finite_difference_check(fwd, store, step=3e-6, max_coords=300) < 1e-4

    def test_forward_keeps_no_hidden_layer(self):
        rng = np.random.default_rng(68)
        tokens, count, width, hidden = 4608, 6, 64, 256
        experts = [make_expert(rng, width, hidden) for _ in range(count)]
        for e in experts:
            for t in (e.w1, e.b1, e.w2, e.b2):
                t.requires_grad = True
        x = Tensor(rng.normal(size=(tokens, width)), requires_grad=True)
        weights = Tensor(rng.dirichlet(np.ones(count), size=tokens), requires_grad=True)
        out, kept = kept_bytes(lambda: dense_mixture(x, weights, experts))
        assert out.requires_grad
        assert kept < tokens * count * hidden * 8 / 4

    def test_gradients_sum_over_clone_experts(self):
        rng = np.random.default_rng(63)
        store = ParameterStore()
        shared = make_expert(rng, 3, 5, store, "shared")
        other = make_expert(rng, 3, 5, store, "other")
        experts = [shared, other, shared, ExpertParams(shared.w1, other.b1, shared.w2, other.b2)]
        router = make_router(rng, 3, 4, store)
        x = rng.normal(size=(2, 4, 3))
        target = rng.normal(size=(2, 4, 3))

        def fwd():
            out, weights = moe_forward(Tensor(x), experts, router)
            diff = sub(out, Tensor(target))
            return add(mean(mul(diff, diff)), balance(weights))

        assert finite_difference_check(fwd, store) < 1e-4

    def test_gradients_with_frozen_expert_parameters(self):
        rng = np.random.default_rng(64)
        store = ParameterStore()
        experts = [make_expert(rng, 3, 5, store, f"e{i}") for i in range(2)]
        frozen = [make_expert(rng, 3, 5) for _ in range(2)]
        experts.append(ExpertParams(frozen[0].w1, experts[0].b1, frozen[0].w2, experts[1].b2))
        experts.append(ExpertParams(experts[1].w1, frozen[1].b1, experts[0].w2, frozen[1].b2))
        router = make_router(rng, 3, 4, store)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 3))

        def fwd():
            out, _ = moe_forward(Tensor(x), experts, router)
            diff = sub(out, Tensor(target))
            return mean(mul(diff, diff))

        assert finite_difference_check(fwd, store) < 1e-4
        for e in frozen:
            assert all(t.grad is None for t in (e.w1, e.b1, e.w2, e.b2))

    def test_expert_count_must_match_gate(self):
        rng = np.random.default_rng(65)
        experts = [make_expert(rng, 4, 6) for _ in range(2)]
        router = make_router(rng, 4, 3)
        with pytest.raises(ValueError, match="2 experts"):
            moe_forward(Tensor(rng.normal(size=(3, 4))), experts, router)


class _LatePool:
    """A real one-thread pool whose lanes start 0.2 s late; keeps each future."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.futures = []

    def submit(self, fn, *args):
        def late():
            time.sleep(0.2)
            return fn(*args)

        future = self.pool.submit(late)
        self.futures.append(future)
        return future


class _FailingNumpy:
    """numpy, except that ``matmul`` raises in the lane that runs on the
    main thread (``caller``) or on any other (``worker``)."""

    def __init__(self, failing_lane):
        self.failing_lane = failing_lane

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (self.failing_lane == "caller"):
            raise FloatingPointError(f"{self.failing_lane} lane failed")
        return np.matmul(*args, **kwargs)


class TestLanes:
    """dense_mixture's token blocks run in two lanes on two threads."""

    # 3 experts of 512: 128-token blocks; 600 tokens are 5 blocks, lanes [0, 1], [2, 3, 4]
    LEAD, WIDTH, HIDDEN, COUNT = (2, 300), 4, 512, 3

    def run(self, lead=LEAD):
        """Forward output, then the gradients of x, the gate weights and
        each expert parameter, of one mixture."""
        rng = np.random.default_rng(69)
        experts = [make_expert(rng, self.WIDTH, self.HIDDEN) for _ in range(self.COUNT)]
        params = [t for e in experts for t in (e.w1, e.b1, e.w2, e.b2)]
        for t in params:
            t.requires_grad = True
        x = Tensor(rng.normal(size=lead + (self.WIDTH,)), requires_grad=True)
        weights = Tensor(rng.dirichlet(np.ones(self.COUNT), size=lead), requires_grad=True)
        target = Tensor(rng.normal(size=x.shape))
        out = dense_mixture(x, weights, experts)
        diff = sub(out, target)
        total(mul(diff, diff)).backward()
        return [out.data] + [t.grad for t in [x, weights] + params]

    def test_split_into_contiguous_lanes_of_whole_blocks(self):
        blocks = [slice(start, start + 128) for start in range(0, 640, 128)]
        assert _lanes(600, 128) == [blocks[:2], blocks[2:4] + [slice(512, 600)]]
        assert _lanes(512, 128) == [blocks[:2], blocks[2:4]]
        assert _lanes(384, 128) == [blocks[:3]]  # too few blocks for two lanes
        assert _lanes(100, 128) == [[slice(0, 100)]]
        assert _lanes(0, 1) == [[]]

    def test_bits_do_not_depend_on_lane_order(self, monkeypatch):
        threaded = self.run()
        for pool in (InlinePool(), DeferredPool()):
            monkeypatch.setattr(numerics, "_POOL", pool)
            ordered = self.run()
            for got, want in zip(ordered, threaded):
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def assert_matches_one_lane(got, one):
        for i in (0, 1, 2):  # out, dx, d_gw: each lane writes its own rows
            assert got[i].tobytes() == one[i].tobytes()
        for g, want in zip(got[3:], one[3:]):  # sums over the blocks
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    def test_forward_is_bitwise_the_one_lane_run(self, monkeypatch):
        two = self.run()
        monkeypatch.setattr(numerics, "_LANES", 1)
        self.assert_matches_one_lane(two, self.run())

    def test_many_lanes_under_fast_thread_switching(self, monkeypatch):
        # 19 blocks in 8 lanes on 7 workers, more threads than cores, with the
        # interpreter switching threads as often as it can: a row lost or
        # written by the wrong lane would break the bitwise match
        lead = (8, 300)
        monkeypatch.setattr(numerics, "_LANES", 1)
        one = self.run(lead)
        pool = ThreadPoolExecutor(max_workers=7)
        monkeypatch.setattr(numerics, "_LANES", 8)
        monkeypatch.setattr(numerics, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = self.run(lead)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)
        self.assert_matches_one_lane(many, one)

    @pytest.mark.parametrize("failing_lane", ["caller", "worker"])
    def test_failure_propagates_after_every_lane_finished(self, monkeypatch, failing_lane):
        rng = np.random.default_rng(70)
        experts = [make_expert(rng, self.WIDTH, self.HIDDEN) for _ in range(self.COUNT)]
        x = Tensor(rng.normal(size=self.LEAD + (self.WIDTH,)))
        weights = Tensor(rng.dirichlet(np.ones(self.COUNT), size=self.LEAD))
        pool = _LatePool()
        monkeypatch.setattr(numerics, "_POOL", pool)
        monkeypatch.setattr(moe, "np", _FailingNumpy(failing_lane))
        try:
            with pytest.raises(FloatingPointError, match=f"{failing_lane} lane failed"):
                dense_mixture(x, weights, experts)
            assert len(pool.futures) == 1
            assert all(f.done() for f in pool.futures)
        finally:
            pool.pool.shutdown(wait=True)


class TestLoadBalanceLoss:
    def test_uniform_four_experts(self):
        assert load_balance_loss(np.array([0.25, 0.25, 0.25, 0.25])) == 0.0625

    def test_fully_collapsed(self):
        assert load_balance_loss(np.array([1.0, 0.0, 0.0, 0.0])) == 0.25

    def test_hand_evaluated_two_experts(self):
        assert abs(load_balance_loss(np.array([0.9, 0.1])) - 0.41) < 1e-15

    @given(st.integers(2, 6), st.lists(st.floats(0.01, 10.0), min_size=2,
                                       max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bounds_on_simplex(self, experts, raw):
        raw = (raw * experts)[:experts]
        point = np.array(raw) / np.sum(raw)
        value = load_balance_loss(point)
        lower, upper = 1.0 / experts ** 2, 1.0 / experts
        assert lower - 1e-12 <= value <= upper + 1e-12
        if np.max(np.abs(point - 1.0 / experts)) > 1e-6:
            assert value > lower

    def test_minimum_exactly_at_uniform(self):
        for experts in (2, 4, 6):
            usage = np.array([1.0 / experts] * experts)
            assert abs(load_balance_loss(usage) - 1.0 / experts ** 2) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(58)
        point = rng.dirichlet(np.ones(5))
        base = load_balance_loss(point)
        for _ in range(5):
            perm = rng.permutation(5)
            shuffled = load_balance_loss(point[perm])
            assert abs(base - shuffled) < 1e-15


class TestGateUsage:
    def usage_of(self, x, router):
        rng = np.random.default_rng(60)
        experts = [make_expert(rng, x.shape[-1], 3) for _ in range(router.b.shape[0])]
        out, weights = moe_forward(Tensor(x), experts, router)
        return model.loss(out, out.data, [weights], 0.0)[1]["usage"][0]

    def test_single_token_average(self):
        router = RouterParams(w=Tensor(np.zeros((2, 2))), b=Tensor(np.log([0.3, 0.7])))
        usage = self.usage_of(np.ones((1, 2)), router)
        assert np.allclose(usage, [0.3, 0.7], atol=1e-15)

    def test_per_token_average(self):
        rng = np.random.default_rng(61)
        router = make_router(rng, 4, 3)
        x = rng.normal(size=(2, 5, 4))
        usage = self.usage_of(x, router)
        weights = gate(Tensor(x), router).data.reshape(10, 3)
        assert np.max(np.abs(usage - weights.mean(axis=0))) < 1e-15

    def test_usage_is_the_gate_mean(self):
        rng = np.random.default_rng(66)
        router = make_router(rng, 4, 3)
        x = rng.normal(size=(2, 5, 4))
        expected = mean(gate(Tensor(x), router).reshape(-1, 3), axis=0).data
        assert self.usage_of(x, router).tobytes() == expected.tobytes()

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(59)
        router = make_router(rng, 4, 5)
        usage = self.usage_of(rng.normal(size=(3, 2, 6, 4)), router)
        assert abs(usage.sum() - 1.0) < 1e-12
