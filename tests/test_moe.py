import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgormer.moe import (ExpertParams, MoEState, RouterParams, expert_forward,
                          gate, load_balance_loss, moe_forward)
from stgormer.numerics import ParameterStore, Tensor, finite_difference_check


def make_expert(rng, width, hidden, store=None, prefix="expert"):
    def reg(name, arr):
        return Tensor(arr) if store is None else store.add(f"{prefix}.{name}", arr)

    s1, s2 = 1.0 / np.sqrt(width), 1.0 / np.sqrt(hidden)
    return ExpertParams(
        w1=reg("w1", rng.uniform(-s1, s1, (width, hidden))),
        b1=reg("b1", rng.uniform(-s1, s1, hidden)),
        w2=reg("w2", rng.uniform(-s2, s2, (hidden, width))),
        b2=reg("b2", rng.uniform(-s2, s2, width)))


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
        mixed = moe_forward(x, [expert], router).data
        plain = expert_forward(x, expert).data
        assert np.max(np.abs(mixed - plain)) < 1e-12

    def test_identical_experts_ignore_gate(self):
        rng = np.random.default_rng(55)
        expert = make_expert(rng, 4, 8)
        clones = [ExpertParams(expert.w1, expert.b1, expert.w2, expert.b2)
                  for _ in range(3)]
        router = make_router(rng, 4, 3)
        x = Tensor(rng.normal(size=(5, 4)))
        mixed = moe_forward(x, clones, router).data
        single = expert_forward(x, expert).data
        assert np.max(np.abs(mixed - single)) < 1e-12

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(56)
        experts = [make_expert(rng, 4, 6) for _ in range(3)]
        router = make_router(rng, 4, 3)
        x = rng.normal(size=(2, 3, 4))
        got = moe_forward(Tensor(x), experts, router).data
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
            state = MoEState(3)
            out = moe_forward(Tensor(x), experts, router, state)
            err = ((out - Tensor(target)) ** 2).mean()
            return err + 0.1 * load_balance_loss(state)

        assert finite_difference_check(fwd, store) < 1e-4


class TestLoadBalanceLoss:
    def state_with(self, weight_rows):
        state = MoEState(len(weight_rows[0]))
        state.accumulate(Tensor(np.asarray(weight_rows, dtype=float)))
        return state

    def test_uniform_four_experts(self):
        state = self.state_with([[0.25, 0.25, 0.25, 0.25]])
        assert load_balance_loss(state).item() == 0.0625

    def test_fully_collapsed(self):
        state = self.state_with([[1.0, 0.0, 0.0, 0.0]])
        assert load_balance_loss(state).item() == 0.25

    def test_hand_evaluated_two_experts(self):
        state = self.state_with([[0.9, 0.1]])
        assert abs(load_balance_loss(state).item() - 0.41) < 1e-15

    @given(st.integers(2, 6), st.lists(st.floats(0.01, 10.0), min_size=2,
                                       max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bounds_on_simplex(self, experts, raw):
        raw = (raw * experts)[:experts]
        point = np.array(raw) / np.sum(raw)
        state = self.state_with([point.tolist()])
        value = load_balance_loss(state).item()
        lower, upper = 1.0 / experts ** 2, 1.0 / experts
        assert lower - 1e-12 <= value <= upper + 1e-12
        if np.max(np.abs(point - 1.0 / experts)) > 1e-6:
            assert value > lower

    def test_minimum_exactly_at_uniform(self):
        for experts in (2, 4, 6):
            state = self.state_with([[1.0 / experts] * experts])
            assert abs(load_balance_loss(state).item() - 1.0 / experts ** 2) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(58)
        point = rng.dirichlet(np.ones(5))
        base = load_balance_loss(self.state_with([point.tolist()])).item()
        for _ in range(5):
            perm = rng.permutation(5)
            shuffled = load_balance_loss(
                self.state_with([point[perm].tolist()])).item()
            assert abs(base - shuffled) < 1e-15


class TestMoEState:
    def test_empty_state_rejected(self):
        state = MoEState(3)
        with pytest.raises(ValueError, match="empty state"):
            state.fractions()

    def test_reset_then_query_rejected(self):
        state = MoEState(2)
        state.accumulate(Tensor([[0.5, 0.5]]))
        state.reset()
        with pytest.raises(ValueError, match="empty state"):
            load_balance_loss(state)

    def test_single_token_average(self):
        state = MoEState(2)
        state.accumulate(Tensor([[0.3, 0.7]]))
        assert np.allclose(state.fractions().data, [0.3, 0.7], atol=1e-15)

    def test_two_token_average(self):
        state = MoEState(2)
        state.accumulate(Tensor([[1.0, 0.0]]))
        state.accumulate(Tensor([[0.0, 1.0]]))
        assert np.array_equal(state.fractions().data, [0.5, 0.5])
        assert state.token_count == 2

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(59)
        router = make_router(rng, 4, 5)
        state = MoEState(5)
        for _ in range(3):
            state.accumulate(gate(Tensor(rng.normal(size=(2, 6, 4))), router))
        assert abs(state.fractions().data.sum() - 1.0) < 1e-12
