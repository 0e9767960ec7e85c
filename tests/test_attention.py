import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lane_pools import DeferredPool, InlinePool
from permutation import relabel
from tensor_ops import mean, mul, sub, total
from stgormer import numerics
from stgormer.attention import (AttentionParams, scaled_dot_attention,
                                spatial_attention, spd_bias,
                                spd_bucket_indices, temporal_attention)
from stgormer.graph import SpatioTemporalGraph, shortest_path_matrix
from stgormer.numerics import ParameterStore, Tensor, _lanes, finite_difference_check


def make_params(rng, width, heads, store=None, prefix="attn"):
    def reg(name, arr):
        if store is None:
            return Tensor(arr)
        return store.add(f"{prefix}.{name}", arr)

    scale = 1.0 / np.sqrt(width)
    return AttentionParams(
        w_q=reg("w_q", rng.uniform(-scale, scale, (width, width))),
        b_q=reg("b_q", rng.uniform(-scale, scale, width)),
        w_k=reg("w_k", rng.uniform(-scale, scale, (width, width))),
        w_v=reg("w_v", rng.uniform(-scale, scale, (width, width))),
        b_v=reg("b_v", rng.uniform(-scale, scale, width)),
        w_o=reg("w_o", rng.uniform(-scale, scale, (width, width))),
        b_o=reg("b_o", rng.uniform(-scale, scale, width)),
        heads=heads)


def attention_oracle(x, p, bias=None):
    """Per-pair loop reference for multi-head attention."""
    m, length, width = x.shape
    h, dh = p.heads, x.shape[-1] // p.heads
    q = x @ p.w_q.data + p.b_q.data
    k = x @ p.w_k.data
    v = x @ p.w_v.data + p.b_v.data
    out = np.zeros_like(x)
    for bi in range(m):
        merged = []
        for head in range(h):
            cols = slice(head * dh, (head + 1) * dh)
            qh, kh, vh = q[bi][:, cols], k[bi][:, cols], v[bi][:, cols]
            scores = np.zeros((length, length))
            for i in range(length):
                for j in range(length):
                    scores[i, j] = qh[i] @ kh[j] / np.sqrt(dh)
                    if bias is not None:
                        scores[i, j] += bias[i, j]
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            merged.append(weights @ vh)
        out[bi] = np.concatenate(merged, axis=-1) @ p.w_o.data + p.b_o.data
    return out


def unfused_attention(x, p, bias=None):
    """Attention as the graph of small ops that scaled_dot_attention fuses,
    on plain arrays: three projections, batched matmuls, softmax, merge.
    The reference for the fused node's bits. (m, L, D) input, or
    (P, L, Q, D) attended along axis 1 for each of the Q nodes."""
    if x.ndim == 4:
        per_node = x.transpose(0, 2, 1, 3).reshape(-1, x.shape[1], x.shape[3])
        out = unfused_attention(per_node, p, bias)
        return out.reshape(x.shape[0], x.shape[2], x.shape[1], x.shape[3]).transpose(0, 2, 1, 3)
    m, length, width = x.shape
    h, dh = p.heads, width // p.heads

    def project(w, b):
        out = x.reshape(-1, width) @ w.data
        if b is not None:
            out += b.data
        return out.reshape(m, length, h, dh).transpose(0, 2, 1, 3)

    q, k, v = project(p.w_q, p.b_q), project(p.w_k, None), project(p.w_v, p.b_v)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = np.matmul(attn, v).transpose(0, 2, 1, 3).reshape(-1, width)
    out = merged @ p.w_o.data
    out += p.b_o.data
    return out.reshape(x.shape)


class TestScaledDotAttention:
    def test_single_token(self):
        rng = np.random.default_rng(30)
        p = make_params(rng, 6, 2)
        x = rng.normal(size=(2, 1, 6))
        out = scaled_dot_attention(Tensor(x), p, -2).data
        # one score => softmax weight 1 => output projection of value projection
        expected = (x @ p.w_v.data + p.b_v.data) @ p.w_o.data + p.b_o.data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_zero_keys_give_uniform_weights(self):
        rng = np.random.default_rng(31)
        p = make_params(rng, 4, 2)
        p.w_k.data[:] = 0.0
        x = rng.normal(size=(1, 5, 4))
        out = scaled_dot_attention(Tensor(x), p, -2).data
        v = x @ p.w_v.data + p.b_v.data
        expected = np.broadcast_to(v.mean(axis=1, keepdims=True),
                                   x.shape) @ p.w_o.data + p.b_o.data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_matches_per_pair_loop_oracle(self):
        rng = np.random.default_rng(32)
        p = make_params(rng, 8, 2)
        x = rng.normal(size=(2, 5, 8))
        got = scaled_dot_attention(Tensor(x), p, -2).data
        assert np.max(np.abs(got - attention_oracle(x, p))) < 1e-10

    def test_oracle_with_bias(self):
        rng = np.random.default_rng(33)
        p = make_params(rng, 8, 4)
        x = rng.normal(size=(3, 4, 8))
        bias = rng.normal(size=(4, 4))
        got = scaled_dot_attention(Tensor(x), p, -2, Tensor(bias)).data
        assert np.max(np.abs(got - attention_oracle(x, p, bias))) < 1e-10

    def test_bias_shape_checked(self):
        rng = np.random.default_rng(34)
        p = make_params(rng, 4, 1)
        with pytest.raises(ValueError, match="bias"):
            scaled_dot_attention(Tensor(rng.normal(size=(1, 3, 4))), p, -2,
                                 bias=Tensor(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="axis -3"):
            scaled_dot_attention(Tensor(rng.normal(size=(3, 4))), p, -3)

    def test_gradients(self):
        rng = np.random.default_rng(35)
        store = ParameterStore()
        p = make_params(rng, 6, 3, store=store)
        x = rng.normal(size=(2, 4, 6))
        bias = store.add("bias", rng.normal(size=(4, 4)))
        target = rng.normal(size=(2, 4, 6))

        def fwd():
            out = scaled_dot_attention(Tensor(x), p, -2, bias)
            diff = sub(out, Tensor(target))
            return mean(mul(diff, diff))

        assert finite_difference_check(fwd, store) < 1e-4


class TestAttentionLanes:
    """scaled_dot_attention's sequence blocks run in two lanes on two threads."""

    # 384-row blocks: 96 sequences of 4, or 9 groups of 10 sequences of 4,
    # so each shape is 5 blocks in lanes [0, 1] and [2, 3, 4]
    SHAPES = {"spatial": (400, 4, 4), "temporal": (40, 4, 10, 4)}
    AXES = {"spatial": -2, "temporal": -3}

    def inputs(self, layout, store=None, probed=("params", "bias")):
        """x, the parameters and the bias. With a store, the ``probed`` groups
        are registered there and the rest are constants."""
        rng = np.random.default_rng(95)
        shape = self.SHAPES[layout]
        length = shape[1]
        x = rng.normal(size=shape)
        p = make_params(rng, shape[-1], 2, store if "params" in probed else None)
        bias = rng.normal(size=(length, length))
        if store is None:
            for t in (p.w_q, p.b_q, p.w_k, p.w_v, p.b_v, p.w_o, p.b_o):
                t.requires_grad = True
            return Tensor(x, requires_grad=True), p, Tensor(bias, requires_grad=True)
        x = store.add("x", x) if "x" in probed else Tensor(x)
        bias = store.add("bias", bias) if "bias" in probed else Tensor(bias)
        return x, p, bias

    def run(self, layout):
        """Forward output, then the gradients of x, each parameter and the bias."""
        x, p, bias = self.inputs(layout)
        out = scaled_dot_attention(x, p, self.AXES[layout], bias)
        target = np.random.default_rng(96).normal(size=x.shape)
        diff = sub(out, Tensor(target))
        total(mul(diff, diff)).backward()
        tensors = [x, p.w_q, p.b_q, p.w_k, p.w_v, p.b_v, p.w_o, p.b_o, bias]
        return [out.data] + [t.grad for t in tensors]

    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_spans_two_lanes(self, layout):
        count, length, *nodes, _ = self.SHAPES[layout]
        per_block = numerics._BLOCK_ROWS // (length * int(np.prod(nodes)))
        assert [len(lane) for lane in _lanes(count, per_block)] == [2, 3]

    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_forward_is_bitwise_the_unfused_composition(self, layout):
        x, p, bias = self.inputs(layout)
        for b in (None, bias):
            got = scaled_dot_attention(x, p, self.AXES[layout], b).data
            want = unfused_attention(x.data, p, None if b is None else b.data)
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def assert_matches_one_lane(got, one):
        for i in (0, 1):  # out and dx: each lane writes its own sequences
            assert got[i].tobytes() == one[i].tobytes()
        for g, want in zip(got[2:], one[2:]):  # sums over the blocks
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_forward_is_bitwise_the_one_lane_run(self, monkeypatch, layout):
        two = self.run(layout)
        monkeypatch.setattr(numerics, "_LANES", 1)
        self.assert_matches_one_lane(two, self.run(layout))

    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_many_lanes_under_fast_thread_switching(self, monkeypatch, layout):
        # 17 or 18 blocks in 8 lanes on 7 workers, more threads than cores,
        # with the interpreter switching threads as often as it can: a
        # sequence lost or written by the wrong lane would break the match
        monkeypatch.setattr(self, "SHAPES", {"spatial": (1600, 4, 4),
                                             "temporal": (160, 4, 10, 4)})
        monkeypatch.setattr(numerics, "_LANES", 1)
        one = self.run(layout)
        pool = ThreadPoolExecutor(max_workers=7)
        monkeypatch.setattr(numerics, "_LANES", 8)
        monkeypatch.setattr(numerics, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = self.run(layout)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)
        self.assert_matches_one_lane(many, one)

    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_bits_do_not_depend_on_lane_order(self, monkeypatch, layout):
        threaded = self.run(layout)
        for pool in (InlinePool(), DeferredPool()):
            monkeypatch.setattr(numerics, "_POOL", pool)
            for got, want in zip(self.run(layout), threaded):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout,with_bias", [
        ("spatial", True), ("spatial", False), ("temporal", False)])
    def test_gradients_across_lanes(self, layout, with_bias):
        # the batched q k^T and attn v products, the softmax Jacobian and the
        # bias sum, probed at the default step; the parameters and the bias
        # are few enough to probe every coordinate, x is subsampled. The loss
        # is a weighted sum of the outputs: the mean squared error of the
        # 6,400 spatial outputs reads 3e-4 of round-off on the smallest input
        # gradients
        weights = Tensor(np.random.default_rng(97).normal(size=self.SHAPES[layout]))
        for probed in (("params", "bias") if with_bias else ("params",), ("x",)):
            store = ParameterStore()
            x, p, bias = self.inputs(layout, store, probed)

            def fwd():
                out = scaled_dot_attention(x, p, self.AXES[layout],
                                           bias if with_bias else None)
                return total(mul(out, weights))

            assert finite_difference_check(fwd, store) < 1e-6, probed


class TestTemporalAttention:
    def test_single_node_matches_plain_attention(self):
        rng = np.random.default_rng(36)
        p = make_params(rng, 6, 2)
        h = rng.normal(size=(5, 1, 6))
        got = temporal_attention(Tensor(h), p).data
        plain = scaled_dot_attention(Tensor(h[:, 0, :][None]), p, -2).data
        assert np.max(np.abs(got[:, 0, :] - plain[0])) < 1e-12

    def test_node_locality(self):
        rng = np.random.default_rng(37)
        p = make_params(rng, 4, 2)
        h = rng.normal(size=(6, 5, 4))
        base = temporal_attention(Tensor(h), p).data
        perturbed = h.copy()
        perturbed[:, 2, :] += rng.normal(size=(6, 4))
        out = temporal_attention(Tensor(perturbed), p).data
        others = [n for n in range(5) if n != 2]
        assert np.array_equal(out[:, others, :], base[:, others, :])
        assert not np.array_equal(out[:, 2, :], base[:, 2, :])

    def test_matches_per_node_loop_oracle(self):
        rng = np.random.default_rng(38)
        p = make_params(rng, 8, 2)
        h = rng.normal(size=(7, 3, 8))
        got = temporal_attention(Tensor(h), p).data
        for n in range(3):
            seq = h[:, n, :][None]
            expected = scaled_dot_attention(Tensor(seq), p, -2).data[0]
            assert np.max(np.abs(got[:, n, :] - expected)) < 1e-12

    def test_batched_input(self):
        rng = np.random.default_rng(39)
        p = make_params(rng, 4, 1)
        h = rng.normal(size=(2, 5, 3, 4))
        got = temporal_attention(Tensor(h), p).data
        for b in range(2):
            single = temporal_attention(Tensor(h[b]), p).data
            assert np.max(np.abs(got[b] - single)) < 1e-14


class TestSpdBias:
    def graph_with_gap(self):
        # two components: 0-1-2 chain and isolated 3
        return SpatioTemporalGraph.from_edge_list(
            4, [(0, 1), (1, 2)], directed=False)

    def test_bucket_mapping(self):
        spd = shortest_path_matrix(self.graph_with_gap())
        idx = spd_bucket_indices(spd, max_spd=1)
        # distance 2 overflows into bucket 2; unreachable uses bucket 3
        assert idx[0, 2] == 2
        assert idx[0, 3] == 3
        assert idx[0, 1] == 1
        assert idx[0, 0] == 0

    def test_zero_table_gives_zero_bias(self):
        spd = shortest_path_matrix(self.graph_with_gap())
        bias = spd_bias(spd, Tensor(np.zeros(13)), max_spd=10).data
        assert np.array_equal(bias, np.zeros((4, 4)))

    def test_unreachable_uses_sentinel_bucket(self):
        spd = shortest_path_matrix(self.graph_with_gap())
        table = np.arange(13.0)
        bias = spd_bias(spd, Tensor(table), max_spd=10).data
        assert bias[0, 3] == table[12]
        assert bias[3, 0] == table[12]

    def test_matches_elementwise_lookup_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.3]
            spd = shortest_path_matrix(
                SpatioTemporalGraph.from_edge_list(n, pairs))
            max_spd = 3
            table = rng.normal(size=max_spd + 3)
            bias = spd_bias(spd, Tensor(table), max_spd).data
            for i in range(n):
                for j in range(n):
                    d = spd[i, j]
                    if d == -1:
                        expected = table[max_spd + 2]
                    elif d > max_spd:
                        expected = table[max_spd + 1]
                    else:
                        expected = table[d]
                    assert bias[i, j] == expected


class TestSpatialAttention:
    def test_no_bias_equals_zero_bias_bitwise(self):
        rng = np.random.default_rng(41)
        p = make_params(rng, 6, 2)
        h = rng.normal(size=(3, 4, 6))
        plain = spatial_attention(Tensor(h), p, bias=None).data
        zeroed = spatial_attention(Tensor(h), p,
                                   bias=Tensor(np.zeros((4, 4)))).data
        assert np.array_equal(plain, zeroed)

    def test_unreachable_soft_masking(self):
        # large negative sentinel bucket drives attention weight below 1e-12;
        # value pathway reveals the weights: only node 2 carries value mass
        g = SpatioTemporalGraph.from_edge_list(
            4, [(0, 1), (2, 3)], directed=False)
        spd = shortest_path_matrix(g)
        table = np.zeros(6)
        table[5] = -1e9  # unreachable bucket for max_spd=3
        width = 4
        p = AttentionParams(
            w_q=Tensor(np.zeros((width, width))), b_q=Tensor(np.zeros(width)),
            w_k=Tensor(np.zeros((width, width))),
            w_v=Tensor(np.eye(width)), b_v=Tensor(np.zeros(width)),
            w_o=Tensor(np.eye(width)), b_o=Tensor(np.zeros(width)),
            heads=1)
        h = np.zeros((1, 4, width))
        h[0, 2, :] = 1.0
        bias = spd_bias(spd, Tensor(table), max_spd=3)
        out = spatial_attention(Tensor(h), p, bias=bias).data
        # nodes 0 and 1 cannot reach node 2: its value must not leak in
        assert np.max(np.abs(out[0, 0, :])) < 1e-12
        assert np.max(np.abs(out[0, 1, :])) < 1e-12
        # node 3 shares a component with node 2 and splits weight evenly
        assert abs(out[0, 3, 0] - 0.5) < 1e-12

    def test_bias_constant_shift_invariance(self):
        rng = np.random.default_rng(43)
        p = make_params(rng, 6, 3)
        h = rng.normal(size=(2, 5, 6))
        bias = rng.normal(size=(5, 5))
        base = spatial_attention(Tensor(h), p, bias=Tensor(bias)).data
        shifted = spatial_attention(Tensor(h), p, bias=Tensor(bias + 7.25)).data
        assert np.max(np.abs(base - shifted)) < 1e-10

    def test_time_locality(self):
        rng = np.random.default_rng(44)
        p = make_params(rng, 4, 2)
        h = rng.normal(size=(4, 3, 4))
        base = spatial_attention(Tensor(h), p).data
        perturbed = h.copy()
        perturbed[1] += rng.normal(size=(3, 4))
        out = spatial_attention(Tensor(perturbed), p).data
        others = [t for t in range(4) if t != 1]
        assert np.array_equal(out[others], base[others])

    def test_permutation_equivariance_with_conjugated_bias(self):
        rng = np.random.default_rng(45)
        n = 6
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.35]
        g = SpatioTemporalGraph.from_edge_list(n, pairs)
        perm = rng.permutation(n).tolist()
        table = rng.normal(size=8)
        p = make_params(rng, 4, 2)
        h = rng.normal(size=(3, n, 4))
        bias = spd_bias(shortest_path_matrix(g), Tensor(table), max_spd=5)
        base = spatial_attention(Tensor(h), p, bias=bias).data

        h_perm = np.empty_like(h)
        for v in range(n):
            h_perm[:, perm[v], :] = h[:, v, :]
        bias_perm = spd_bias(shortest_path_matrix(relabel(g, perm)),
                             Tensor(table), max_spd=5)
        out = spatial_attention(Tensor(h_perm), p, bias=bias_perm).data
        for v in range(n):
            assert np.max(np.abs(out[:, perm[v], :] - base[:, v, :])) < 1e-10

    def test_shared_table_gradient_sums_layer_contributions(self):
        rng = np.random.default_rng(46)
        g = SpatioTemporalGraph.from_edge_list(
            4, [(0, 1), (1, 2), (2, 3)], directed=False)
        spd = shortest_path_matrix(g)
        table_values = rng.normal(size=7)
        h = rng.normal(size=(2, 4, 4))
        p1 = make_params(rng, 4, 2)
        p2 = make_params(rng, 4, 2)

        def run(tables):
            x = Tensor(h)
            out = spatial_attention(
                x, p1, bias=spd_bias(spd, tables[0], max_spd=4))
            out = spatial_attention(
                out, p2, bias=spd_bias(spd, tables[1], max_spd=4))
            return total(mul(out, out))

        shared_store = ParameterStore()
        shared = shared_store.add("table", table_values)
        loss = run([shared, shared])
        loss.backward()
        shared_grad = shared.grad.copy()

        split_store = ParameterStore()
        t1 = split_store.add("t1", table_values)
        t2 = split_store.add("t2", table_values)
        run([t1, t2]).backward()
        assert np.max(np.abs(shared_grad - (t1.grad + t2.grad))) < 1e-12

    def test_gradients_with_spd_bias(self):
        rng = np.random.default_rng(47)
        g = SpatioTemporalGraph.from_edge_list(4, [(0, 1), (1, 2), (0, 3)],
                                               directed=False)
        spd = shortest_path_matrix(g)
        store = ParameterStore()
        p = make_params(rng, 4, 2, store=store)
        table = store.add("spd.table", rng.normal(size=7))
        h = rng.normal(size=(2, 4, 4))
        target = rng.normal(size=(2, 4, 4))

        def fwd():
            bias = spd_bias(spd, table, max_spd=4)
            out = spatial_attention(Tensor(h), p, bias=bias)
            diff = sub(out, Tensor(target))
            return mean(mul(diff, diff))

        assert finite_difference_check(fwd, store) < 1e-4
