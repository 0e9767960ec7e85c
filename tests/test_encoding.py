import numpy as np
import pytest

from permutation import relabel
from tensor_ops import mean, mul, sub
from stgormer.encoding import (DegreeEmbeddingTables, Time2VecParams,
                               fuse_inputs, spatial_input_encoding,
                               temporal_input_encoding)
from stgormer.graph import SpatioTemporalGraph
from stgormer.numerics import ParameterStore, Tensor, finite_difference_check


def t2v_params(w, b):
    return Time2VecParams(w=Tensor(np.asarray(w, dtype=float)),
                          b=Tensor(np.asarray(b, dtype=float)))


def encode_feature(t, params):
    """One feature's Time2Vec: ``t`` of any shape gains an axis of length dim."""
    return temporal_input_encoding(np.asarray(t)[..., None], [params])


class TestTime2Vec:
    def test_linear_dimension_is_affine(self):
        out = encode_feature(3.0, t2v_params([2.0], [1.0]))
        assert out.data.tolist() == [7.0]

    def test_sinusoidal_dimensions(self):
        params = t2v_params([0.5, 2.0, -1.0], [0.1, 0.2, 0.3])
        t = 0.7
        out = encode_feature(t, params).data
        assert out[0] == 0.5 * t + 0.1
        assert abs(out[1] - np.sin(2.0 * t + 0.2)) < 1e-15
        assert abs(out[2] - np.sin(-1.0 * t + 0.3)) < 1e-15

    def test_periodicity(self):
        params = t2v_params([1.0, 3.0, 0.25], [0.0, 1.0, -0.5])
        t = 0.37
        base = encode_feature(t, params).data
        for i in (1, 2):
            w = params.w.data[i]
            shifted = encode_feature(t + 2.0 * np.pi / w, params).data
            assert abs(shifted[i] - base[i]) < 1e-9

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            w = rng.normal(size=d)
            b = rng.normal(size=d)
            t = float(rng.uniform(0, 1))
            out = encode_feature(t, t2v_params(w, b)).data
            expected = np.array(
                [w[i] * t + b[i] if i == 0 else np.sin(w[i] * t + b[i])
                 for i in range(d)])
            assert np.array_equal(out, expected)

    def test_periodic_dims_bounded(self):
        rng = np.random.default_rng(18)
        params = t2v_params(rng.normal(scale=10, size=5), rng.normal(size=5))
        ts = rng.uniform(-100, 100, size=200)
        out = encode_feature(ts, params).data
        assert np.all(np.abs(out[:, 1:]) <= 1.0)


class TestTemporalInputEncoding:
    def test_degenerate_single_linear_term(self):
        params = [t2v_params([2.0], [0.5])]
        ts = np.array([[0.1], [0.4]])
        out = temporal_input_encoding(ts, params).data
        assert out.shape == (2, 1)
        assert np.array_equal(out[:, 0], 2.0 * ts[:, 0] + 0.5)

    def test_identical_timestamps_identical_rows(self):
        rng = np.random.default_rng(19)
        params = [t2v_params(rng.normal(size=3), rng.normal(size=3))
                  for _ in range(2)]
        ts = np.array([[0.25, 0.5], [0.25, 0.5]])
        out = temporal_input_encoding(ts, params).data
        assert np.array_equal(out[0], out[1])

    def test_composition_of_per_feature_calls(self):
        rng = np.random.default_rng(20)
        params = [t2v_params(rng.normal(size=4), rng.normal(size=4))
                  for _ in range(2)]
        ts = rng.uniform(0, 1, size=(8, 2))
        out = temporal_input_encoding(ts, params).data
        assert out.shape == (8, 8)
        for step in range(8):
            left = encode_feature(ts[step, 0], params[0]).data
            right = encode_feature(ts[step, 1], params[1]).data
            assert np.array_equal(out[step], np.concatenate([left, right]))

    def test_feature_count_mismatch(self):
        params = [t2v_params([1.0], [0.0])]
        with pytest.raises(ValueError, match="features"):
            temporal_input_encoding(np.zeros((4, 2)), params)


def tables(max_degree, dim, rng=None):
    rows = max_degree + 2
    if rng is None:
        z_minus = np.zeros((rows, dim))
        z_plus = np.zeros((rows, dim))
    else:
        z_minus = rng.normal(size=(rows, dim))
        z_plus = rng.normal(size=(rows, dim))
    return DegreeEmbeddingTables(Tensor(z_minus), Tensor(z_plus), max_degree)


class TestSpatialInputEncoding:
    def test_undirected_sums_both_tables_at_degree(self):
        g = SpatioTemporalGraph.from_edge_list(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=False)
        rng = np.random.default_rng(21)
        tb = tables(5, 3, rng)
        out = spatial_input_encoding(g, tb).data
        for v in range(4):
            expected = tb.z_minus.data[2] + tb.z_plus.data[2]
            assert np.array_equal(out[v], expected)

    def test_zero_tables_give_zero_matrix(self):
        g = SpatioTemporalGraph.from_edge_list(3, [(0, 1), (1, 2)])
        out = spatial_input_encoding(g, tables(4, 6)).data
        assert np.array_equal(out, np.zeros((3, 6)))

    def test_overflow_bucket(self):
        # star: hub has outdegree 9, max_degree 5 -> overflow row 6
        g = SpatioTemporalGraph.from_edge_list(10, [(0, v) for v in range(1, 10)])
        rng = np.random.default_rng(22)
        tb = tables(5, 2, rng)
        out = spatial_input_encoding(g, tb).data
        assert np.array_equal(out[0], tb.z_minus.data[0] + tb.z_plus.data[6])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        pairs = [(u, v) for u in range(7) for v in range(7)
                 if u != v and rng.random() < 0.3]
        g = SpatioTemporalGraph.from_edge_list(7, pairs)
        perm = rng.permutation(7).tolist()
        tb = tables(8, 4, rng)
        base = spatial_input_encoding(g, tb).data
        permuted = spatial_input_encoding(relabel(g, perm), tb).data
        for v in range(7):
            assert np.array_equal(permuted[perm[v]], base[v])


class TestFuseInputs:
    def test_zero_weights_collapse_to_bias(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(2, 3, 1)))
        t_enc = Tensor(rng.normal(size=(2, 2)))
        s_enc = Tensor(rng.normal(size=(3, 2)))
        bias = rng.normal(size=4)
        out = fuse_inputs(x, t_enc, s_enc, Tensor(np.zeros((5, 4))), Tensor(bias))
        assert np.max(np.abs(out.data - bias)) == 0.0

    def test_shape_contract(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(2, 3, 1)))
        t_enc = Tensor(rng.normal(size=(2, 2)))
        s_enc = Tensor(rng.normal(size=(3, 2)))
        w = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=4))
        assert fuse_inputs(x, t_enc, s_enc, w, b).shape == (2, 3, 4)

    def test_matches_per_position_oracle(self):
        rng = np.random.default_rng(26)
        t, n, c, kd, d, hidden = 3, 4, 2, 5, 3, 6
        x = rng.normal(size=(t, n, c))
        t_enc = rng.normal(size=(t, kd))
        s_enc = rng.normal(size=(n, d))
        w = rng.normal(size=(c + kd + d, hidden))
        b = rng.normal(size=hidden)
        out = fuse_inputs(Tensor(x), Tensor(t_enc), Tensor(s_enc),
                          Tensor(w), Tensor(b)).data
        for i in range(t):
            for j in range(n):
                row = np.concatenate([x[i, j], t_enc[i], s_enc[j]])
                assert np.max(np.abs(out[i, j] - (row @ w + b))) < 1e-12

    def test_toggles_change_expected_width(self):
        rng = np.random.default_rng(27)
        x = Tensor(rng.normal(size=(2, 3, 1)))
        w_narrow = Tensor(rng.normal(size=(1, 4)))
        b = Tensor(np.zeros(4))
        out = fuse_inputs(x, None, None, w_narrow, b)
        assert out.shape == (2, 3, 4)
        with pytest.raises(ValueError, match="width"):
            fuse_inputs(x, Tensor(rng.normal(size=(2, 2))), None, w_narrow, b)

    @pytest.mark.parametrize("features, time_dim, use_time, use_degree, batch", [
        (1, 3, True, True, None),
        (2, 3, True, True, None),
        (3, 1, True, True, None),
        (2, 1, True, True, None),
        (2, 3, False, True, None),
        (2, 3, True, False, None),
        (3, 3, True, True, 2),
        (1, 1, False, True, 2),
        (2, 3, True, False, 2),
    ], ids=["k1-dim3", "k2-dim3", "k3-dim1", "k2-dim1", "k2-no-time", "k2-no-degree",
            "k3-batch", "k1-dim1-no-time-batch", "k2-no-degree-batch"])
    def test_gradients_through_fused_pipeline(self, features, time_dim, use_time,
                                              use_degree, batch):
        rng = np.random.default_rng(28)
        g = SpatioTemporalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        store = ParameterStore()
        t2v = [Time2VecParams(store.add(f"t2v.f{j}.w", rng.normal(size=time_dim)),
                              store.add(f"t2v.f{j}.b", rng.normal(size=time_dim)))
               for j in range(features)]
        zm = store.add("deg.in", rng.normal(size=(6, 2)))
        zp = store.add("deg.out", rng.normal(size=(6, 2)))
        width = 1 + use_time * features * time_dim + use_degree * 2
        fw = store.add("fusion.w", rng.normal(size=(width, 5)))
        fb = store.add("fusion.b", rng.normal(size=5))
        lead = () if batch is None else (batch,)
        x = rng.normal(size=lead + (2, 4, 1))
        ts = rng.uniform(0, 1, size=lead + (2, features))
        target = rng.normal(size=lead + (2, 4, 5))

        def fwd():
            t_enc = temporal_input_encoding(ts, t2v) if use_time else None
            s_enc = (spatial_input_encoding(g, DegreeEmbeddingTables(zm, zp, 4))
                     if use_degree else None)
            out = fuse_inputs(Tensor(x), t_enc, s_enc, fw, fb)
            diff = sub(out, Tensor(target))
            return mean(mul(diff, diff))

        assert finite_difference_check(fwd, store) < 1e-4
