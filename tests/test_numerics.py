import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import central_diff, relative_error
from fedembed.numerics import (NEAREST_BLOCK, Mlp, kmeans, level_rows, mlp_backward,
                               mlp_forward, nearest_rows, scatter_rows, sgd_step)


def _mlp(weights, biases, acts, dropout=0.0):
    return Mlp([np.asarray(w, dtype=np.float64) for w in weights],
               [np.asarray(b, dtype=np.float64) for b in biases],
               acts, dropout)


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        m = _mlp([np.zeros((3, 4)), np.zeros((2, 3))],
                 [np.zeros(3), np.zeros(2)], ["relu", "sigmoid"])
        out, _ = mlp_forward(m, np.array([[0.3, -1.0, 2.0, 0.7]]))
        assert np.array_equal(out, np.full((1, 2), 0.5))

    @pytest.mark.parametrize("dtype,z", [(np.float64, -800.0), (np.float32, -100.0)])
    def test_sigmoid_far_below_zero_is_zero_without_warning(self, dtype, z):
        m = Mlp([np.eye(1, dtype=dtype)], [np.zeros(1, dtype=dtype)], ["sigmoid"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = mlp_forward(m, np.array([[z]], dtype=dtype))
        assert out[0, 0] == 0.0

    def test_identity_weights_relu(self):
        m = _mlp([np.eye(2)], [np.zeros(2)], ["relu"])
        out, _ = mlp_forward(m, np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, np.array([[0.0, 2.0]]))

    def test_two_layer_chain_matches_hand_computation(self):
        # oracle: explicit scalar arithmetic, no matrix ops
        w0 = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]
        b0 = [0.01, -0.02, 0.03]
        w1 = [[0.7, -0.8, 0.9]]
        b1 = [0.05]
        x = [1.0, 2.0]
        z0 = [sum(w0[i][j] * x[j] for j in range(2)) + b0[i] for i in range(3)]
        a0 = [max(v, 0.0) for v in z0]
        expected = sum(w1[0][i] * a0[i] for i in range(3)) + b1[0]

        m = _mlp([w0, w1], [b0, b1], ["relu", "identity"])
        out, _ = mlp_forward(m, np.array([x]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        m = _mlp([np.zeros((3, 4))], [np.zeros(3)], ["relu"])
        with pytest.raises(ValueError, match="input dim"):
            mlp_forward(m, np.zeros((1, 5)))

    def test_single_vector_rejected_naming_the_batch_shape(self):
        m = _mlp([np.zeros((3, 4))], [np.zeros(3)], ["relu"])
        with pytest.raises(ValueError, match=r"must be \(batch, 4\), got shape \(4,\)"):
            mlp_forward(m, np.zeros(4))

    def test_inconsistent_layer_dims_rejected(self):
        with pytest.raises(ValueError, match="output dim"):
            _mlp([np.zeros((3, 4)), np.zeros((2, 5))],
                 [np.zeros(3), np.zeros(2)], ["relu", "identity"])

    def test_eval_mode_is_deterministic_with_dropout_configured(self):
        rng = np.random.default_rng(0)
        m = Mlp.create([4, 8, 2], ["relu", "identity"], rng, dropout=0.5, dtype=np.float64)
        x = np.linspace(-1, 1, 4)[None, :]
        a, _ = mlp_forward(m, x, mode="eval")
        b, _ = mlp_forward(m, x, mode="eval")
        assert np.array_equal(a, b)


class TestBackward:
    @pytest.mark.parametrize("acts", [["relu", "identity"], ["sigmoid", "sigmoid"],
                                      ["identity", "relu"], ["relu", "sigmoid"]])
    def test_gradients_match_finite_differences(self, acts, rng):
        sizes = [3, 5, 2]
        m = Mlp.create(sizes, acts, rng, dtype=np.float64)
        for w in m.weights:
            w += rng.normal(0, 0.5, w.shape)
        x = rng.normal(0, 1.0, (4, 3))
        target = rng.normal(0, 1.0, (4, 2))

        def loss():
            out, _ = mlp_forward(m, x)
            return float(((out - target) ** 2).sum())

        out, cache = mlp_forward(m, x)
        wg, bg, xg = mlp_backward(m, cache, 2.0 * (out - target))
        fd = central_diff(loss, m.weights + m.biases + [x])
        for analytic, numeric in zip(wg + bg + [xg], fd):
            assert relative_error(analytic, numeric) < 1e-4

    def test_gradients_through_dropout_with_pinned_mask(self, rng):
        from fedembed.rng import RngStream
        streams = RngStream(3)
        m = Mlp.create([3, 6, 1], ["relu", "identity"], rng, dropout=0.5, dtype=np.float64)
        for w in m.weights:
            w += rng.normal(0, 0.5, w.shape)
        x = rng.normal(0, 1.0, (5, 3))

        def loss():
            out, _ = mlp_forward(m, x, mode="train", rng=streams.generator("mask"))
            return float((out ** 2).sum())

        out, cache = mlp_forward(m, x, mode="train", rng=streams.generator("mask"))
        wg, bg, _ = mlp_backward(m, cache, 2.0 * out)
        fd = central_diff(loss, m.weights + m.biases)
        for analytic, numeric in zip(wg + bg, fd):
            assert relative_error(analytic, numeric) < 1e-4

    def test_zero_output_grad_gives_zero_grads(self, rng):
        m = Mlp.create([3, 4, 2], ["relu", "sigmoid"], rng, dtype=np.float64)
        out, cache = mlp_forward(m, rng.normal(0, 1, (2, 3)))
        wg, bg, xg = mlp_backward(m, cache, np.zeros_like(out))
        for g in wg + bg + [xg]:
            assert not g.any()

    def test_single_linear_layer_weight_grad_is_outer_product(self):
        m = _mlp([[[0.5, -1.0], [2.0, 0.25]]], [[0.0, 0.0]], ["identity"])
        x = np.array([[3.0, -2.0]])
        g = np.array([[1.5, -0.5]])
        _, cache = mlp_forward(m, x)
        wg, bg, _ = mlp_backward(m, cache, g)
        assert np.allclose(wg[0], np.outer(g, x))
        assert np.allclose(bg[0], g[0])

    def test_mismatched_cache_rejected(self, rng):
        m1 = Mlp.create([3, 4, 2], ["relu", "identity"], rng, dtype=np.float64)
        m2 = Mlp.create([3, 4], ["identity"], rng, dtype=np.float64)
        _, cache = mlp_forward(m1, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="cache"):
            mlp_backward(m2, cache, np.zeros((1, 2)))

    def test_wrong_output_grad_shape_rejected(self, rng):
        m = Mlp.create([3, 4, 2], ["relu", "identity"], rng, dtype=np.float64)
        _, cache = mlp_forward(m, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="shape"):
            mlp_backward(m, cache, np.zeros((4, 2)))


class TestSgd:
    def test_scalar_case(self):
        p = np.array([1.0])
        assert sgd_step(p, np.array([0.5]), 0.1) is None
        assert p[0] == pytest.approx(0.95)

    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0, 3.0])
        sgd_step(p, np.zeros(3), 0.1)
        assert np.array_equal(p, [1.0, -2.0, 3.0])

    def test_vector_matches_elementwise_scalars(self, rng):
        p = rng.normal(0, 1, 6)
        g = rng.normal(0, 1, 6)
        before = p.copy()
        sgd_step(p, g, 0.05)
        for i in range(6):
            assert p[i] == pytest.approx(before[i] - 0.05 * g[i])

    def test_steps_in_place_with_the_rebinding_bits(self, rng):
        p = rng.normal(0, 1, (3, 4)).astype(np.float32)
        g = rng.normal(0, 1, (3, 4))          # cast to the parameter's dtype first
        want = p - 0.05 * g.astype(np.float32)
        sgd_step(p, g, 0.05)
        assert p.dtype == np.float32 and p.tobytes() == want.tobytes()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            sgd_step(np.zeros(3), np.zeros(4), 0.1)

    def test_read_only_array_raises(self):
        p = np.ones(3)
        p.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            sgd_step(p, np.ones(3), 0.1)

    def test_list_of_tensors(self):
        params = [np.ones((2, 2)), np.ones(2)]
        grads = [np.full((2, 2), 2.0), np.full(2, 4.0)]
        sgd_step(params, grads, 0.25)
        assert np.allclose(params[0], 0.5)
        assert np.allclose(params[1], 0.0)


def _objective(points, centroids, assignments):
    """Sum of squared distances from each point to its centroid."""
    return float(((points - centroids[assignments]) ** 2).sum())


class TestNearestRows:
    @pytest.mark.parametrize("n", [0, 1, NEAREST_BLOCK, 2 * NEAREST_BLOCK + 7])
    def test_blocks_give_the_whole_cube_argmin(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(0, 1, (40, 3)).astype(np.float32)
        rows[7] = rows[3]                    # a tie, which goes to row 3
        points = np.concatenate([rng.normal(0, 1, (n, 3)).astype(np.float32), rows[[3]]])
        want = ((points[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        got = nearest_rows(points, rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got[-1] == 3


def scatter_loop(like, idx, values):
    """`scatter_rows` one index at a time, in C order of the positions."""
    out = np.zeros_like(like)
    for pos in np.ndindex(idx.shape):
        out[idx[pos]] += values[pos]
    return out


class TestScatterRows:
    @settings(max_examples=200, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           n=st.integers(1, 5),
           tail=st.sampled_from([(3,), (2, 3)]),              # 2-D and 3-D tables
           idx_shape=st.sampled_from([(0,), (1,), (7,), (3, 2), (2, 0), (2, 3, 2)]),
           data=st.data())
    def test_equals_a_per_index_loop(self, dtype, n, tail, idx_shape, data):
        # with few rows the ids repeat, so a row sums several values in order
        idx = data.draw(arrays(np.int64, idx_shape, elements=st.integers(0, n - 1)))
        finite = st.floats(-1e3, 1e3, width=np.dtype(dtype).itemsize * 8) | st.just(-0.0)
        values = data.draw(arrays(dtype, idx_shape + tail, elements=finite))
        like = np.full((n,) + tail, 7.0, dtype=dtype)      # only its shape and dtype count
        got = scatter_rows(like, idx, values)
        assert got.dtype == dtype and got.shape == like.shape
        assert got.tobytes() == scatter_loop(like, idx, values).tobytes()

    def test_negative_zeros_sum_to_positive_zero(self):
        got = scatter_rows(np.ones((2, 3)), np.array([[1, 1]]), np.full((1, 2, 3), -0.0))
        assert got.tobytes() == np.zeros((2, 3)).tobytes()

    def test_level_rows_offsets_each_level(self):
        codes = np.array([[0, 3], [2, 1]])
        assert level_rows(codes, 4).tolist() == [[0, 7], [2, 5]]


class TestKmeans:
    def test_two_well_separated_pairs(self, rng):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        centroids, assign = kmeans(pts, 2, rng=rng)
        # oracle: brute force over every 2-partition of the 4 points
        best = None
        for mask in range(1, 15):  # proper nonempty 2-partitions only
            sel = np.array([(mask >> i) & 1 for i in range(4)], dtype=bool)
            c0, c1 = pts[sel].mean(axis=0), pts[~sel].mean(axis=0)
            cost = ((pts[sel] - c0) ** 2).sum() + ((pts[~sel] - c1) ** 2).sum()
            if best is None or cost < best[0]:
                best = (cost, {tuple(np.round(c0, 6)), tuple(np.round(c1, 6))})
        got = {tuple(np.round(c, 6)) for c in centroids}
        assert got == best[1]
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_one_gives_global_mean(self, rng):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        centroids, assign = kmeans(pts, 1, rng=rng)
        assert np.allclose(centroids[0], pts.mean(axis=0))
        assert (assign == 0).all()

    def test_k_equals_n_zero_error(self, rng):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        centroids, assign = kmeans(pts, 3, rng=rng)
        assert _objective(pts, centroids, assign) == 0.0
        assert sorted(assign.tolist()) == [0, 1, 2]

    def test_k_beyond_distinct_points_pads(self, rng):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        centroids, assign = kmeans(pts, 4, rng=rng)
        assert centroids.shape == (4, 2)
        assert _objective(pts, centroids, assign) == 0.0

    def test_objective_non_increasing_in_iterations(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1, (60, 3))
        costs = []
        for iters in range(1, 8):
            c, a = kmeans(pts, 5, iters=iters, rng=np.random.default_rng(42))
            costs.append(_objective(pts, c, a))
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(1).normal(0, 1, (40, 2))
        c1, a1 = kmeans(pts, 4, rng=np.random.default_rng(9))
        c2, a2 = kmeans(pts, 4, rng=np.random.default_rng(9))
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)

    def test_empty_input_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2, rng=rng)

    def test_tie_breaks_to_lowest_index(self, rng):
        # duplicate points give duplicate centroids; ties go to centroid 0
        centroids, assign = kmeans(np.array([[1.0], [1.0]]), 2, rng=rng)
        assert (assign == 0).all()
