import numpy as np

from fedembed.privacy import DpConfig, apply_cdp, apply_ldp, clip_update, laplace_noise
from fedembed.rng import RngStream


class TestLaplaceNoise:
    def test_zero_scale_gives_exact_zeros(self):
        noise = laplace_noise((100,), 0.0, np.random.default_rng(0))
        assert not noise.any()

    def test_variance_matches_two_delta_squared(self):
        delta = 0.1
        g = RngStream(0).generator("laplace_var")
        sample = laplace_noise((1_000_000,), delta, g)
        assert abs(sample.var() / (2 * delta ** 2) - 1.0) < 0.02

    def test_median_near_zero(self):
        delta = 0.1
        n = 1_000_000
        g = RngStream(1).generator("laplace_median")
        sample = laplace_noise((n,), delta, g)
        assert abs(np.median(sample)) < 3 * delta / np.sqrt(n)

    def test_keyed_reproducible_and_distinct(self):
        s = RngStream(5)
        a = laplace_noise((32,), 0.5, s.generator("dp", 3, 7))
        b = laplace_noise((32,), 0.5, s.generator("dp", 3, 7))
        c = laplace_noise((32,), 0.5, s.generator("dp", 4, 7))
        d = laplace_noise((32,), 0.5, s.generator("dp", 3, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestApply:
    def test_mode_none_is_bitwise_passthrough(self):
        cfg = DpConfig(mode="none")
        tensors = [np.random.default_rng(0).normal(0, 1, (5, 3))]
        out = apply_ldp(tensors, cfg, np.random.default_rng(1))
        assert out[0] is tensors[0]
        out = apply_cdp(tensors, cfg, np.random.default_rng(1))
        assert out[0] is tensors[0]

    def test_delta_zero_is_bitwise_passthrough(self):
        cfg = DpConfig(mode="ldp", delta=0.0)
        tensors = [np.ones((4, 4))]
        assert apply_ldp(tensors, cfg, np.random.default_rng(0))[0] is tensors[0]

    def test_ldp_mean_of_clients_variance(self):
        # mean of c i.i.d. Laplace(0, d) has variance 2 d^2 / c
        delta, c, trials = 0.2, 10, 100_000
        cfg = DpConfig(mode="ldp", delta=delta)
        s = RngStream(7)
        zeros = np.zeros(trials)
        acc = np.zeros(trials)
        for client in range(c):
            noised = apply_ldp([zeros], cfg, s.generator("dp", client))
            acc += noised[0]
        acc /= c
        expected = 2 * delta ** 2 / c
        assert abs(acc.var() / expected - 1.0) < 0.05

    def test_cdp_variance_independent_of_client_count(self):
        delta, trials = 0.2, 100_000
        cfg = DpConfig(mode="cdp", delta=delta)
        noised = apply_cdp([np.zeros(trials)], cfg, RngStream(8).generator("dp_server"))
        expected = 2 * delta ** 2
        assert abs(noised[0].var() / expected - 1.0) < 0.05

    def test_wrong_mode_is_noop(self):
        cfg = DpConfig(mode="cdp", delta=1.0)
        tensors = [np.ones(8)]
        assert apply_ldp(tensors, cfg, np.random.default_rng(0))[0] is tensors[0]

    def test_optional_clipping_bounds_norm(self):
        # the clip bounds the update from the snapshot, not the parameters
        snapshot = np.full(16, 3.0, dtype=np.float32)
        big = np.full(16, 10.0, dtype=np.float32)
        out = clip_update(big, snapshot, 1.0)
        assert out.dtype == np.float32
        assert np.linalg.norm(out.astype(np.float64) - snapshot) <= 1.0 + 1e-6
        assert np.allclose(out, 3.25)
        small = snapshot + np.float32(0.2)
        assert clip_update(small, snapshot, 1.0) is small
