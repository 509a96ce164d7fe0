import numpy as np
import pytest

from fedembed import pretrain
from fedembed.numerics import Mlp, init_uniform, mlp_forward, sgd_step
from fedembed.pretrain import (DivergenceError, PretrainConfig, RqVaeModel,
                               assign_codes, init_codebooks_kmeans, read_codes,
                               rq_encode, train_autoencoder, train_rqvae, write_codes)
from fedembed.rng import RngStream


def clustered_features(n=80, k_p=16, n_clusters=4, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1, (n_clusters, k_p))
    labels = rng.integers(0, n_clusters, n)
    return (centers[labels] + noise * rng.normal(0, 1, (n, k_p))).astype(np.float32)


def small_config(**overrides):
    defaults = dict(hidden=(24,), latent_dim=6, steps=300, lr=1e-2, batch_size=32,
                    levels=2, codebook_size=8, beta=0.25)
    defaults.update(overrides)
    return PretrainConfig(**defaults)


class TestAutoencoder:
    def test_loss_decreases_on_synthetic_features(self):
        feats = clustered_features()
        table, losses = train_autoencoder(feats, small_config(), RngStream(0))
        assert table.shape == (80, 6)
        assert losses[-1] < losses[0]

    def test_zero_features_zero_nets_trivial(self):
        feats = np.zeros((5, 4), dtype=np.float32)
        enc = Mlp([np.zeros((3, 4), dtype=np.float32)], [np.zeros(3, dtype=np.float32)],
                  ["identity"])
        dec = Mlp([np.zeros((4, 3), dtype=np.float32)], [np.zeros(4, dtype=np.float32)],
                  ["identity"])
        table, losses = train_autoencoder(
            feats, small_config(latent_dim=3, steps=5), RngStream(0), enc, dec)
        assert losses == [0.0] * 5
        assert not table.any()

    def test_identical_seeds_bit_identical_tables(self):
        feats = clustered_features(seed=3)
        t1, _ = train_autoencoder(feats, small_config(steps=60), RngStream(9))
        t2, _ = train_autoencoder(feats, small_config(steps=60), RngStream(9))
        assert t1.tobytes() == t2.tobytes()
        t3, _ = train_autoencoder(feats, small_config(steps=60), RngStream(10))
        assert t1.tobytes() != t3.tobytes()

    def test_divergence_error_names_step(self):
        feats = 10.0 * clustered_features(seed=1)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="step"):
            train_autoencoder(feats, small_config(lr=1e4, steps=500), RngStream(0))

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            train_autoencoder(np.empty((0, 4), dtype=np.float32),
                              small_config(), RngStream(0))


class TestRqEncode:
    def test_worked_example(self):
        books = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        codes, residuals, z_hat = rq_encode(np.array([[0.9, 0.1]]), books)
        assert codes.tolist() == [[0]]
        assert residuals[1, 0] == pytest.approx([-0.1, 0.1])
        assert z_hat[0] == pytest.approx([1.0, 0.0])

    def test_exact_codebook_row_gives_zero_residual(self):
        z = np.array([[0.25, -0.5, 1.0]])
        books = np.stack([np.concatenate([z, z + 1.0])])
        codes, residuals, z_hat = rq_encode(z, books)
        assert codes.tolist() == [[0]]
        assert np.array_equal(z_hat, z)
        assert not residuals[1].any()

    def test_matches_per_level_brute_force(self):
        # oracle: per-sample python loop over codebook rows, first argmin
        rng = np.random.default_rng(5)
        books = rng.normal(0, 1, (3, 8, 4))
        z = rng.normal(0, 1, (200, 4))
        codes, residuals, z_hat = rq_encode(z, books)
        for s in range(z.shape[0]):
            r = z[s].copy()
            for level in range(3):
                dists = [float(((r - row) ** 2).sum()) for row in books[level]]
                c = dists.index(min(dists))
                assert codes[s, level] == c
                r = r - books[level][c]
            assert np.allclose(residuals[-1, s], r)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(8)
        books = rng.normal(0, 1, (4, 6, 5))
        z = rng.normal(0, 1, (50, 5))
        _, residuals, z_hat = rq_encode(z, books)
        assert np.linalg.norm(z - z_hat - residuals[-1]) < 1e-6
        diff = np.linalg.norm(z - z_hat, axis=1) - np.linalg.norm(residuals[-1], axis=1)
        assert np.abs(diff).max() < 1e-6

    def test_ties_break_to_lowest_index(self):
        books = np.array([[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]])
        codes, _, _ = rq_encode(np.array([[1.0, 0.0]]), books)
        assert codes.tolist() == [[0]]

    def test_single_vector_rejected_naming_the_batch_shape(self):
        with pytest.raises(ValueError, match=r"\(batch, dim\) latents, got shape \(2,\)"):
            rq_encode(np.array([1.0, 0.0]), np.zeros((1, 2, 2)))


class TestCodebookInit:
    def test_kmeans_init_beats_random_init(self):
        for seed in (0, 1, 2):
            z = clustered_features(n=64, k_p=6, n_clusters=4, noise=0.2, seed=seed)
            rng = RngStream(seed)
            books = init_codebooks_kmeans(z, levels=1, codebook_size=4,
                                          rng=rng.generator("km"))
            random_books = init_uniform(rng.generator("rand"), (1, 4, 6),
                                        dtype=np.float64)
            _, res_km, _ = rq_encode(z, books)
            _, res_rand, _ = rq_encode(z, random_books)
            err_km = float((res_km[1] ** 2).sum())
            err_rand = float((res_rand[1] ** 2).sum())
            assert err_km < err_rand

    def test_padding_reseeds_unused_rows(self):
        z = np.tile(np.array([[1.0, 2.0]]), (5, 1))   # one distinct point
        books = init_codebooks_kmeans(z, levels=1, codebook_size=4,
                                      rng=np.random.default_rng(0))
        assert books.shape == (1, 4, 2)
        assert np.isfinite(books).all()


class TestTrainRqVae:
    def test_loss_decreases_first_100_steps_median_of_three_seeds(self):
        feats = clustered_features(n=96, k_p=12, seed=2)
        deltas = []
        for seed in (0, 1, 2):
            _, model = train_rqvae(feats, small_config(steps=100, latent_dim=4),
                                   RngStream(seed))
            first = np.mean(model.loss_log[:10])
            last = np.mean(model.loss_log[-10:])
            deltas.append(last - first)
        assert np.median(deltas) < 0

    def test_beta_zero_encoder_gets_no_commitment_gradient(self):
        feats = clustered_features(n=32, k_p=8, seed=4)
        cfg = small_config(steps=1, latent_dim=4, levels=1, codebook_size=4, beta=0.0)
        enc = Mlp.create([8, 4], ["identity"], np.random.default_rng(0), dtype=np.float32)
        dec = Mlp([np.zeros((8, 4), dtype=np.float32)], [np.zeros(8, dtype=np.float32)],
                  ["identity"])
        enc_before = [w.copy() for w in enc.weights]
        _, model = train_rqvae(feats, cfg, RngStream(0), enc, dec)
        for w0, w1 in zip(enc_before, model.encoder.weights):
            assert np.array_equal(w0, w1)   # zero decoder + beta=0: no path to encoder

        enc2 = Mlp([enc_before[0].copy()], [np.zeros(4, dtype=np.float32)], ["identity"])
        dec2 = Mlp([np.zeros((8, 4), dtype=np.float32)], [np.zeros(8, dtype=np.float32)],
                   ["identity"])
        cfg2 = small_config(steps=1, latent_dim=4, levels=1, codebook_size=4, beta=0.25)
        _, model2 = train_rqvae(feats, cfg2, RngStream(0), enc2, dec2)
        assert not np.array_equal(enc_before[0], model2.encoder.weights[0])

    def test_codebooks_receive_training(self):
        feats = clustered_features(n=48, k_p=8, seed=6)
        cfg = small_config(steps=20, latent_dim=4)
        _, model = train_rqvae(feats, cfg, RngStream(1))
        assert model.loss_log and len(model.loss_log) == 20

    def test_code_utilization_on_clustered_features(self):
        feats = clustered_features(n=120, k_p=10, n_clusters=6, seed=7)
        codes, model = train_rqvae(feats, small_config(steps=150, latent_dim=4),
                                   RngStream(3))
        used = np.unique(codes[:, 0]).size
        assert used >= 0.5 * model.codebooks.shape[1]

    def test_codebook_gradient_keeps_the_per_level_bytes(self, monkeypatch):
        # reference: the per-level scatter `train_rqvae` used before the
        # codebooks' gradient went through one `numerics.scatter_rows`
        encoded, stepped = [], []

        def encode(z, books):
            out = rq_encode(z, books)
            encoded.append(out)
            return out

        def step(params, grads, lr):
            stepped.append(np.array(grads[0]))
            sgd_step(params, grads, lr)

        monkeypatch.setattr(pretrain, "rq_encode", encode)
        monkeypatch.setattr(pretrain, "sgd_step", step)
        cfg = small_config(steps=6, latent_dim=4, levels=3, codebook_size=8)
        train_rqvae(clustered_features(n=48, k_p=8, seed=6), cfg, RngStream(2))
        assert len(stepped) == 6
        for (codes, residuals, _), got in zip(encoded, stepped):
            b = len(codes)
            want = np.zeros((cfg.levels, cfg.codebook_size, 4), dtype=residuals.dtype)
            for j in range(cfg.levels):
                np.add.at(want[j], codes[:, j], (-2.0 / b) * residuals[j + 1])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_divergence_raises(self):
        feats = 10.0 * clustered_features(seed=9)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="step"):
            train_rqvae(feats, small_config(lr=1e4, steps=500), RngStream(0))


class TestAssignCodes:
    def _model(self):
        feats = clustered_features(n=40, k_p=8, seed=11)
        codes, model = train_rqvae(feats, small_config(steps=30, latent_dim=4),
                                   RngStream(5))
        return feats, codes, model

    def test_identical_features_identical_codes(self):
        feats, _, model = self._model()
        doubled = np.vstack([feats[:1], feats[:1]])
        codes = assign_codes(doubled, model)
        assert np.array_equal(codes[0], codes[1])

    def test_codes_in_range(self):
        _, codes, model = self._model()
        assert codes.min() >= 0
        assert codes.max() < model.codebooks.shape[1]

    def test_assignment_idempotent(self):
        feats, codes, model = self._model()
        again = assign_codes(feats, model)
        assert np.array_equal(codes, again)


class TestCodesFile:
    def test_round_trip(self, tmp_path):
        codes = np.array([[0, 3], [2, 1], [1, 1]])
        path = tmp_path / "codes.tsv"
        write_codes(path, codes)
        text = path.read_text()
        assert text.startswith("# codes v1 levels=2")
        assert "1\t2,1" in text
        assert np.array_equal(read_codes(path), codes)

    def test_non_dense_ids_rejected(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("0\t1,2\n2\t0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="dense"):
            read_codes(path)

    def test_inconsistent_levels_rejected(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("0\t1,2\n1\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 codes"):
            read_codes(path)
