import math
import warnings

import numpy as np
import pytest

from conftest import central_diff, relative_error
from fedembed.backbones import (Backbone, UserState, bce_loss, local_step,
                                make_backbone, make_user_state, score,
                                score_backward)
from fedembed.numerics import Mlp
from fedembed.rng import RngStream
from fedembed.strategies import make_adapter


class TestScore:
    def test_fedmf_dot_product(self):
        bb = Backbone("fedmf")
        state = UserState(embedding=np.array([1.0, 2.0]))
        logits, _ = score(bb, state, np.array([[3.0, 4.0]]))
        assert logits.tolist() == [11.0]

    def test_fedmf_zero_user_scores_zero(self, rng):
        bb = Backbone("fedmf")
        state = UserState(embedding=np.zeros(4))
        logits, _ = score(bb, state, rng.normal(0, 1, (6, 4)))
        assert not logits.any()

    def test_fedmf_bilinear_in_user(self, rng):
        bb = Backbone("fedmf")
        u = rng.normal(0, 1, 5)
        emb = rng.normal(0, 1, (3, 5))
        s1, _ = score(bb, UserState(embedding=u), emb)
        s2, _ = score(bb, UserState(embedding=2.5 * u), emb)
        assert np.allclose(s2, 2.5 * s1)

    def test_fedncf_zero_weights_probability_half(self):
        bb = make_backbone("fedncf", 4, RngStream(0), dropout=0.0)
        for w in bb.mlp.weights:
            w[:] = 0.0
        state = UserState(embedding=np.ones(4, dtype=np.float32))
        logits, _ = score(bb, state, np.ones((2, 4), dtype=np.float32))
        assert not logits.any()
        assert 1.0 / (1.0 + math.exp(-logits[0])) == 0.5

    def test_pfedrec_personal_mlp_scores(self):
        state = make_user_state("pfedrec", 4, 0, RngStream(1), dropout=0.0)
        bb = Backbone("pfedrec")
        logits, _ = score(bb, state, np.ones((3, 4), dtype=np.float32))
        assert logits.shape == (3,)

    def test_dim_mismatch_rejected(self):
        bb = Backbone("fedmf")
        state = UserState(embedding=np.zeros(4))
        with pytest.raises(ValueError):
            score(bb, state, np.zeros((2, 5)))

    def test_eval_repeatable_despite_dropout_config(self, rng):
        bb = make_backbone("fedncf", 4, RngStream(3), dropout=0.5)
        state = make_user_state("fedncf", 4, 0, RngStream(3))
        emb = rng.normal(0, 1, (5, 4)).astype(np.float32)
        a, _ = score(bb, state, emb, mode="eval")
        b, _ = score(bb, state, emb, mode="eval")
        assert np.array_equal(a, b)


class TestBceLoss:
    def test_midpoint(self):
        losses, grads = bce_loss(np.array([0.0]), np.array([1.0]))
        assert losses[0] == pytest.approx(math.log(2.0))
        assert grads[0] == pytest.approx(-0.5)

    def test_saturated_no_overflow(self):
        losses, grads = bce_loss(np.array([20.0, -20.0]), np.array([1.0, 0.0]))
        assert losses[0] == pytest.approx(0.0, abs=1e-8)
        assert grads[0] == pytest.approx(0.0, abs=1e-8)
        assert np.isfinite(losses).all() and np.isfinite(grads).all()
        big, _ = bce_loss(np.array([700.0]), np.array([0.0]))
        assert np.isfinite(big).all()

    def test_far_negative_logit_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses, grads = bce_loss(np.array([-800.0]), np.array([0.0]))
        assert losses[0] == 0.0 and grads[0] == 0.0

    def test_gradient_matches_finite_differences(self):
        for s0 in np.arange(-3.0, 3.5, 1.0):
            for y in (0.0, 1.0):
                s = np.array([s0])

                def loss():
                    return float(bce_loss(s, np.array([y]))[0][0])

                _, grads = bce_loss(s, np.array([y]))
                (fd,) = central_diff(loss, [s], eps=1e-5)
                assert grads[0] == pytest.approx(fd[0], rel=1e-5, abs=1e-7)


def _setup(backbone_kind, strategy_kind, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n, k = 10, 4
    streams = RngStream(seed)
    base = rng.normal(0, 1, (n, k)).astype(dtype)
    kwargs = {}
    if strategy_kind == "rqvae":
        kwargs = {"levels": 2, "d_r": 4, "codes": rng.integers(0, 4, (n, 2))}
    elif strategy_kind == "hash":
        kwargs = {"d_h": 8, "n_hashes": 2, "senet": True, "expansion": 4}
    elif strategy_kind == "lora":
        kwargs = {"rank": 2}
    adapter = make_adapter(strategy_kind, n, k, streams, init="base_distribution",
                           dtype=dtype, **kwargs)
    # inflate the tiny init scales so gradients sit well above FD noise
    for t in adapter.trainable():
        t += rng.normal(0, 0.5, t.shape)
    bb = make_backbone(backbone_kind, k, streams, dropout=0.0, dtype=dtype)
    state = make_user_state(backbone_kind, k, 0, streams, dropout=0.0, dtype=dtype)
    if state.embedding is not None:
        state.embedding = state.embedding + rng.normal(0, 0.5, k)
    items = rng.integers(0, n, 6)
    labels = (rng.random(6) < 0.5).astype(np.float64)
    return base, adapter, bb, state, items, labels


class TestLocalStep:
    @pytest.mark.parametrize("backbone", ["fedmf", "fedncf", "pfedrec"])
    def test_loss_decreases_on_fixed_batch(self, backbone):
        for trial in range(10):
            base, adapter, bb, state, items, labels = _setup(backbone, "lora",
                                                             seed=trial)

            def batch_loss():
                emb, _ = adapter.compose(base, items)
                logits, _ = score(bb, state, emb, mode="eval")
                return float(bce_loss(logits, labels)[0].mean())

            before = batch_loss()
            local_step(bb, state, adapter, base, items, labels, lr=0.01, mode="eval")
            assert batch_loss() < before

    def test_saturated_batch_leaves_parameters_unchanged(self):
        base = np.zeros((2, 4), dtype=np.float32)
        adapter = make_adapter("lora", 2, 4, RngStream(0), rank=2)
        bb = Backbone("fedmf")
        # logits = u . e = 40 -> sigmoid saturates in float32
        state = UserState(embedding=np.full(4, 10.0, dtype=np.float32))
        full = make_adapter("full", 2, 4, RngStream(1))
        full.table[:] = 1.0
        before = [t.copy() for t in full.trainable()]
        u_before = state.embedding.copy()
        local_step(bb, state, full, base, np.array([0, 1]),
                   np.array([1.0, 1.0]), lr=0.01, mode="eval")
        assert np.array_equal(state.embedding, u_before)
        for t0, t1 in zip(before, full.trainable()):
            assert np.array_equal(t0, t1)

    @pytest.mark.parametrize("backbone", ["fedmf", "fedncf", "pfedrec"])
    @pytest.mark.parametrize("strategy", ["full", "lora", "hash", "rqvae"])
    def test_end_to_end_gradient_matches_finite_differences(self, backbone, strategy):
        base, adapter, bb, state, items, labels = _setup(backbone, strategy, seed=7)

        params = list(adapter.trainable())
        if state.embedding is not None:
            params.append(state.embedding)
        if state.mlp is not None:
            params += state.mlp.weights + state.mlp.biases
        if bb.mlp is not None:
            params += bb.mlp.weights + bb.mlp.biases

        def batch_loss():
            emb, _ = adapter.compose(base, items)
            logits, _ = score(bb, state, emb, mode="eval")
            return float(bce_loss(logits, labels)[0].mean())

        emb, a_cache = adapter.compose(base, items)
        logits, s_cache = score(bb, state, emb, mode="eval")
        _, dl = bce_loss(logits, labels)
        dl = dl / len(items)
        grads = score_backward(bb, state, s_cache, dl)
        analytic = list(adapter.grads(a_cache, grads["emb"]))
        if "user_emb" in grads:
            analytic.append(grads["user_emb"])
        if "user_mlp" in grads:
            analytic += list(grads["user_mlp"][0]) + list(grads["user_mlp"][1])
        if "wg" in grads:
            analytic += list(grads["wg"][0]) + list(grads["wg"][1])

        # small eps keeps the straddle window away from relu kinks
        fd = central_diff(batch_loss, params, eps=1e-6)
        assert len(analytic) == len(fd)
        for a, f in zip(analytic, fd):
            assert relative_error(a, f) < 1e-4


class TestUserStateLocality:
    def test_pfedrec_state_has_no_embedding(self):
        state = make_user_state("pfedrec", 8, 3, RngStream(0))
        assert state.embedding is None
        assert isinstance(state.mlp, Mlp)

    def test_fedmf_backbone_has_no_shared_weights(self):
        bb = make_backbone("fedmf", 8, RngStream(0))
        assert bb.mlp is None
        assert bb.upload_bytes() == 0

    def test_fedncf_upload_bytes_counts_mlp(self):
        bb = make_backbone("fedncf", 32, RngStream(0))
        expected = (64 * 128 + 128 * 64 + 64 * 1 + 128 + 64 + 1) * 4
        assert bb.upload_bytes() == expected
