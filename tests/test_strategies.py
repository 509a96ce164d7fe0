import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import central_diff, relative_error
from fedembed import strategies
from fedembed.numerics import mlp_backward, sgd_step
from fedembed.rng import RngStream
from fedembed.strategies import (FullAdapter, FullEmbeddingTable, HashAdapter,
                                 LoraAdapter, RqVaeAdapter, comm_cost, hash_index,
                                 load_checkpoint, make_adapter, representation_capacity,
                                 save_checkpoint, serialize_upload)


def hash_adapter(table, hash_a, hash_b, p, w1=None, w2=None, n_items=1):
    """A `HashAdapter` over items 0..n_items-1 whose map holds their hash
    indices, built the way `make_adapter` builds it."""
    idx = hash_index(np.arange(n_items)[:, None], hash_a, hash_b, p, len(table))
    return HashAdapter(table, hash_a, hash_b, p, idx, w1, w2)


def base_table(n, k, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (n, k)).astype(dtype)


class TestCompose:
    def test_lora_zero_b_is_bitwise_identity(self):
        base = base_table(20, 8)
        adapter = make_adapter("lora", 20, 8, RngStream(1), rank=3)
        out, _ = adapter.compose(base, np.arange(20))
        assert out.tobytes() == base.tobytes()

    def test_lora_hand_example(self):
        # e=[1,1], B=[[1],[2]], a=[3] -> e + B a = [4, 7]
        base = np.array([[1.0, 1.0]], dtype=np.float32)
        adapter = LoraAdapter(a=np.array([[3.0]], dtype=np.float32),
                              b=np.array([[1.0], [2.0]], dtype=np.float32))
        out, _ = adapter.compose(base, [0])
        assert out.tolist() == [[4.0, 7.0]]

    def test_hash_mean_example(self):
        # item 0 hashes to rows 0 and 1 holding [1,3] and [3,5]; e = 0
        adapter = hash_adapter(table=np.array([[1.0, 3.0], [3.0, 5.0]], dtype=np.float32),
                               hash_a=np.array([1, 2]), hash_b=np.array([0, 1]),
                               p=4096)
        base = np.zeros((1, 2), dtype=np.float32)
        out, _ = adapter.compose(base, [0])
        assert out.tolist() == [[2.0, 4.0]]

    def test_rqvae_definitional_sum(self):
        books = np.zeros((2, 2, 2), dtype=np.float32)
        books[0, 0] = [1.0, 0.0]
        books[1, 1] = [0.0, 2.0]
        adapter = RqVaeAdapter(books, np.array([[0, 1]]))
        base = np.array([[1.0, 1.0]], dtype=np.float32)
        out, _ = adapter.compose(base, [0])
        assert out.tolist() == [[2.0, 3.0]]

    def test_index_out_of_range(self):
        base = base_table(5, 4)
        adapter = make_adapter("lora", 5, 4, RngStream(0), rank=2)
        with pytest.raises(IndexError):
            adapter.compose(base, [5])

    @pytest.mark.parametrize("kind,kwargs", [
        ("lora", {"rank": 2}),
        ("hash", {"d_h": 8, "n_hashes": 2}),
        ("hash", {"d_h": 8, "n_hashes": 2, "senet": True}),
        ("rqvae", {"levels": 2, "d_r": 4}),
    ])
    def test_zero_init_identity_start(self, kind, kwargs):
        n, k = 13, 6
        if kind == "rqvae":
            kwargs["codes"] = np.random.default_rng(0).integers(0, 4, (n, 2))
        base = base_table(n, k, seed=3)
        adapter = make_adapter(kind, n, k, RngStream(5), init="zero", **kwargs)
        out, _ = adapter.compose(base, np.arange(n))
        assert out.tobytes() == base.tobytes()

    def test_base_distribution_init_is_not_identity(self):
        n, k = 13, 6
        base = base_table(n, k)
        adapter = make_adapter("hash", n, k, RngStream(5), d_h=8, n_hashes=2,
                               init="base_distribution")
        out, _ = adapter.compose(base, np.arange(n))
        assert out.tobytes() != base.tobytes()


class TestHashIndex:
    def test_worked_examples(self):
        assert hash_index(10, 3, 5, 4096, 256) == 35
        assert hash_index(5000, 1, 0, 4096, 256) == 136

    def test_a_equals_b_rejected_at_construction(self):
        with pytest.raises(ValueError, match="a != b"):
            hash_adapter(np.zeros((4, 2), dtype=np.float32),
                         hash_a=np.array([3]), hash_b=np.array([3]), p=64)

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            hash_adapter(np.zeros((4, 2), dtype=np.float32),
                         hash_a=np.array([0]), hash_b=np.array([1]), p=64)

    def test_p_smaller_than_table_rejected(self):
        with pytest.raises(ValueError, match="p must be"):
            hash_adapter(np.zeros((128, 2), dtype=np.float32),
                         hash_a=np.array([3]), hash_b=np.array([5]), p=64)

    @settings(max_examples=200, deadline=None)
    @given(item=st.integers(min_value=0, max_value=2**31 - 1),
           a=st.integers(min_value=1, max_value=4095),
           b=st.integers(min_value=0, max_value=4095),
           d_h=st.sampled_from([1, 2, 64, 256, 1024, 4096]))
    def test_in_range_and_deterministic(self, item, a, b, d_h):
        idx = int(hash_index(item, a, b, 4096, d_h))
        assert 0 <= idx < d_h
        assert idx == int(hash_index(item, a, b, 4096, d_h))
        assert idx == ((a * item + b) % 4096) % d_h


def senet_compose(vectors, w1, w2):
    """The SENet weights `HashAdapter.compose` uses for one item whose h
    hashed vectors are `vectors` (item 0 hashes to row j by its j-th
    function), and the composed embedding over a zero base."""
    v = np.asarray(vectors, dtype=np.float64)
    b = np.arange(len(v))
    adapter = hash_adapter(v.copy(), b + 1, b, len(v) + 1, np.asarray(w1, dtype=np.float64),
                           np.asarray(w2, dtype=np.float64))
    out, cache = adapter.compose(np.zeros((1, v.shape[1])), [0])
    assert np.array_equal(cache["v"][0], v)
    return cache["w"][0], out[0]


class TestSenet:
    def test_zero_weights_give_half(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        w, out = senet_compose(v, np.zeros((32, 2)), np.zeros((2, 32)))
        assert np.array_equal(w, np.full(2, 0.5))
        assert np.array_equal(out, 0.5 * v[0] + 0.5 * v[1])

    def test_weights_strictly_inside_unit_interval(self, rng):
        v = rng.normal(0, 10, (3, 5))
        w1 = rng.normal(0, 2, (48, 3))
        w2 = rng.normal(0, 2, (3, 48))
        w, _ = senet_compose(v, w1, w2)
        assert np.all(w > 0) and np.all(w < 1)

    def test_hand_computed_small_case(self):
        # squeeze: v=([2,4],[6,8]) -> s=(3,7); oracle: explicit arithmetic
        v = np.array([[2.0, 4.0], [6.0, 8.0]])
        w1 = np.array([[0.5, -0.25], [1.0, 0.5]])   # h1=2, h=2
        w2 = np.array([[0.2, -0.4], [-0.6, 0.8]])
        s = [3.0, 7.0]
        hidden = [max(0.5 * s[0] - 0.25 * s[1], 0.0), max(1.0 * s[0] + 0.5 * s[1], 0.0)]
        pre = [0.2 * hidden[0] - 0.4 * hidden[1], -0.6 * hidden[0] + 0.8 * hidden[1]]
        expected = [1.0 / (1.0 + math.exp(-p)) for p in pre]
        got, out = senet_compose(v, w1, w2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert out == pytest.approx([expected[0] * 2.0 + expected[1] * 6.0,
                                     expected[0] * 4.0 + expected[1] * 8.0], abs=1e-12)

    def test_dim_mismatch_rejected(self):
        # three hashed vectors against a net built for two
        with pytest.raises(ValueError, match="input dim 3 != model input dim 2"):
            senet_compose(np.zeros((3, 4)), np.zeros((8, 2)), np.zeros((2, 8)))


def _grad_setup(kind, rng, **kwargs):
    n, k = 9, 5
    base = rng.normal(0, 1, (n, k))
    if kind == "rqvae":
        kwargs.setdefault("levels", 2)
        kwargs.setdefault("d_r", 4)
        kwargs["codes"] = rng.integers(0, 4, (n, kwargs["levels"]))
    adapter = make_adapter(kind, n, k, RngStream(11), init="base_distribution",
                           dtype=np.float64, **kwargs)
    items = rng.integers(0, n, 7)
    target = rng.normal(0, 1, (7, k))
    return base, adapter, items, target


@pytest.mark.parametrize("kind,kwargs", [
    ("full", {}),
    ("lora", {"rank": 2}),
    ("hash", {"d_h": 8, "n_hashes": 2}),
    ("hash", {"d_h": 8, "n_hashes": 3, "senet": True, "expansion": 4}),
    ("rqvae", {}),
])
class TestAdapterGradients:
    def test_matches_finite_differences(self, kind, kwargs, rng):
        base, adapter, items, target = _grad_setup(kind, rng, **kwargs)

        def loss():
            out, _ = adapter.compose(base, items)
            return float(((out - target) ** 2).sum())

        out, cache = adapter.compose(base, items)
        grads = adapter.grads(cache, 2.0 * (out - target))
        fd = central_diff(loss, adapter.trainable())
        assert len(grads) == len(fd)
        for analytic, numeric in zip(grads, fd):
            assert relative_error(analytic, numeric) < 1e-4


class TestGradStructure:
    def test_hash_collision_accumulates(self):
        # both hash functions send item 0 to row 3 (a differs, b equal mod p)
        adapter = hash_adapter(np.zeros((8, 4), dtype=np.float64),
                               hash_a=np.array([1, 2]), hash_b=np.array([3, 3]), p=64)
        base = np.zeros((1, 4), dtype=np.float64)
        out, cache = adapter.compose(base, [0])
        g = np.ones((1, 4))
        (dtable,) = adapter.grads(cache, g)
        assert np.allclose(dtable[3], 2 * (g[0] / 2))   # = g
        assert not dtable[np.arange(8) != 3].any()

    def test_rqvae_unselected_rows_zero(self, rng):
        books = rng.normal(0, 1, (2, 6, 4))
        codes = np.array([[1, 4], [1, 2]])
        adapter = RqVaeAdapter(books, codes)
        base = np.zeros((2, 4))
        out, cache = adapter.compose(base, [0, 1])
        (d,) = adapter.grads(cache, np.ones((2, 4)))
        assert d[0, 1].any() and d[1, 4].any() and d[1, 2].any()
        untouched = [(0, j) for j in (0, 2, 3, 4, 5)] + [(1, j) for j in (0, 1, 3, 5)]
        for lvl, row in untouched:
            assert not d[lvl, row].any()

    def test_lora_grad_closed_form(self, rng):
        base = rng.normal(0, 1, (4, 3))
        adapter = make_adapter("lora", 4, 3, RngStream(2), rank=2, dtype=np.float64)
        adapter.b += rng.normal(0, 1, adapter.b.shape)
        items = np.array([2])
        g = rng.normal(0, 1, (1, 3))
        _, cache = adapter.compose(base, items)
        da, db = adapter.grads(cache, g)
        assert np.allclose(da[2], adapter.b.T @ g[0])
        assert np.allclose(db, np.outer(g[0], adapter.a[2]))


class TestGradsKeepTheirBytes:
    """`grads` through `numerics.scatter_rows` and the fixed map `idx` gives
    the bytes of the formulas they replaced, kept here as the reference:
    hash hashed the global ids and scattered over (B, h) with one
    `np.add.at`; rqvae scattered level by level into each codebook."""

    @pytest.mark.parametrize("senet", [False, True], ids=["mean", "senet"])
    def test_hash(self, senet, rng):
        n, k = 40, 6
        adapter = make_adapter("hash", n, k, RngStream(3), d_h=8, n_hashes=3, p=11,
                               senet=senet, init="base_distribution")
        items = rng.integers(0, n, 64)                   # repeats collide on rows
        g = rng.normal(0, 1, (64, k)).astype(np.float32)
        _, cache = adapter.compose(base_table(n, k), items)
        got = adapter.grads(cache, g)

        idx = hash_index(items[:, None], adapter.hash_a, adapter.hash_b, adapter.p, 8)
        v = adapter.table[idx]
        if senet:
            dw = np.einsum("bk,bhk->bh", g, v)
            _, _, ds = mlp_backward(cache["net"], cache["net_cache"], dw)
            dv = cache["w"][:, :, None] * g[:, None, :] + ds[:, :, None] / k
        else:
            dv = np.broadcast_to(g[:, None, :] / 3, v.shape)
        dtable = np.zeros_like(adapter.table)
        np.add.at(dtable, idx, dv)
        assert got[0].dtype == dtable.dtype and got[0].tobytes() == dtable.tobytes()

    def test_rqvae(self, rng):
        n, k, levels, d_r = 30, 5, 3, 4
        codes = rng.integers(0, d_r, (n, levels))
        adapter = make_adapter("rqvae", n, k, RngStream(3), levels=levels, d_r=d_r,
                               codes=codes, init="base_distribution")
        items = rng.integers(0, n, 64)
        g = rng.normal(0, 1, (64, k)).astype(np.float32)
        _, cache = adapter.compose(base_table(n, k), items)
        (got,) = adapter.grads(cache, g)

        d = np.zeros_like(adapter.codebooks)
        for j in range(levels):
            np.add.at(d[j], codes[items, j], g)
        assert got.shape == d.shape and got.tobytes() == d.tobytes()


class TestCopy:
    @pytest.mark.parametrize("kind,kwargs", [
        ("full", {}),
        ("lora", {"rank": 2}),
        ("hash", {"d_h": 8, "n_hashes": 2, "p": 11}),
        ("hash", {"d_h": 8, "n_hashes": 3, "p": 11, "senet": True, "expansion": 2}),
        ("rqvae", {"levels": 2, "d_r": 4}),
    ])
    def test_row_copy_is_the_rows_of_the_whole(self, kind, kwargs, rng):
        n, k = 12, 4
        if kind == "rqvae":
            kwargs["codes"] = rng.integers(0, 4, (n, 2))
        adapter = make_adapter(kind, n, k, RngStream(4), init="base_distribution", **kwargs)
        base, rows, local = base_table(n, k), np.array([1, 4, 5, 9]), np.array([0, 3, 3, 2])
        copy = adapter.copy(rows)
        want, _ = adapter.compose(base, rows[local])
        got, _ = copy.compose(base[rows], local)
        assert got.tobytes() == want.tobytes()
        # the fixed maps hold the same rows, so rqvae's codes and idx agree
        for name in adapter.item_maps + (("idx",) if kind == "rqvae" else ()):
            assert np.array_equal(getattr(copy, name), getattr(adapter, name)[rows])
        for t, whole in zip(copy.trainable(), adapter.trainable()):
            assert not np.shares_memory(t, whole)

    def test_nothing_hashes_an_id_after_construction(self, monkeypatch):
        adapter = make_adapter("hash", 20, 4, RngStream(0), d_h=8, n_hashes=2, p=11,
                               senet=True)
        want = adapter.distinct_index_tuples()

        def refuse(*args):
            raise AssertionError("hashed after construction")

        monkeypatch.setattr(strategies, "hash_index", refuse)
        copy = adapter.copy(np.array([3, 7]))
        _, cache = copy.compose(base_table(20, 4)[[3, 7]], [0, 1, 1])
        copy.grads(cache, np.ones((3, 4), dtype=np.float32))
        assert adapter.distinct_index_tuples() == want


class TestSerialization:
    def test_lora_ml1m_bytes(self):
        adapter = make_adapter("lora", 3706, 32, RngStream(0), rank=4)
        payload = serialize_upload(adapter)
        assert len(payload) == 4 * (3706 + 32) * 4 == 59_808

    def test_rqvae_bytes(self):
        codes = np.zeros((10, 4), dtype=np.int64)
        adapter = make_adapter("rqvae", 10, 32, RngStream(0), levels=4, d_r=256,
                               codes=codes)
        assert len(serialize_upload(adapter)) == 256 * 4 * 32 * 4 == 131_072

    def test_full_ml1m_bytes(self):
        adapter = make_adapter("full", 3706, 32, RngStream(0))
        assert len(serialize_upload(adapter)) == 3706 * 32 * 4 == 474_368

    def test_round_trip_is_lossless_and_idempotent(self, rng):
        adapter = make_adapter("hash", 50, 8, RngStream(3), d_h=16, n_hashes=2,
                               senet=True, init="base_distribution")
        for t in adapter.trainable():
            t += rng.normal(0, 1, t.shape).astype(np.float32)
        payload = serialize_upload(adapter)
        # the layout: each trainable tensor as little-endian float32, in order
        flat = np.frombuffer(payload, dtype="<f4")
        splits = np.cumsum([t.size for t in adapter.trainable()])
        assert splits[-1] == flat.size
        tensors = [part.reshape(t.shape) for part, t in
                   zip(np.split(flat, splits[:-1]), adapter.trainable())]
        for a, b in zip(adapter.trainable(), tensors):
            assert np.array_equal(a, b)
        adapter.set_trainable(tensors)
        assert serialize_upload(adapter) == payload


class TestCommCost:
    def test_matches_actual_payload_for_random_configs(self):
        rng = np.random.default_rng(7)
        streams = RngStream(9)
        for trial in range(20):
            n = int(rng.integers(5, 400))
            k = int(rng.integers(2, 48))
            rank = int(rng.integers(1, min(k, 8)))
            d_h = int(rng.integers(1, 64))
            h = int(rng.integers(1, 5))
            exp = int(rng.integers(1, 20))
            levels = int(rng.integers(1, 5))
            d_r = int(rng.integers(1, 64))
            codes = rng.integers(0, d_r, (n, levels))
            cases = [
                ("full", {}, make_adapter("full", n, k, streams.child("f", trial))),
                ("lora", {"rank": rank},
                 make_adapter("lora", n, k, streams.child("l", trial), rank=rank)),
                ("hash", {"d_h": d_h, "n_hashes": h},
                 make_adapter("hash", n, k, streams.child("h", trial),
                              d_h=d_h, n_hashes=h, p=1 << 20)),
                ("hash", {"d_h": d_h, "n_hashes": h, "senet": True, "expansion": exp},
                 make_adapter("hash", n, k, streams.child("hs", trial), d_h=d_h,
                              n_hashes=h, senet=True, expansion=exp, p=1 << 20)),
                ("rqvae", {"levels": levels, "d_r": d_r},
                 make_adapter("rqvae", n, k, streams.child("r", trial),
                              levels=levels, d_r=d_r, codes=codes)),
            ]
            for kind, kwargs, adapter in cases:
                assert comm_cost(kind, n, k, **kwargs) == len(serialize_upload(adapter))

    def test_hash_mean_example(self):
        assert comm_cost("hash", 3706, 32, d_h=512, n_hashes=2) == 512 * 32 * 4 == 65_536

    def test_senet_overhead_example(self):
        mean = comm_cost("hash", 3706, 32, d_h=512, n_hashes=2)
        se = comm_cost("hash", 3706, 32, d_h=512, n_hashes=2, senet=True, expansion=16)
        assert se - mean == 512


class TestRepresentationCapacity:
    def test_rqvae_power(self):
        assert representation_capacity("rqvae", 10, d_r=256, levels=3) == 16_777_216

    def test_hash_multiset_count_matches_enumeration(self):
        # oracle: enumerate multisets of size h over d_h symbols
        from itertools import combinations_with_replacement
        for d_h, h in [(4, 2), (3, 3), (5, 1)]:
            count = sum(1 for _ in combinations_with_replacement(range(d_h), h))
            assert representation_capacity("hash", 99, d_h=d_h, n_hashes=h) == count
        assert representation_capacity("hash", 99, d_h=4, n_hashes=2) == 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_measured_hash_tuples_depend_on_the_modulus(self, seed):
        # 512 divides 4096, so each hash reads only id mod 512
        with pytest.warns(UserWarning, match="p=4096"):
            composite = make_adapter("hash", 3706, 4, RngStream(seed), d_h=512,
                                     n_hashes=2, p=4096)
        assert composite.distinct_index_tuples() <= 512
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prime = make_adapter("hash", 3706, 4, RngStream(seed), d_h=512,
                                 n_hashes=2, p=4093)
        assert prime.distinct_index_tuples() > 512

    def test_lora_and_full_equal_item_count(self):
        assert representation_capacity("lora", 3706) == 3706
        assert representation_capacity("full", 42) == 42

    def test_big_counts_do_not_overflow(self):
        cap = representation_capacity("rqvae", 1, d_r=512, levels=6)
        assert cap == 512 ** 6  # python ints are exact


class TestFreezeDiscipline:
    def test_codes_and_hash_params_immutable(self, rng):
        codes = rng.integers(0, 4, (6, 2))
        adapter = make_adapter("rqvae", 6, 4, RngStream(0), levels=2, d_r=4, codes=codes)
        with pytest.raises(ValueError):
            adapter.codes[0, 0] = 1
        before = (adapter.codes.tobytes(),)
        base = np.zeros((6, 4), dtype=np.float32)
        out, cache = adapter.compose(base, [0, 1])
        adapter.grads(cache, np.ones((2, 4), dtype=np.float32))
        assert adapter.codes.tobytes() == before[0]

    def test_frozen_base_rejects_writes(self):
        table = base_table(4, 3)
        base = FullEmbeddingTable(table)
        base.freeze()
        with pytest.raises(ValueError):
            base.table[0, 0] = 1.0
        # nor can it be replaced as the warm-up's trainable tensor, or stepped
        with pytest.raises(RuntimeError, match="frozen"):
            base.set_trainable([table + 1])
        with pytest.raises(ValueError, match="read-only"):
            sgd_step(base.trainable(), [np.ones_like(table)], 0.1)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            RqVaeAdapter(np.zeros((2, 4, 3), dtype=np.float32), np.array([[0, 4]]))


class TestCheckpoint:
    @pytest.mark.parametrize("kind,kwargs", [
        ("full", {}),
        ("lora", {"rank": 3}),
        ("hash", {"d_h": 8, "n_hashes": 2}),
        ("hash", {"d_h": 8, "n_hashes": 2, "senet": True, "expansion": 4}),
        ("rqvae", {"levels": 2, "d_r": 4}),
    ])
    def test_round_trip(self, kind, kwargs, tmp_path, rng):
        n, k = 7, 5
        if kind == "rqvae":
            kwargs["codes"] = rng.integers(0, 4, (n, 2))
        adapter = make_adapter(kind, n, k, RngStream(4), init="base_distribution",
                               **kwargs)
        table = base_table(n, k, seed=6)
        if kind == "full":
            base = FullEmbeddingTable(adapter.table)
        else:
            base = FullEmbeddingTable(table)
        path = tmp_path / "model.fpeb"
        save_checkpoint(path, base, adapter)
        assert path.read_bytes()[:4] == b"FPEB"
        base2, adapter2 = load_checkpoint(path)
        assert np.array_equal(base2.table, base.table)
        assert type(adapter2) is type(adapter)
        for a, b in zip(adapter.trainable(), adapter2.trainable()):
            assert np.array_equal(a, b)
        if kind == "hash":
            assert np.array_equal(adapter2.hash_a, adapter.hash_a)
            assert np.array_equal(adapter2.hash_b, adapter.hash_b)
            assert adapter2.p == adapter.p
        if kind == "rqvae":
            assert np.array_equal(adapter2.codes, adapter.codes)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.fpeb"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    @staticmethod
    def checkpoint_bytes(kind, tmp_path, **kwargs):
        n, k = 7, 5
        if kind == "rqvae":
            kwargs["codes"] = np.arange(2 * n).reshape(n, 2) % 4
        adapter = make_adapter(kind, n, k, RngStream(4), init="base_distribution", **kwargs)
        base = FullEmbeddingTable(adapter.table if kind == "full" else base_table(n, k))
        path = tmp_path / "model.fpeb"
        save_checkpoint(path, base, adapter)
        return path.read_bytes()

    @pytest.mark.parametrize("kind,kwargs", [
        ("full", {}),
        ("lora", {"rank": 3}),
        ("hash", {"d_h": 8, "n_hashes": 2, "p": 11}),
        ("hash", {"d_h": 8, "n_hashes": 2, "p": 11, "senet": True, "expansion": 4}),
        ("rqvae", {"levels": 2, "d_r": 4}),
    ])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_extended_checkpoint_rejected(self, kind, kwargs, tmp_path, data):
        good = self.checkpoint_bytes(kind, tmp_path, **kwargs)
        if data.draw(st.booleans(), label="truncate"):
            bad = good[:data.draw(st.integers(0, len(good) - 1), label="length")]
        else:
            bad = good + data.draw(st.binary(min_size=1, max_size=64), label="extra")
        path = tmp_path / "bad.fpeb"
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut,section", [(4, "header"), (20, "base table"),
                                             (-1, "adapter")])
    def test_truncation_names_the_section(self, tmp_path, cut, section):
        good = self.checkpoint_bytes("lora", tmp_path, rank=3)
        bad = good[:cut] if cut > 0 else good[:-4 * 3 * 5 - 1]
        (tmp_path / "bad.fpeb").write_bytes(bad)
        with pytest.raises(ValueError, match=f"truncated in the {section}"):
            load_checkpoint(tmp_path / "bad.fpeb")

    def test_trailing_bytes_rejected(self, tmp_path):
        (tmp_path / "bad.fpeb").write_bytes(self.checkpoint_bytes("full", tmp_path) + b"\0")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_checkpoint(tmp_path / "bad.fpeb")

    def test_out_of_range_hash_parameters_and_codes_rejected(self, tmp_path):
        # hash: magic, u16 version, u8 tag, n, k, then d_h, h, p, h1 and a[0]
        buf = bytearray(self.checkpoint_bytes("hash", tmp_path, d_h=8, n_hashes=2, p=11))
        buf[31:35] = (11).to_bytes(4, "little")
        (tmp_path / "bad.fpeb").write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="hash parameters"):
            load_checkpoint(tmp_path / "bad.fpeb")
        # p = 0: refused by the adapter, with no warning from building its map
        buf = bytearray(self.checkpoint_bytes("hash", tmp_path, d_h=8, n_hashes=2, p=11))
        buf[23:27] = bytes(4)
        (tmp_path / "bad.fpeb").write_bytes(bytes(buf))
        with warnings.catch_warnings(), pytest.raises(ValueError, match="hash parameters"):
            warnings.simplefilter("error")
            load_checkpoint(tmp_path / "bad.fpeb")
        # rqvae: ..., n, k, then levels, d_r and codes[0, 0]
        buf = bytearray(self.checkpoint_bytes("rqvae", tmp_path, levels=2, d_r=4))
        buf[23:27] = (4).to_bytes(4, "little")
        (tmp_path / "bad.fpeb").write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="codes"):
            load_checkpoint(tmp_path / "bad.fpeb")
