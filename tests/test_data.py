import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedembed.data import (FormatError, InteractionLog, attach_eval_negatives,
                           build_item_features, choice_excluding, leave_one_out_split,
                           load_interactions, save_id_maps, synthesize_interactions)
from fedembed.rng import RngStream

ML1M_RATINGS = os.environ.get("ML1M_RATINGS", "data/ml-1m/ratings.dat")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoading:
    def test_two_line_toy_file(self, tmp_path):
        p = write(tmp_path, "toy.dat", "0::0::5::10\n0::1::4::20\n")
        log = load_interactions(p, "ml1m")
        assert log.n_users == 1 and log.n_items == 2
        assert len(log) == 2 == log.n_users * log.n_items     # sparsity 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = write(tmp_path, "bad.dat", "0::0::5::10\n0::1::oops\n")
        with pytest.raises(FormatError, match=":2:"):
            load_interactions(p, "ml1m")

    def test_non_numeric_ml1m_field_rejected(self, tmp_path):
        for text in ("0::0::5::ten\n", "0::0::five::10\n"):    # timestamp, rating
            p = write(tmp_path, "bad.dat", text)
            with pytest.raises(FormatError, match=":1:"):
                load_interactions(p, "ml1m")

    def test_duplicates_keep_latest_timestamp(self, tmp_path):
        p = write(tmp_path, "dup.dat", "0::0::5::10\n0::0::1::30\n0::0::3::20\n")
        log = load_interactions(p, "ml1m")
        assert len(log) == 1
        assert log.timestamps[0] == 30

    def test_amazon_csv_string_ids(self, tmp_path):
        p = write(tmp_path, "a.csv", "userB,itemX,5.0,100\nuserA,itemY,3.0,50\n")
        log = load_interactions(p, "amazon_csv")
        assert log.n_users == 2 and log.n_items == 2
        assert log.user_ids == ["userA", "userB"]   # sorted original ids
        assert log.item_ids == ["itemX", "itemY"]

    def test_id_remap_is_a_bijection_and_persisted(self, tmp_path):
        p = write(tmp_path, "toy.dat", "7::30::5::10\n3::30::4::20\n3::9::1::5\n")
        log = load_interactions(p, "ml1m")
        assert sorted(log.user_ids) == ["3", "7"]
        assert len(set(log.user_ids)) == log.n_users
        assert len(set(log.item_ids)) == log.n_items
        save_id_maps(log, tmp_path / "out")
        lines = (tmp_path / "out" / "item_ids.txt").read_text().splitlines()
        assert lines == ["0\t9", "1\t30"]

    def test_unknown_format_rejected(self, tmp_path):
        p = write(tmp_path, "toy.dat", "0::0::5::10\n")
        with pytest.raises(FormatError, match="format"):
            load_interactions(p, "csv")


class TestSplit:
    def _log(self, tmp_path):
        text = ("0::10::5::10\n0::11::5::20\n0::12::5::30\n"
                "1::10::5::7\n"
                "2::11::5::3\n2::12::5::1\n")
        return load_interactions(write(tmp_path, "l.dat", text), "ml1m")

    def test_latest_timestamp_held_out(self, tmp_path):
        log = self._log(tmp_path)
        split = leave_one_out_split(log)
        u0 = list(split.test_users).index(0)
        # user 0's latest interaction is original item 12
        assert log.item_ids[split.test_items[u0]] == "12"

    def test_single_interaction_user_stays_in_training(self, tmp_path):
        log = self._log(tmp_path)
        split = leave_one_out_split(log)
        assert 1 not in set(split.test_users.tolist())
        assert [log.item_ids[i] for i in split.train_positives[1]] == ["10"]

    def test_test_count_equals_users_with_two_plus_interactions(self, tmp_path):
        # oracle: count from the raw structure
        log = self._log(tmp_path)
        counts = np.bincount(log.users, minlength=log.n_users)
        split = leave_one_out_split(log)
        assert len(split.test_users) == int((counts >= 2).sum())

    def test_disjointness_for_every_user(self):
        log = synthesize_interactions(50, 30, seed=3)
        split = leave_one_out_split(log)
        attach_eval_negatives(split, 10, RngStream(4))
        for u, item in zip(split.test_users, split.test_items):
            u = int(u)
            assert item not in split.train_positives[u]
            negs = split.negatives[u]
            assert not np.intersect1d(negs, split.all_positives[u]).size
            assert len(negs) == len(set(negs.tolist()))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(0, 3)),
                    max_size=40, unique_by=lambda r: r[:2]))
    def test_latest_held_out_in_any_log_order_ties_to_the_larger_item(self, rows):
        # rows: (user, item, timestamp) in log order, timestamps often tied
        users, items, stamps = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
        log = InteractionLog(users, items, stamps, 6, 8, [str(u) for u in range(6)],
                             [str(i) for i in range(8)])
        split = leave_one_out_split(log)
        test = dict(zip(split.test_users.tolist(), split.test_items.tolist()))
        for u in range(6):
            mine = sorted((t, i) for user, i, t in rows if user == u)
            held = mine.pop()[1] if len(mine) >= 2 else None
            assert test.get(u) == held
            assert split.train_positives[u].tolist() == sorted(i for _, i in mine)
            assert split.all_positives[u].tolist() == sorted(
                i for user, i, _ in rows if user == u)
        assert split.test_users.tolist() == sorted(test)

    def test_split_deterministic(self):
        log = synthesize_interactions(30, 20, seed=5)
        s1 = leave_one_out_split(log)
        s2 = leave_one_out_split(log)
        assert np.array_equal(s1.test_items, s2.test_items)
        attach_eval_negatives(s1, 5, RngStream(7))
        attach_eval_negatives(s2, 5, RngStream(7))
        for u in s1.negatives:
            assert np.array_equal(s1.negatives[u], s2.negatives[u])


@st.composite
def exclusion_draws(draw):
    """(n, sorted unique excluded ids, size, seed, replace) with a legal size."""
    n = draw(st.integers(min_value=1, max_value=300))
    excluded = np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))),
                        dtype=np.int64)
    replace = draw(st.booleans())
    remaining = n - len(excluded)
    high = remaining if not replace else (0 if remaining == 0 else 3 * n)
    size = draw(st.integers(min_value=0, max_value=high))
    return n, excluded, size, draw(st.integers(0, 2**32 - 1)), replace


class TestChoiceExcluding:
    @settings(max_examples=300, deadline=None)
    @given(exclusion_draws())
    @example((40, np.empty(0, dtype=np.int64), 40, 3, False))      # nothing excluded
    @example((40, np.arange(1, 40), 1, 5, False))                  # |P| = n - 1
    @example((40, np.arange(1, 40), 7, 5, True))
    @example((9, np.array([0, 4, 8]), 6, 11, False))               # size = n - |P|
    @example((9, np.array([0, 4, 8]), 0, 11, False))               # size 0
    @example((9, np.array([0, 4, 8]), 0, 11, True))
    @example((20000, np.arange(0, 20000, 3), 99, 2, False))        # Floyd's branch
    def test_equals_draw_from_the_candidate_pool(self, case):
        n, excluded, size, seed, replace = case
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pool = np.setdiff1d(np.arange(n, dtype=np.int64), excluded)
        want = ref_rng.choice(pool, size=size, replace=replace)
        got = choice_excluding(n, excluded, size, rng, replace=replace)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # the same number of draws was consumed
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestNegativeSampling:
    """Evaluation negatives: `choice_excluding` without replacement."""

    def test_forced_single_candidate(self):
        got = choice_excluding(3, np.array([0, 1]), 1, np.random.default_rng(0),
                               replace=False)
        assert got.tolist() == [2]

    def test_count_zero(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        got = choice_excluding(3, np.array([0]), 0, rng, replace=False)
        assert got.size == 0 and got.dtype == np.int64
        assert rng.bit_generator.state == before      # no draw consumed

    def test_over_draw_rejected(self):
        with pytest.raises(ValueError, match="Cannot take a larger sample"):
            choice_excluding(3, np.array([0, 1]), 2, np.random.default_rng(0), replace=False)

    def test_full_ranking_candidates_are_every_non_interacted_item(self):
        log = synthesize_interactions(40, 25, seed=2)
        split = leave_one_out_split(log)
        attach_eval_negatives(split, -1, RngStream(4))
        assert sorted(split.negatives) == sorted(int(u) for u in split.test_users)
        for u, negs in split.negatives.items():
            want = sorted(set(range(25)) - set(split.all_positives[u].tolist()))
            assert negs.tolist() == want

    def test_uniform_frequencies(self):
        # 8e5 sampled items keep the max per-item deviation well under 5%
        g = RngStream(1).generator("neg_uniformity")
        pos = np.array([42])
        counts = np.zeros(100)
        calls, per = 80_000, 10
        for _ in range(calls):
            counts[choice_excluding(100, pos, per, g, replace=False)] += 1
        assert counts[42] == 0
        expected = calls * per / 99
        rel = np.abs(counts[np.arange(100) != 42] - expected) / expected
        assert rel.max() < 0.05


class TestItemFeatures:
    def test_file_features_width(self, tmp_path):
        log = load_interactions(
            write(tmp_path, "l.dat", "0::0::5::1\n0::1::5::2\n"), "ml1m")
        rows = "\n".join(f"{i}\t" + ",".join("0.5" for _ in range(768)) for i in (0, 1))
        feats = build_item_features(log, "file", path=write(tmp_path, "f.tsv", rows))
        assert feats.shape == (2, 768) and feats.dtype == np.float32

    def test_missing_item_vector_rejected(self, tmp_path):
        log = load_interactions(
            write(tmp_path, "l.dat", "0::0::5::1\n0::1::5::2\n"), "ml1m")
        with pytest.raises(FormatError, match="missing"):
            build_item_features(log, "file", path=write(tmp_path, "f.tsv", "0\t1.0,2.0\n"))

    # a value past float32 range must reach the loader's own check, not warn first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "-inf", "1e39"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        log = load_interactions(
            write(tmp_path, "l.dat", "0::0::5::1\n0::1::5::2\n"), "ml1m")
        path = write(tmp_path, "f.tsv", f"0\t1.0,2.0\n1\t3.0,{value}\n")
        with pytest.raises(FormatError, match=r"f\.tsv:2: non-finite"):
            build_item_features(log, "file", path=path)

    def test_synthetic_deterministic(self):
        log = synthesize_interactions(40, 25, seed=11)
        a = build_item_features(log, "synthetic", k_p=32, seed=2)
        b = build_item_features(log, "synthetic", k_p=32, seed=2)
        assert np.array_equal(a, b) and a.dtype == np.float32
        c = build_item_features(log, "synthetic", k_p=32, seed=3)
        assert not np.array_equal(a, c)

    def test_within_cluster_similarity_exceeds_cross(self):
        log = synthesize_interactions(120, 60, seed=8, n_item_clusters=4)
        feats = build_item_features(log, "synthetic", k_p=48, seed=8)
        v = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        sim = v @ v.T
        # oracle clusters: recompute like the generator lays items out
        labels = np.searchsorted(np.linspace(0, 60, 5).astype(int), np.arange(60),
                                 side="right") - 1
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(60, dtype=bool)
        within = sim[same & off_diag].mean()
        cross = sim[~same].mean()
        assert within > cross


@pytest.mark.skipif(not os.path.exists(ML1M_RATINGS),
                    reason="MovieLens-1M ratings file not present")
def test_ml1m_reference_statistics():
    log = load_interactions(ML1M_RATINGS, "ml1m")
    assert log.n_users == 6040
    assert log.n_items == 3706
    assert len(log) == 1_000_209
    assert round(100 * (1 - len(log) / (log.n_users * log.n_items)), 2) == 95.53


class TestSynthesizer:
    def test_shapes_and_determinism(self):
        a = synthesize_interactions(20, 15, seed=1)
        b = synthesize_interactions(20, 15, seed=1)
        assert np.array_equal(a.items, b.items)
        assert a.n_users == 20 and a.n_items == 15
        assert len(a) > 0

    def test_no_duplicate_pairs(self):
        log = synthesize_interactions(30, 25, seed=2)
        pairs = set(zip(log.users.tolist(), log.items.tolist()))
        assert len(pairs) == len(log)
