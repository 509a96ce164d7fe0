import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedembed.backbones import Backbone, UserState, make_backbone, make_user_state
from fedembed.data import attach_eval_negatives, leave_one_out_split, synthesize_interactions
from fedembed.metrics import (evaluate, hr_at_k, ndcg_at_k, rank_from_scores,
                              rank_test_item, top_k_items)
from fedembed.rng import RngStream
from fedembed.strategies import make_adapter


class TestRank:
    def test_top_scoring_test_item_ranks_first(self):
        assert rank_from_scores(5.0, np.array([1.0, 2.0, 3.0])) == 1

    def test_all_tied_is_pessimistic(self):
        assert rank_from_scores(1.0, np.full(99, 1.0)) == 100

    def test_middle_rank(self):
        assert rank_from_scores(2.5, np.array([1.0, 2.0, 3.0, 4.0])) == 3

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.normal(0, 1, 50)
            t = float(rng.normal(0, 1))
            r1 = rank_from_scores(t, s)
            r2 = rank_from_scores(math.tanh(t) if False else 3.0 * t + 1.0,
                                  3.0 * s + 1.0)
            assert r1 == r2

    def test_nan_test_score_ranks_last(self):
        assert rank_from_scores(float("nan"), np.zeros(99)) == 100

    def test_nan_candidates_count_against_the_test_item(self):
        assert rank_from_scores(0.0, np.full(99, np.nan)) == 100
        assert rank_from_scores(0.0, np.array([np.nan, -1.0, 1.0])) == 3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=120))
    def test_finite_rank_is_one_plus_higher_plus_tied(self, test, negatives):
        s = np.array(negatives, dtype=np.float32)
        higher = int((s > test).sum())
        tied = int((s == test).sum())
        assert rank_from_scores(float(test), s) == 1 + higher + tied

    def test_random_scores_hr10_near_one_tenth(self):
        # held-out item uniform among 100 candidates -> P(rank <= 10) = 0.10
        rng = np.random.default_rng(42)
        hits = 0
        trials = 10_000
        for _ in range(trials):
            rank = rank_from_scores(rng.normal(), rng.normal(0, 1, 99))
            hits += rank <= 10
        assert abs(hits / trials - 0.10) <= 0.01


class TestPointMetrics:
    def test_rank_one_is_ideal(self):
        assert hr_at_k(1, 10) == 1.0
        assert ndcg_at_k(1, 10) == 1.0

    def test_rank_three_ndcg(self):
        assert ndcg_at_k(3, 10) == pytest.approx(0.5)   # 1 / log2(4)

    def test_beyond_cutoff_scores_zero(self):
        assert hr_at_k(11, 10) == 0.0
        assert ndcg_at_k(11, 10) == 0.0


def _sim_parts(seed=0, users=30, items=25):
    log = synthesize_interactions(users, items, seed=seed)
    split = leave_one_out_split(log)
    attach_eval_negatives(split, 10, RngStream(seed))
    streams = RngStream(seed + 100)
    base = np.random.default_rng(seed).normal(0, 1, (items, 8)).astype(np.float32)
    adapter = make_adapter("full", items, 8, streams)
    adapter.table[:] = base
    bb = Backbone("fedmf")
    states = {u: make_user_state("fedmf", 8, u, streams) for u in range(users)}
    return log, split, base, adapter, bb, states


class TestEvaluate:
    def test_matches_brute_force_recomputation(self):
        # oracle: raw score matrices + python loops, nothing shared with evaluate
        for seed in range(5):
            log, split, base, adapter, bb, states = _sim_parts(seed=seed)
            got = evaluate(bb, states, adapter, base, split, ks=(10, 20))

            hr10 = hr20 = n10 = n20 = 0.0
            count = 0
            for u, item in zip(split.test_users, split.test_items):
                u, item = int(u), int(item)
                cands = [item] + split.negatives[u].tolist()
                scores = [float(states[u].embedding @ adapter.table[c]) for c in cands]
                rank = 1 + sum(1 for s in scores[1:] if s >= scores[0])
                count += 1
                hr10 += rank <= 10
                hr20 += rank <= 20
                n10 += 1.0 / math.log2(rank + 1) if rank <= 10 else 0.0
                n20 += 1.0 / math.log2(rank + 1) if rank <= 20 else 0.0
            assert got["h@10"] == pytest.approx(round(100 * hr10 / count, 2))
            assert got["h@20"] == pytest.approx(round(100 * hr20 / count, 2))
            assert got["n@10"] == pytest.approx(round(100 * n10 / count, 2))
            assert got["n@20"] == pytest.approx(round(100 * n20 / count, 2))

    def test_perfect_oracle_scores_100(self):
        log, split, base, adapter, bb, states = _sim_parts(seed=3)
        # unit item vectors; a user embedding equal to its test item's vector
        # is uniquely maximized at that item
        table = np.random.default_rng(0).normal(0, 1, adapter.table.shape)
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        adapter.table[:] = table.astype(np.float32)
        for u, item in zip(split.test_users, split.test_items):
            states[int(u)].embedding = adapter.table[int(item)].copy()
        got = evaluate(bb, states, adapter, adapter.table, split, ks=(10, 20))
        assert got == {"n@10": 100.0, "h@10": 100.0, "n@20": 100.0, "h@20": 100.0}

    def test_metrics_monotone_in_cutoff(self):
        for seed in range(3):
            log, split, base, adapter, bb, states = _sim_parts(seed=seed)
            got = evaluate(bb, states, adapter, base, split, ks=(10, 20))
            assert got["h@20"] >= got["h@10"]
            assert got["n@20"] >= got["n@10"]

    def test_score_scale_invariance(self):
        log, split, base, adapter, bb, states = _sim_parts(seed=1)
        before = evaluate(bb, states, adapter, base, split, ks=(10, 20))
        scaled = {u: UserState(embedding=3.0 * s.embedding) for u, s in states.items()}
        after = evaluate(bb, scaled, adapter, base, split, ks=(10, 20))
        assert before == after

    def test_evaluation_does_not_mutate_model(self):
        log, split, base, adapter, bb, states = _sim_parts(seed=2)
        bb2 = make_backbone("fedncf", 8, RngStream(0))
        states2 = {u: make_user_state("fedncf", 8, u, RngStream(0)) for u in range(30)}

        def digest():
            h = hashlib.sha256()
            for t in adapter.trainable():
                h.update(t.tobytes())
            for w in bb2.mlp.weights + bb2.mlp.biases:
                h.update(w.tobytes())
            for u in sorted(states2):
                h.update(states2[u].embedding.tobytes())
            return h.hexdigest()

        before = digest()
        evaluate(bb2, states2, adapter, base, split, ks=(10, 20))
        assert digest() == before

    def test_overflowing_scores_rank_last(self):
        # finite parameters whose float32 dot product is inf - inf = nan; every
        # user has all 10 negatives, so the nan test item ranks 11th
        log, split, base, adapter, bb, states = _sim_parts(seed=2, items=200)
        adapter.table[:] = 0.0
        adapter.table[:, :2] = 1e38
        for s in states.values():
            s.embedding[:] = 0.0
            s.embedding[:2] = [1e38, -1e38]
        with np.errstate(over="ignore", invalid="ignore"):
            got = evaluate(bb, states, adapter, adapter.table, split, ks=(10,))
        assert got == {"n@10": 0.0, "h@10": 0.0}

    def test_missing_candidates_rejected(self):
        log, split, base, adapter, bb, states = _sim_parts(seed=2)
        split.negatives.clear()
        with pytest.raises(ValueError, match="candidates"):
            evaluate(bb, states, adapter, base, split)


class TestRankTestItem:
    def test_result_fields(self):
        log, split, base, adapter, bb, states = _sim_parts(seed=4)
        u = int(split.test_users[0])
        rank = rank_test_item(bb, states[u], adapter, base, int(split.test_items[0]),
                              split.negatives[u])
        assert isinstance(rank, int)
        assert 1 <= rank <= len(split.negatives[u]) + 1


class TestTopK:
    def test_excludes_training_positives_and_orders_by_score(self):
        log, split, base, adapter, bb, states = _sim_parts(seed=5)
        u = int(split.test_users[0])
        lists = top_k_items(bb, states[u], adapter, base,
                            split.train_positives[u], log.n_items, 5)
        assert len(lists) == 5
        assert not np.intersect1d(lists, split.train_positives[u]).size
        emb, _ = adapter.compose(base, lists)
        scores = emb @ states[u].embedding
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    def test_deterministic_under_ties(self):
        adapter = make_adapter("full", 6, 4, RngStream(0))
        adapter.table[:] = 0.0   # every item ties
        bb = Backbone("fedmf")
        state = UserState(embedding=np.ones(4, dtype=np.float32))
        lists = top_k_items(bb, state, adapter, adapter.table,
                            np.array([1]), 6, 3)
        assert lists.tolist() == [0, 2, 3]   # lowest ids win ties

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e30, float("inf"),
                                     float("-inf")] + [float("nan")] * 4),
                    min_size=1, max_size=40),
           st.integers(1, 12))
    # fewer finite candidates than k, but more candidates
    @example([0.0, float("nan"), float("nan"), 1.0], 2)
    def test_lists_equal_a_full_sort(self, scores, k):
        # one-dimensional items score exactly their value against a user of [1]
        table = np.array(scores, dtype=np.float32)[:, None]
        adapter = make_adapter("full", len(scores), 1, RngStream(0))
        adapter.table[:] = table
        state = UserState(embedding=np.ones(1, dtype=np.float32))
        positives = np.arange(0, len(scores), 5)
        with np.errstate(invalid="ignore"):
            got = top_k_items(Backbone("fedmf"), state, adapter, adapter.table, positives,
                              len(scores), k)
        candidates = np.setdiff1d(np.arange(len(scores)), positives)
        want = candidates[np.lexsort((candidates, -table[candidates, 0]))][:k]
        assert got.tolist() == want.tolist()

    def test_nan_scores_come_last(self):
        adapter = make_adapter("full", 6, 2, RngStream(0))
        adapter.table[:] = [[1.0, 0.0], [1e38, 1e38], [3.0, 0.0], [2.0, 0.0],
                            [1e38, 1e38], [0.5, 0.0]]
        state = UserState(embedding=np.array([1e38, -1e38], dtype=np.float32))
        with np.errstate(over="ignore", invalid="ignore"):
            lists = top_k_items(Backbone("fedmf"), state, adapter, adapter.table,
                                np.array([], dtype=np.int64), 6, 6)
        assert lists.tolist() == [2, 3, 0, 5, 1, 4]
