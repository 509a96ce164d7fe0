"""Leave-one-out ranking evaluation: hit ratio and NDCG at cutoff K."""

from __future__ import annotations

import math

import numpy as np

from .backbones import Backbone, UserState, score
from .data import EvalSplit


def rank_from_scores(test_score: float, negative_scores: np.ndarray) -> int:
    """1 + number of candidates not scored below the test item: ties and NaN
    candidates count against it (pessimistic), and a NaN test score ranks last."""
    return 1 + int((~(negative_scores < test_score)).sum())


def hr_at_k(rank: int, k: int) -> float:
    return 1.0 if rank <= k else 0.0


def ndcg_at_k(rank: int, k: int) -> float:
    """Single-relevant-item NDCG: the ideal DCG is 1."""
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


def rank_test_item(backbone: Backbone, state: UserState, adapter, base: np.ndarray,
                   test_item: int, negatives: np.ndarray) -> int:
    """1-based rank of the held-out item against the user's fixed negative
    candidates."""
    candidates = np.concatenate([[test_item], negatives])
    emb, _ = adapter.compose(base, candidates)
    logits, _ = score(backbone, state, emb, mode="eval")
    return rank_from_scores(float(logits[0]), logits[1:])


def evaluate(backbone: Backbone, user_states: UserState | dict[int, UserState],
             adapter, base: np.ndarray, split: EvalSplit,
             ks: tuple[int, ...] = (10, 20)) -> dict[str, float]:
    """Mean HR@K / NDCG@K over test users, as percentages to two decimals."""
    if not split.negatives:
        raise ValueError("split has no evaluation candidates attached")
    hr = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    n = 0
    for u, item in zip(split.test_users, split.test_items):
        u = int(u)
        rank = rank_test_item(backbone, user_states[u], adapter, base, int(item),
                              split.negatives[u])
        for k in ks:
            hr[k] += hr_at_k(rank, k)
            ndcg[k] += ndcg_at_k(rank, k)
        n += 1
    out: dict[str, float] = {}
    for k in ks:
        out[f"n@{k}"] = round(100.0 * ndcg[k] / n, 2)
        out[f"h@{k}"] = round(100.0 * hr[k] / n, 2)
    return out


def top_k_items(backbone: Backbone, state: UserState, adapter, base: np.ndarray,
                user_train_positives: np.ndarray, n_items: int, k: int) -> np.ndarray:
    """Top-k recommendation list over all items the user has not trained on.

    Candidates are scored in eval mode; ordering ties break toward the lower
    item id so lists are reproducible, and NaN scores come last. Only the
    candidates scored at least the k-th highest score are sorted.
    """
    mask = np.ones(n_items, dtype=bool)
    mask[user_train_positives] = False
    candidates = np.flatnonzero(mask)
    # blocks (one, empty, if no candidate is left) keep temporaries small enough to reuse
    neg = -np.concatenate([
        score(backbone, state, adapter.compose(base, candidates[s:s + 2048])[0])[0]
        for s in range(0, max(len(candidates), 1), 2048)])
    if len(neg) > k:
        # partition puts NaN last; a NaN k-th score (fewer than k finite) keeps all
        keep = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
        candidates, neg = candidates[keep], neg[keep]
    order = np.lexsort((candidates, neg))
    return candidates[order[:k]]
