"""Interaction logs, leave-one-out splits, negative sampling, item features.

Implicit feedback: every observed (user, item) pair is a positive regardless
of the rating value. Ids are remapped to dense ranges [0, m) and [0, n) in
sorted order of the original ids; the inverse mapping travels with the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import kmeans
from .rng import RngStream

LOG_SOURCES = ("synthetic", "ml1m", "amazon_csv")   # synthesized, or `load_interactions` formats
FEATURE_SOURCES = ("synthetic", "file")              # `build_item_features` sources


@dataclass
class InteractionLog:
    users: np.ndarray      # dense user id per interaction
    items: np.ndarray      # dense item id per interaction
    timestamps: np.ndarray
    n_users: int
    n_items: int
    user_ids: list[str]    # dense id -> original id
    item_ids: list[str]

    def __len__(self) -> int:
        return len(self.users)


class FormatError(ValueError):
    pass


def _parse_lines(path: str | Path, sep: str, numeric_ids: bool):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                float(parts[2])         # the rating: checked, not kept
                ts = int(parts[3])
                if numeric_ids:
                    int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            rows.append((parts[0], parts[1], ts))
    if not rows:
        raise FormatError(f"{path}: no interactions")
    return rows


def load_interactions(path: str | Path, fmt: str) -> InteractionLog:
    """Load `ml1m` (user::item::rating::timestamp) or `amazon_csv`
    (user,item,rating,timestamp) logs.

    Duplicate (user, item) pairs are deduplicated keeping the latest
    timestamp. Malformed lines raise FormatError with the line number.
    """
    if fmt == "ml1m":
        rows = _parse_lines(path, "::", numeric_ids=True)
        key = int
    elif fmt == "amazon_csv":
        rows = _parse_lines(path, ",", numeric_ids=False)
        key = str
    else:
        raise FormatError(f"unknown format {fmt!r}")

    latest: dict[tuple[str, str], int] = {}
    for u, i, t in rows:
        latest[(u, i)] = max(t, latest.get((u, i), t))

    user_ids = sorted({u for u, _ in latest}, key=key)
    item_ids = sorted({i for _, i in latest}, key=key)
    u_map = {orig: d for d, orig in enumerate(user_ids)}
    i_map = {orig: d for d, orig in enumerate(item_ids)}

    pairs = sorted(latest.items(), key=lambda kv: (u_map[kv[0][0]], i_map[kv[0][1]]))
    users = np.array([u_map[u] for (u, _), _ in pairs], dtype=np.int64)
    items = np.array([i_map[i] for (_, i), _ in pairs], dtype=np.int64)
    stamps = np.array([t for _, t in pairs], dtype=np.int64)
    return InteractionLog(users, items, stamps, len(user_ids), len(item_ids),
                          [str(u) for u in user_ids], [str(i) for i in item_ids])


@dataclass
class EvalSplit:
    """Per-user leave-one-out split with fixed evaluation candidates."""

    test_users: np.ndarray          # users with >= 2 interactions
    test_items: np.ndarray          # their held-out (latest) item
    train_positives: list[np.ndarray]   # per user, sorted training items
    all_positives: list[np.ndarray]     # per user, sorted train+test items
    negatives: dict[int, np.ndarray] = field(default_factory=dict)
    n_users: int = 0
    n_items: int = 0


def leave_one_out_split(log: InteractionLog) -> EvalSplit:
    """Hold out each user's latest-timestamp interaction for evaluation.

    Users with a single interaction keep it in training and are excluded
    from the test set. Timestamp ties break toward the larger item id.
    """
    # one sort groups the log by user, each user's interactions by (timestamp, item)
    order = np.lexsort((log.items, log.timestamps, log.users))
    items = log.items[order]
    bounds = np.searchsorted(log.users[order], np.arange(log.n_users + 1))
    test_u, test_i = [], []
    train_pos: list[np.ndarray] = []
    all_pos: list[np.ndarray] = []
    for u in range(log.n_users):
        mine = items[bounds[u]:bounds[u + 1]]
        kept = mine
        if len(mine) >= 2:
            test_u.append(u)
            test_i.append(int(mine[-1]))
            kept = mine[:-1]
        train_pos.append(np.sort(kept))
        all_pos.append(np.sort(mine))
    return EvalSplit(
        test_users=np.array(test_u, dtype=np.int64),
        test_items=np.array(test_i, dtype=np.int64),
        train_positives=train_pos,
        all_positives=all_pos,
        n_users=log.n_users,
        n_items=log.n_items,
    )


def choice_excluding(n: int, excluded: np.ndarray, size: int, rng: np.random.Generator,
                     replace: bool) -> np.ndarray:
    """Uniform draw from [0, n) minus the sorted, unique ids `excluded`,
    without building the candidate pool.

    Draws index r among the remaining ids and shifts it past every excluded
    id e with e - rank(e) <= r. `Generator.choice` over an array draws the
    same indices as over its length and then takes, so the result equals
    ``rng.choice(np.setdiff1d(np.arange(n), excluded), size, replace=replace)``
    bit for bit.
    """
    idx = rng.choice(n - len(excluded), size=size, replace=replace)
    return idx + np.searchsorted(excluded - np.arange(len(excluded)), idx, side="right")


def attach_eval_negatives(split: EvalSplit, count: int, streams: RngStream) -> None:
    """Draw each test user's fixed negative candidate set, keyed by user.

    count < 0 selects full ranking: all non-interacted items are candidates.
    Users with fewer than `count` non-interacted items get all of them.
    """
    for u, _ in zip(split.test_users, split.test_items):
        u = int(u)
        pos = split.all_positives[u]
        if count < 0:
            split.negatives[u] = np.setdiff1d(np.arange(split.n_items, dtype=np.int64), pos)
        else:
            take = min(count, split.n_items - len(pos))
            split.negatives[u] = choice_excluding(split.n_items, pos, take,
                                                  streams.generator("eval_neg", u),
                                                  replace=False)


def load_item_features(path: str | Path, log: InteractionLog) -> np.ndarray:
    """Read `item_id<TAB>v1,v2,...` lines; every item must have one vector,
    and every value must be finite. Returns the (n_items, k_p) float32 features."""
    i_map = {orig: d for d, orig in enumerate(log.item_ids)}
    rows: dict[int, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                item_id, values = line.split("\t")
                with np.errstate(over="ignore"):    # past float32 range: inf, stopped below
                    vec = np.array([float(v) for v in values.split(",")], dtype=np.float32)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(vec).all():
                raise FormatError(f"{path}:{lineno}: non-finite feature value")
            if item_id not in i_map:
                continue
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise FormatError(f"{path}:{lineno}: dimension {len(vec)} != {dim}")
            rows[i_map[item_id]] = vec
    missing = [log.item_ids[i] for i in range(log.n_items) if i not in rows]
    if missing:
        raise FormatError(f"{path}: missing feature vectors for {len(missing)} items "
                          f"(first: {missing[:3]})")
    return np.stack([rows[i] for i in range(log.n_items)])


def synthetic_item_features(log: InteractionLog, k_p: int, seed: int,
                            n_clusters: int = 16, noise: float = 0.5) -> np.ndarray:
    """Seeded feature vectors correlated within co-occurrence clusters.

    Items are clustered (k-means, K=16) on a random projection of their
    user-incidence vectors; each cluster gets a Gaussian center in feature
    space and items receive center + noise, so items that co-occur in the
    log end up with similar features.
    """
    streams = RngStream(seed)
    proj_rng = streams.generator("feat_proj")
    proj = proj_rng.normal(size=(log.n_users, 64))
    incid = np.zeros((log.n_items, 64))
    np.add.at(incid, log.items, proj[log.users])
    norms = np.linalg.norm(incid, axis=1, keepdims=True)
    incid = incid / np.maximum(norms, 1e-12)

    k = min(n_clusters, log.n_items)
    _, labels = kmeans(incid, k, iters=10, rng=streams.generator("feat_kmeans"))

    feat_rng = streams.generator("feat_vectors")
    centers = feat_rng.normal(size=(k, k_p))
    vectors = centers[labels] + noise * feat_rng.normal(size=(log.n_items, k_p))
    return vectors.astype(np.float32)


def build_item_features(log: InteractionLog, source: str, *, path: str | Path | None = None,
                        k_p: int = 768, seed: int = 0) -> np.ndarray:
    if source == "file":
        return load_item_features(path, log)
    if source == "synthetic":
        return synthetic_item_features(log, k_p, seed)
    raise ValueError(f"unknown feature source {source!r}")


def synthesize_interactions(n_users: int, n_items: int, seed: int,
                            n_user_clusters: int = 8, n_item_clusters: int = 8,
                            interactions_range: tuple[int, int] = (8, 40),
                            affinity: float = 0.85) -> InteractionLog:
    """Synthetic implicit-feedback log with clustered preferences.

    Items are split into contiguous clusters; each user cluster prefers one
    item cluster with probability `affinity` (uniform otherwise), which gives
    recommenders an actual structure to learn.
    """
    streams = RngStream(seed)
    boundaries = np.linspace(0, n_items, n_item_clusters + 1).astype(int)
    users, items, stamps = [], [], []
    for u in range(n_users):
        rng = streams.generator("synth_user", u)
        target = rng.integers(interactions_range[0], interactions_range[1] + 1)
        pref = (u % n_user_clusters) % n_item_clusters
        seen: set[int] = set()
        t = 0
        for _ in range(target * 4):
            if len(seen) >= target:
                break
            c = pref if rng.random() < affinity else int(rng.integers(n_item_clusters))
            lo, hi = boundaries[c], boundaries[c + 1]
            i = int(rng.integers(lo, hi))
            if i in seen:
                continue
            seen.add(i)
            users.append(u)
            items.append(i)
            stamps.append(t)
            t += 1
    return InteractionLog(
        users=np.array(users, dtype=np.int64),
        items=np.array(items, dtype=np.int64),
        timestamps=np.array(stamps, dtype=np.int64),
        n_users=n_users,
        n_items=n_items,
        user_ids=[str(u) for u in range(n_users)],
        item_ids=[str(i) for i in range(n_items)],
    )


def save_id_maps(log: InteractionLog, out_dir: str | Path) -> None:
    """Persist dense-id -> original-id maps next to other run artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "user_ids.txt").write_text(
        "".join(f"{d}\t{orig}\n" for d, orig in enumerate(log.user_ids)), encoding="utf-8")
    (out / "item_ids.txt").write_text(
        "".join(f"{d}\t{orig}\n" for d, orig in enumerate(log.item_ids)), encoding="utf-8")
