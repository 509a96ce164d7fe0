"""Correctness checks that do not trust the program.

Every expected value here is computed apart from `fedembed`: upload sizes in
closed form from the config, the saved checkpoint parsed from its documented
byte layout, item embeddings composed from the adapter's tensors with the
hash formula or the semantic codes, scores from a float64 FedMF or NCF
forward pass, and ranks counted pessimistically on ties. Each check raises
`CheckFailed` naming what disagreed.

The program scores in float32 and the reference in float64, so two
candidates whose reference scores lie within `score_tolerance` of each other
may legitimately come out in either order; such near-ties widen the accepted
interval instead of failing a check.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

# FedNCF's shared scorer: concat(user, item) -> 128 -> 64 -> 1, ReLU between.
NCF_HIDDEN = (128, 64)
CUTOFF = 10


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- uploads

def ncf_param_count(k: int, hidden: tuple[int, ...] = NCF_HIDDEN) -> int:
    sizes = [2 * k, *hidden, 1]
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def upload_bytes(kind: str, n_items: int, k: int, *, rank: int = 0, d_h: int = 0,
                 levels: int = 0, d_r: int = 0, backbone: str = "fedmf") -> int:
    """Bytes one client uploads: the adapter's float32 values plus, for
    FedNCF, the shared MLP's."""
    values = {"full": n_items * k, "lora": rank * (n_items + k),
              "hash": d_h * k, "rqvae": levels * d_r * k}[kind]
    if backbone == "fedncf":
        values += ncf_param_count(k)
    return 4 * values


def expected_uploads(cfg, n_items: int) -> dict[str, int]:
    """Closed-form bytes per client for each round phase of a config."""
    s = cfg.strategy
    common = dict(backbone=cfg.backbone)
    return {"warmup": upload_bytes("full", n_items, cfg.k, **common),
            "peft": upload_bytes(s.kind, n_items, cfg.k, rank=s.rank, d_h=s.d_h,
                                 levels=s.levels, d_r=s.d_r, **common)}


def check_uploads(rounds: list[dict], expected: dict[str, int]) -> None:
    """Each round's bytes per client equal the closed form for its phase, and
    the round total is clients x that."""
    for r in rounds:
        want = expected[r["phase"]]
        _require(r["bytes_per_client"] == want,
                 f"round {r['round']} ({r['phase']}): {r['bytes_per_client']} bytes per "
                 f"client, closed form gives {want}")
        _require(r["aggregate_bytes"] == r["clients"] * want,
                 f"round {r['round']}: {r['aggregate_bytes']} bytes uploaded in total, "
                 f"expected {r['clients']} x {want}")


def check_noise_count(noised: int, rounds: list[dict], expected: dict[str, int]) -> None:
    """Local DP noises every value every client uploads, once."""
    want = sum(r["clients"] * expected[r["phase"]] // 4 for r in rounds)
    _require(noised == want, f"{noised} values noised, expected {want} "
                             f"(clients x uploaded values, summed over rounds)")


# ---------------------------------------------------------------- learning

def random_ndcg(cutoff: int = CUTOFF, candidates: int = 100) -> float:
    """Expected NDCG@cutoff, in percent, of a uniformly random ranking."""
    return 100.0 * sum(1.0 / math.log2(r + 1) for r in range(1, cutoff + 1)) / candidates


def check_learning(losses: list[float], ndcg: float, candidates: int = 100) -> None:
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    _require(not bad, f"non-finite training loss in rounds {bad}")
    floor = random_ndcg(CUTOFF, candidates)
    _require(ndcg > floor, f"NDCG@{CUTOFF} {ndcg:.2f}% is not above the {floor:.2f}% "
                           f"of a random ranking")


# ---------------------------------------------------------------- checkpoint

_TAGS = {0: "full", 1: "lora", 2: "hash", 3: "hash_senet", 4: "rqvae"}


def read_checkpoint(path: str | Path) -> dict:
    """Parse an FPEB checkpoint: magic, u16 version, u8 strategy tag, u32 n, k,
    the strategy's integer state, the base table, then the adapter payload,
    all little-endian. Rejects truncated and trailing bytes."""
    buf = Path(path).read_bytes()
    off = 0

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        _require(off + size <= len(buf), f"{path}: truncated at byte {off}")
        out = struct.unpack_from(fmt, buf, off)
        off += size
        return out

    def array(dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        nonlocal off
        count = int(np.prod(shape))
        size = count * 4
        _require(off + size <= len(buf), f"{path}: truncated at byte {off}")
        out = np.frombuffer(buf, dtype=dtype, count=count, offset=off).reshape(shape)
        off += size
        return out

    _require(buf[:4] == b"FPEB", f"{path}: bad magic")
    off = 4
    version, tag = take("<HB")
    _require(version == 1, f"{path}: version {version}")
    _require(tag in _TAGS, f"{path}: unknown strategy tag {tag}")
    kind = _TAGS[tag]
    n, k = take("<II")
    ck: dict = {"kind": kind, "n": n, "k": k}
    if kind == "lora":
        (ck["rank"],) = take("<I")
    elif kind in ("hash", "hash_senet"):
        ck["d_h"], h, ck["p"], h1 = take("<IIII")
        ck["hash_a"] = array("<u4", (h,)).astype(np.int64)
        ck["hash_b"] = array("<u4", (h,)).astype(np.int64)
    elif kind == "rqvae":
        levels, d_r = take("<II")
        ck["d_r"] = d_r
        ck["codes"] = array("<u4", (n, levels)).astype(np.int64)
    ck["base"] = array("<f4", (n, k))
    if kind == "lora":
        ck["a"] = array("<f4", (n, ck["rank"]))
        ck["b"] = array("<f4", (k, ck["rank"]))
    elif kind in ("hash", "hash_senet"):
        ck["table"] = array("<f4", (ck["d_h"], k))
        if kind == "hash_senet":
            ck["w1"] = array("<f4", (h1, h))
            ck["w2"] = array("<f4", (h, h1))
    elif kind == "rqvae":
        ck["codebooks"] = array("<f4", (levels, ck["d_r"], k))
    _require(off == len(buf), f"{path}: {len(buf) - off} trailing bytes")
    return ck


def compose(ck: dict) -> np.ndarray:
    """Every item's final embedding, in float64, from the checkpoint alone."""
    base = ck["base"].astype(np.float64)
    kind = ck["kind"]
    if kind == "full":
        return base
    if kind == "lora":
        return base + ck["a"].astype(np.float64) @ ck["b"].astype(np.float64).T
    if kind == "hash":
        ids = np.arange(ck["n"], dtype=np.int64)
        table = ck["table"].astype(np.float64)
        rows = [table[((a * ids + b) % ck["p"]) % ck["d_h"]]
                for a, b in zip(ck["hash_a"], ck["hash_b"])]
        return base + sum(rows) / len(rows)
    if kind == "rqvae":
        out = base.copy()
        for level, book in enumerate(ck["codebooks"].astype(np.float64)):
            out += book[ck["codes"][:, level]]
        return out
    raise CheckFailed(f"no reference composition for strategy {kind!r}")


def read_user_state(path: str | Path) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """User embeddings and the shared MLP layers from `sim_state.npz`."""
    with np.load(path) as data:
        users = data["user_emb"].astype(np.float64)
        layers = []
        while f"wg_w{len(layers)}" in data:
            l = len(layers)
            layers.append((data[f"wg_w{l}"].astype(np.float64),
                           data[f"wg_b{l}"].astype(np.float64)))
    return users, layers


def scores(emb: np.ndarray, user: np.ndarray,
           mlp: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """FedMF (no MLP): dot product. FedNCF: MLP over concat(user, item),
    ReLU on every layer but the last."""
    if not mlp:
        return emb @ user
    h = np.concatenate([np.broadcast_to(user, emb.shape), emb], axis=1)
    for i, (w, b) in enumerate(mlp):
        h = h @ w.T + b
        if i < len(mlp) - 1:
            h = np.maximum(h, 0.0)
    return h[:, 0]


def score_tolerance(s: np.ndarray) -> float:
    return 1e-5 * (1.0 + float(np.abs(s).max()))


# ---------------------------------------------------------------- ranking metrics

def rank_interval(s_test: float, s_neg: np.ndarray, tol: float) -> tuple[int, int]:
    """Pessimistic 1-based rank of the test item: every negative scoring at
    least as high counts above it, exact ties included. Near-ties give the
    range of ranks float32 arithmetic could produce."""
    certain = int((s_neg > s_test + tol).sum()) + int((s_neg == s_test).sum())
    return 1 + certain, 1 + int((s_neg >= s_test - tol).sum())


def reference_metrics(emb: np.ndarray, users: np.ndarray, mlp: list,
                      test: list[tuple[int, int, np.ndarray]],
                      cutoff: int = CUTOFF) -> dict[str, tuple[float, float]]:
    """HR@cutoff and NDCG@cutoff in percent, as (lowest, highest) over the
    near-ties. `test` holds (user, held-out item, negative candidates)."""
    hr = [0.0, 0.0]
    ndcg = [0.0, 0.0]
    for u, item, negs in test:
        cand = np.concatenate([[item], negs])
        s = scores(emb[cand], users[u], mlp)
        best, worst = rank_interval(float(s[0]), s[1:], score_tolerance(s))
        hr[0] += worst <= cutoff
        hr[1] += best <= cutoff
        ndcg[0] += 1.0 / math.log2(worst + 1) if worst <= cutoff else 0.0
        ndcg[1] += 1.0 / math.log2(best + 1) if best <= cutoff else 0.0
    n = len(test)
    return {f"h@{cutoff}": (100.0 * hr[0] / n, 100.0 * hr[1] / n),
            f"n@{cutoff}": (100.0 * ndcg[0] / n, 100.0 * ndcg[1] / n)}


def check_metrics(reported: dict[str, float], reference: dict[str, tuple[float, float]]) -> None:
    """The program reports percentages rounded to two decimals."""
    for name, (lo, hi) in reference.items():
        got = reported[name]
        _require(round(lo, 2) <= got <= round(hi, 2),
                 f"{name}: program reports {got:.2f}, reference gives "
                 f"{lo:.4f}..{hi:.4f}")


# ---------------------------------------------------------------- top-k lists

def check_top_k(lists: dict[int, np.ndarray], emb: np.ndarray, users: np.ndarray, mlp: list,
                train_positives: dict[int, np.ndarray], k: int) -> None:
    """Each list is the k best non-training items by reference score, in
    descending order, exact ties going to the lower item id."""
    n_items = emb.shape[0]
    for u, got in lists.items():
        got = np.asarray(got, dtype=np.int64)
        mask = np.ones(n_items, dtype=bool)
        mask[train_positives[u]] = False
        cand = np.flatnonzero(mask)
        _require(len(got) == min(k, len(cand)), f"user {u}: list of {len(got)}, expected "
                                                f"{min(k, len(cand))}")
        _require(len(np.unique(got)) == len(got), f"user {u}: repeated items in top-{k}")
        _require(bool(mask[got].all()), f"user {u}: top-{k} holds a training item")
        s = np.full(n_items, -np.inf)
        s[cand] = scores(emb[cand], users[u], mlp)
        tol = score_tolerance(s[cand])
        for pos in range(len(got) - 1):
            a, b = got[pos], got[pos + 1]
            _require(s[a] >= s[b] - tol, f"user {u}: item {b} (score {s[b]:.6g}) ranked "
                                         f"below item {a} (score {s[a]:.6g})")
            _require(not (s[a] == s[b] and a > b),
                     f"user {u}: tie between items {a} and {b} not broken toward the lower id")
        rest = mask.copy()
        rest[got] = False
        if rest.any() and len(got):
            last = got[-1]
            out = np.flatnonzero(rest)
            best_out = out[np.argmax(s[out])]
            _require(s[best_out] <= s[last] + tol,
                     f"user {u}: item {best_out} (score {s[best_out]:.6g}) left out of the "
                     f"top-{k} while item {last} (score {s[last]:.6g}) is in it")
            tied = out[(s[out] == s[last]) & (out < last)]
            _require(len(tied) == 0, f"user {u}: item {tied[:1]} ties the last entry "
                                     f"{last} but has the lower id")


# ---------------------------------------------------------------- freeze discipline

def table_hash(table: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(table, dtype="<f4").tobytes()).hexdigest()


def check_frozen(rounds: list[dict], ck: dict, codes: np.ndarray | None,
                 hash_params: tuple[np.ndarray, np.ndarray] | None) -> None:
    """The base table the last warm-up round produced stays bit-identical
    through every adapter round and into the checkpoint; codes and hash
    parameters in the checkpoint are the ones the freeze produced."""
    warm = [r for r in rounds if r["phase"] == "warmup"]
    peft = [r for r in rounds if r["phase"] == "peft"]
    if warm and peft:
        frozen = warm[-1]["base_hash"]
        moved = [r["round"] for r in peft if r["base_hash"] != frozen]
        _require(not moved, f"base table changed in adapter rounds {moved}")
        _require(table_hash(ck["base"]) == frozen,
                 "checkpoint base table differs from the table frozen after warm-up")
    if codes is not None:
        _require(np.array_equal(ck["codes"], codes),
                 "checkpoint semantic codes differ from the pre-trained codes")
    if hash_params is not None:
        _require(np.array_equal(ck["hash_a"], hash_params[0])
                 and np.array_equal(ck["hash_b"], hash_params[1]),
                 "checkpoint hash parameters differ from those drawn at the freeze")


# ---------------------------------------------------------------- eval command

def check_eval_output(exit_code: int, stdout: str, final: dict[str, float]) -> None:
    """`fedembed eval` exits 0 and prints exactly the run's final metrics."""
    _require(exit_code == 0, f"fedembed eval exited {exit_code}")
    lines = stdout.strip().splitlines()
    _require(bool(lines) and lines[0] == "metric,value",
             f"fedembed eval printed no metric table: {stdout[:200]!r}")
    printed = dict(line.split(",", 1) for line in lines[1:])
    want = {name: f"{value:.2f}" for name, value in final.items()}
    _require(printed == want, f"fedembed eval printed {printed}, the run ended with {want}")
