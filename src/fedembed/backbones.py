"""Scoring backbones over composed item embeddings.

FedMF scores with a dot product against a local user embedding; FedNCF runs
concat(user, item) through a shared MLP; PFedRec scores items with a
client-private MLP and has no user embedding. User-side state never leaves
the client.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import (Mlp, init_uniform, mlp_backward, mlp_forward, relu_layers, sgd_step,
                       sigmoid)
from .rng import RngStream

BACKBONE_KINDS = ("fedmf", "fedncf", "pfedrec")
PFEDREC_DROPOUT = 0.5


@dataclass
class UserState:
    """Client-private parameters; never serialized into uploads. Many users'
    stack over a leading axis: the (m, k) user embeddings (fedmf, fedncf), or
    the personal MLP stacked (pfedrec); every user's are what `sim_state.npz`
    stores. `state[u]` is user u's state as views, `state[users]` for an id
    array the users' stacked as copies, and `state[u] = s` writes one back."""

    embedding: np.ndarray | None = None
    mlp: Mlp | None = None

    @classmethod
    def stack(cls, states: list["UserState"]) -> "UserState":
        if states[0].mlp is None:
            return cls(embedding=np.stack([s.embedding for s in states]))
        return cls(mlp=replace(states[0].mlp,
                               weights=[np.stack(w) for w in zip(*(s.mlp.weights for s in states))],
                               biases=[np.stack(b) for b in zip(*(s.mlp.biases for s in states))]))

    def __len__(self) -> int:
        return len(self.embedding if self.embedding is not None else self.mlp.weights[0])

    def __getitem__(self, u) -> "UserState":
        return UserState(None if self.embedding is None else self.embedding[u],
                         None if self.mlp is None else self.mlp[u])

    def __setitem__(self, u, state: "UserState") -> None:
        if self.embedding is not None:
            self.embedding[u] = state.embedding
            return
        for stacked, t in zip(self.mlp.params(), state.mlp.params()):
            stacked[u] = t


@dataclass
class Backbone:
    """Server-shared scoring parameters (W_g). FedMF and PFedRec have none."""

    kind: str
    mlp: Mlp | None = None

    def upload_bytes(self) -> int:
        return 0 if self.mlp is None else self.mlp.param_bytes()


def make_backbone(kind: str, k: int, streams: RngStream,
                  ncf_hidden: tuple[int, ...] = (128, 64), dropout: float = 0.5,
                  dtype=np.float32) -> Backbone:
    if kind not in BACKBONE_KINDS:
        raise ValueError(f"unknown backbone {kind!r}")
    if kind != "fedncf":
        return Backbone(kind)
    sizes = [2 * k, *ncf_hidden, 1]
    mlp = Mlp.create(sizes, relu_layers(len(sizes) - 1), streams.generator("init_ncf"),
                     dropout=dropout, dtype=dtype)
    return Backbone(kind, mlp)


def make_user_state(kind: str, k: int, user: int, streams: RngStream,
                    pfedrec_hidden: tuple[int, ...] = (64, 32),
                    dropout: float = PFEDREC_DROPOUT,
                    scale: float = 0.1, dtype=np.float32) -> UserState:
    if kind in ("fedmf", "fedncf"):
        emb = init_uniform(streams.generator("init_user", user), (k,),
                           scale=scale, dtype=dtype)
        return UserState(embedding=emb)
    if kind == "pfedrec":
        sizes = [k, *pfedrec_hidden, 1]
        mlp = Mlp.create(sizes, relu_layers(len(sizes) - 1),
                         streams.generator("init_user", user), dropout=dropout, dtype=dtype)
        return UserState(mlp=mlp)
    raise ValueError(f"unknown backbone {kind!r}")


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., p, q) @ (..., q) -> (..., p); one client's `m @ v` as it always was."""
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def score(backbone: Backbone, state: UserState, emb: np.ndarray, mode: str = "eval",
          rng=None, samples: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Logits for a batch of composed item embeddings; C clients' at once from
    (C, B, k) embeddings, their stacked states and shared MLPs. `rng` and
    `samples` are `mlp_forward`'s dropout draws."""
    emb = np.atleast_2d(emb)
    if backbone.kind == "fedmf":
        if state.embedding is None or state.embedding.shape[-1] != emb.shape[-1]:
            raise ValueError("user embedding missing or dim mismatch")
        return _matvec(emb, state.embedding), {"emb": emb}
    if backbone.kind == "fedncf":
        u = np.broadcast_to(state.embedding[..., None, :], emb.shape)
        x = np.concatenate([u, emb], axis=-1)
        out, cache = mlp_forward(backbone.mlp, x, mode, rng, samples)
        return out[..., 0], {"mlp": cache, "k": emb.shape[-1]}
    if backbone.kind == "pfedrec":
        out, cache = mlp_forward(state.mlp, emb, mode, rng, samples)
        return out[..., 0], {"mlp": cache}
    raise ValueError(f"unknown backbone {backbone.kind!r}")


def score_backward(backbone: Backbone, state: UserState, cache: dict,
                   dlogits: np.ndarray) -> dict:
    """Gradients of the scalar loss w.r.t. user state, W_g, and embeddings.

    Returns a dict with keys among: user_emb, user_mlp (w, b), wg (w, b),
    emb — whatever the backbone kind touches.
    """
    if backbone.kind == "fedmf":
        emb = cache["emb"]
        # the outer product, over any leading client axis
        return {"user_emb": _matvec(emb.swapaxes(-1, -2), dlogits),
                "emb": dlogits[..., None] * state.embedding[..., None, :]}
    g = dlogits[..., None]
    if backbone.kind == "fedncf":
        wg, bg, dx = mlp_backward(backbone.mlp, cache["mlp"], g)
        k = cache["k"]
        return {"user_emb": dx[..., :k].sum(axis=-2), "wg": (wg, bg), "emb": dx[..., k:]}
    wg, bg, demb = mlp_backward(state.mlp, cache["mlp"], g)
    return {"user_mlp": (wg, bg), "emb": demb}


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample binary cross-entropy over sigmoid scores, stabilized;
    elementwise, so over any leading client axis too.

    Returns (losses, dloss/dlogit) elementwise; the gradient is
    sigmoid(logit) - label.
    """
    s = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    losses = np.maximum(s, 0) - s * y + np.log1p(np.exp(-np.abs(s)))
    grads = sigmoid(s) - y
    return losses, grads


def local_step(backbone: Backbone, state: UserState, adapter, base: np.ndarray,
               items: np.ndarray, labels: np.ndarray, lr: float, rng=None,
               mode: str = "train", mask: np.ndarray | None = None) -> float | np.ndarray:
    """One SGD step on user state, shared weights, and adapter parameters.

    All gradients are taken at the current parameters, then applied together,
    in place: the caller passes the client's private copies. Returns the mean
    batch loss.

    C clients' stacked copies step at once on (C, B) `items` and `labels`,
    with a dropout generator each, and give their (C,) mean losses. `mask`
    marks the samples (every entry without it): each client's gradient is
    its own batch mean; a padded entry adds exactly zero.
    """
    if mask is None:
        mask = np.ones(np.shape(items), dtype=bool)
    emb, a_cache = adapter.compose(base, items)
    logits, s_cache = score(backbone, state, emb, mode, rng, mask)
    losses, dlogits = bce_loss(logits, labels)
    n = np.maximum(mask.sum(axis=-1, keepdims=True), 1)
    loss = np.where(mask, losses, 0.0).sum(axis=-1) / n[..., 0]
    dlogits = np.where(mask, dlogits / n, 0.0).astype(emb.dtype)
    grads = score_backward(backbone, state, s_cache, dlogits)

    a_grads = adapter.grads(a_cache, grads["emb"].astype(emb.dtype))
    sgd_step(adapter.trainable(), a_grads, lr)
    if "user_emb" in grads:
        sgd_step(state.embedding, grads["user_emb"], lr)
    for key, mlp in (("user_mlp", state.mlp), ("wg", backbone.mlp)):
        if key in grads:
            sgd_step(mlp.weights, grads[key][0], lr)
            sgd_step(mlp.biases, grads[key][1], lr)
    return loss
