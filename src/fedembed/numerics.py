"""Minimal dense numeric kernels: small MLPs with hand-derived gradients,
plain SGD, and Lloyd's k-means, whose nearest-row search the residual
quantizer reuses.

Matrices are plain row-major numpy arrays; trainable parameters default to
float32. Tests that verify gradients against finite differences build models
in float64, where the central-difference oracle is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "identity")


def check_finite(x: np.ndarray, where: str, *args) -> None:
    """Raise a `FloatingPointError` naming `where % args`, formatted only on failure."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"non-finite values in {where % args}")


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                 scale: float = 0.01, dtype=np.float32) -> np.ndarray:
    """Symmetric uniform init used for embedding-like tables."""
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def init_layer_weight(rng: np.random.Generator, fan_out: int, fan_in: int,
                      dtype=np.float32) -> np.ndarray:
    """Per-layer scaled uniform init, range 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype)


def scatter_rows(like: np.ndarray, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The gradient of the gather `like[idx]`: zeros shaped like `like`, with
    each `values[pos]` added to row `idx[pos]` in C order of the positions."""
    out = np.zeros_like(like)
    np.add.at(out, idx, values)
    return out


def level_rows(codes: np.ndarray, size: int) -> np.ndarray:
    """Per-level codes (n, l) as rows `j*size + code` of the l codebooks of
    `size` rows each, stacked into one table."""
    return codes + size * np.arange(codes.shape[1])


def relu_layers(n_layers: int) -> list[str]:
    """ReLU between layers, identity on the output."""
    return ["relu"] * (n_layers - 1) + ["identity"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)). Far below zero exp(-z) overflows to inf, and the
    value is the exact limit 0, so the overflow is not warned about."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Mlp:
    """Fully connected network; weights[l] has shape (out_l, in_l)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    dropout: float = 0.0

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or len(self.weights) != len(self.activations):
            raise ValueError("weights, biases, activations must have one entry per layer")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for l in range(1, len(self.weights)):
            if self.weights[l].shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(f"layer {l} input dim {self.weights[l].shape[1]} != "
                                 f"layer {l - 1} output dim {self.weights[l - 1].shape[0]}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @classmethod
    def create(cls, layer_sizes: list[int], activations: list[str],
               rng: np.random.Generator, dropout: float = 0.0, dtype=np.float32) -> "Mlp":
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("need one activation per layer transition")
        weights = [init_layer_weight(rng, layer_sizes[l + 1], layer_sizes[l], dtype)
                   for l in range(len(layer_sizes) - 1)]
        biases = [np.zeros(layer_sizes[l + 1], dtype=dtype) for l in range(len(layer_sizes) - 1)]
        return cls(weights, biases, list(activations), dropout)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def params(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases],
                   list(self.activations), self.dropout)

    def param_bytes(self) -> int:
        return sum(p.size for p in self.params()) * 4


@dataclass
class MlpCache:
    inputs: list[np.ndarray] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)
    n_layers: int = 0


def mlp_forward(model: Mlp, x: np.ndarray, mode: str = "eval",
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, MlpCache]:
    """Forward pass over a (batch, dim) matrix.

    Returns the output and a cache sufficient for exact backprop. Dropout is
    applied to hidden activations in train mode only, with masks drawn from
    ``rng``.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"mlp input must be (batch, {model.in_dim}), got shape {x.shape}")
    if x.shape[1] != model.in_dim:
        raise ValueError(f"input dim {x.shape[1]} != model input dim {model.in_dim}")

    train = mode == "train" and model.dropout > 0.0
    if train and rng is None:
        raise ValueError("train mode with dropout requires an rng")

    cache = MlpCache(n_layers=len(model.weights))
    keep = 1.0 - model.dropout
    h = x
    for l, (w, b, act) in enumerate(zip(model.weights, model.biases, model.activations)):
        cache.inputs.append(h)
        z = h @ w.T + b
        a = _act(act, z)
        cache.outputs.append(a)
        last = l == len(model.weights) - 1
        if train and not last:
            mask = (rng.random(a.shape) < keep).astype(a.dtype) / keep
            cache.masks.append(mask)
            h = a * mask
        else:
            cache.masks.append(None)
            h = a
    return h, cache


def mlp_backward(model: Mlp, cache: MlpCache, output_grad: np.ndarray
                 ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gradients of a scalar loss w.r.t. weights, biases, and the input.

    ``output_grad`` is dL/doutput with the same shape the forward produced.
    """
    if cache.n_layers != len(model.weights):
        raise ValueError("cache does not match model")
    g = np.asarray(output_grad)
    if g.shape != cache.outputs[-1].shape:
        raise ValueError(f"output_grad shape {g.shape} != forward output shape "
                         f"{cache.outputs[-1].shape}")

    w_grads: list[np.ndarray] = [None] * len(model.weights)  # type: ignore[list-item]
    b_grads: list[np.ndarray] = [None] * len(model.weights)  # type: ignore[list-item]
    for l in range(len(model.weights) - 1, -1, -1):
        mask = cache.masks[l]
        if mask is not None:
            g = g * mask
        a = cache.outputs[l]
        act = model.activations[l]
        if act == "relu":
            gz = g * (a > 0)
        elif act == "sigmoid":
            gz = g * a * (1.0 - a)
        else:
            gz = g
        w_grads[l] = gz.T @ cache.inputs[l]
        b_grads[l] = gz.sum(axis=0)
        g = gz @ model.weights[l]
    return w_grads, b_grads, g


def sgd_step(params, grads, lr: float) -> None:
    """p -= lr*g in place, elementwise; accepts one array or a list of arrays.
    A read-only (frozen) array raises."""
    if isinstance(params, np.ndarray):
        grads = np.asarray(grads, dtype=params.dtype)
        if grads.shape != params.shape:
            raise ValueError(f"grad shape {grads.shape} != param shape {params.shape}")
        params -= lr * grads
        return
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    for p, g in zip(params, grads):
        sgd_step(p, g, lr)


def kmeans(points: np.ndarray, k: int, iters: int = 10, *,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with deterministic lowest-index tie-breaking.

    Initial centroids are sampled without replacement from the points. If k
    exceeds the number of distinct points, the distinct points are used and
    the remaining centroids are padded with copies (not an error); padded
    duplicates simply attract no assignments. Clusters that end an iteration
    empty keep their previous centroid.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.issubdtype(points.dtype, np.floating):
        points = points.astype(np.float64)

    distinct = np.unique(points, axis=0)
    if k > distinct.shape[0]:
        reps = -(-k // distinct.shape[0])  # ceil
        centroids = np.tile(distinct, (reps, 1))[:k].copy()
    else:
        idx = rng.choice(points.shape[0], size=k, replace=False)
        centroids = points[np.sort(idx)].copy()

    for _ in range(iters):
        assignments = nearest_rows(points, centroids)
        for j in range(k):
            sel = assignments == j
            if sel.any():
                centroids[j] = points[sel].mean(axis=0)
    assignments = nearest_rows(points, centroids)
    return centroids, assignments


# points per block of `nearest_rows`, which holds a (block, rows, dim) array
NEAREST_BLOCK = 256


def nearest_rows(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each point, the index of the row at the least squared distance;
    ties go to the lowest index (argmin returns the first minimiser)."""
    out = np.empty(len(points), dtype=np.intp)
    for start in range(0, len(points), NEAREST_BLOCK):
        block = points[start:start + NEAREST_BLOCK]
        d2 = ((block[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
        out[start:start + NEAREST_BLOCK] = d2.argmin(axis=1)
    return out
