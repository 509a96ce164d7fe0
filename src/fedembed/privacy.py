"""Laplace-mechanism noise for local (pre-upload) and central
(post-aggregation) differential privacy, and the per-tensor L2 clip of each
client's update that both apply first."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DP_MODES = ("none", "ldp", "cdp")


@dataclass
class DpConfig:
    mode: str = "none"
    delta: float = 0.0      # Laplace scale; larger = more noise
    clip: float | None = None   # optional L2 bound on each uploaded tensor's update


def laplace_noise(shape, delta: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Laplace(0, delta) samples via inverse CDF on uniform draws."""
    if delta == 0:
        return np.zeros(shape)
    u = rng.random(shape) - 0.5
    return -delta * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def clip_update(local: np.ndarray, snapshot: np.ndarray, clip: float) -> np.ndarray:
    """Bound a client's update to L2 norm `clip`.

    With `d = local - snapshot`, returns `snapshot + d * clip / |d|` when
    `|d| > clip`, and `local` itself, untouched, otherwise. The norm and the
    scaling are taken in float64.
    """
    d = local.astype(np.float64) - snapshot
    norm = float(np.linalg.norm(d))
    if norm <= clip:
        return local
    return (snapshot + d * (clip / norm)).astype(local.dtype)


def _noised(tensors: list[np.ndarray], delta: float,
            rng: np.random.Generator) -> list[np.ndarray]:
    return [t + laplace_noise(t.shape, delta, rng).astype(t.dtype) for t in tensors]


def apply_ldp(update: list[np.ndarray], config: DpConfig,
              rng: np.random.Generator) -> list[np.ndarray]:
    """Noise one client's uploaded tensors before aggregation."""
    if config.mode != "ldp" or config.delta == 0:
        return update
    return _noised(update, config.delta, rng)


def apply_cdp(aggregate: list[np.ndarray], config: DpConfig,
              rng: np.random.Generator) -> list[np.ndarray]:
    """Noise the aggregated tensors once, after averaging."""
    if config.mode != "cdp" or config.delta == 0:
        return aggregate
    return _noised(aggregate, config.delta, rng)
