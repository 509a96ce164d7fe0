"""Server-side pre-training.

An autoencoder compresses item attribute features into the initial full
embedding table; a residual-quantized autoencoder trained on the same
features yields each item's frozen semantic code tuple. The quantizer's
codebooks are trained here only to shape the codes; federation re-initializes
its own codebooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import (Mlp, kmeans, level_rows, mlp_backward, mlp_forward, nearest_rows,
                       relu_layers, scatter_rows, sgd_step)
from .rng import RngStream


class DivergenceError(RuntimeError):
    pass


@dataclass
class PretrainConfig:
    hidden: tuple[int, ...] = (512, 256, 128)
    latent_dim: int = 32
    steps: int = 10_000
    lr: float = 1e-3
    batch_size: int = 256
    # residual quantizer
    levels: int = 4
    codebook_size: int = 256
    beta: float = 0.25


def _coders(features: np.ndarray, config: PretrainConfig, streams: RngStream, prefix: str,
            encoder: Mlp | None, decoder: Mlp | None) -> tuple[np.ndarray, Mlp, Mlp]:
    """The float32 features and the encoder/decoder pair: the ones passed in,
    else ReLU MLPs drawn from `{prefix}_encoder` and `{prefix}_decoder`, the
    decoder mirroring the encoder's layer sizes."""
    x_all = np.asarray(features, dtype=np.float32)
    if x_all.shape[0] == 0:
        raise ValueError("features must be non-empty")
    sizes = [x_all.shape[1], *config.hidden, config.latent_dim]
    activations = relu_layers(len(sizes) - 1)
    if encoder is None:
        encoder = Mlp.create(sizes, activations, streams.generator(f"{prefix}_encoder"))
    if decoder is None:
        decoder = Mlp.create(sizes[::-1], activations, streams.generator(f"{prefix}_decoder"))
    return x_all, encoder, decoder


def train_autoencoder(features: np.ndarray, config: PretrainConfig, streams: RngStream,
                      encoder: Mlp | None = None, decoder: Mlp | None = None,
                      ) -> tuple[np.ndarray, list[float]]:
    """Train the reconstruction autoencoder and return (latents, loss log).

    The returned (n, latent_dim) float32 latents are the initial full item
    embeddings. Raises DivergenceError naming the step if the loss goes
    non-finite.
    """
    x_all, encoder, decoder = _coders(features, config, streams, "ae", encoder, decoder)
    n = len(x_all)
    batch_rng = streams.generator("ae_batches")
    losses: list[float] = []
    for step in range(config.steps):
        idx = batch_rng.integers(0, n, size=min(config.batch_size, n))
        x = x_all[idx]
        z, enc_cache = mlp_forward(encoder, x)
        x_hat, dec_cache = mlp_forward(decoder, z)
        diff = x_hat - x
        loss = float((diff ** 2).sum(axis=1).mean())
        if not np.isfinite(loss):
            raise DivergenceError(f"autoencoder loss diverged at step {step}")
        losses.append(loss)
        g_out = (2.0 / len(idx)) * diff
        dec_wg, dec_bg, g_z = mlp_backward(decoder, dec_cache, g_out)
        enc_wg, enc_bg, _ = mlp_backward(encoder, enc_cache, g_z)
        sgd_step([*decoder.params(), *encoder.params()], [*dec_wg, *dec_bg, *enc_wg, *enc_bg],
                 config.lr)

    latents, _ = mlp_forward(encoder, x_all)
    return latents.astype(np.float32), losses


def rq_encode(z: np.ndarray, codebooks: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy level-wise residual quantization.

    Returns (codes, residuals, z_hat) where residuals stacks r_0 .. r_l
    (l+1 entries; r_0 = z and r_l is the final quantization error) and
    z_hat is the sum of the selected codebook rows. Ties in the nearest-row
    search break to the lowest index.
    """
    z = np.asarray(z)
    if z.ndim != 2:
        raise ValueError(f"rq_encode needs (batch, dim) latents, got shape {z.shape}")
    levels = codebooks.shape[0]
    b = z.shape[0]
    codes = np.empty((b, levels), dtype=np.int64)
    residuals = np.empty((levels + 1, b, z.shape[1]), dtype=z.dtype)
    residuals[0] = z
    z_hat = np.zeros_like(z)
    r = z
    for j in range(levels):
        c = nearest_rows(r, codebooks[j])
        codes[:, j] = c
        rows = codebooks[j][c]
        z_hat = z_hat + rows
        r = r - rows
        residuals[j + 1] = r
    return codes, residuals, z_hat


def init_codebooks_kmeans(z_batch: np.ndarray, levels: int, codebook_size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Level-wise k-means on the residuals of one batch.

    Centroids that attract no residual (padding when the batch has fewer
    distinct residuals than rows) are re-seeded from random residuals.
    """
    z_batch = np.asarray(z_batch)
    books = np.zeros((levels, codebook_size, z_batch.shape[1]), dtype=z_batch.dtype)
    r = z_batch.copy()
    for j in range(levels):
        centroids, assignments = kmeans(r, codebook_size, iters=10, rng=rng)
        used = np.bincount(assignments, minlength=codebook_size) > 0
        for t in np.flatnonzero(~used):
            centroids[t] = r[rng.integers(0, len(r))]
        books[j] = centroids.astype(z_batch.dtype)
        r = r - books[j][nearest_rows(r, books[j])]
    return books


@dataclass
class RqVaeModel:
    encoder: Mlp
    codebooks: np.ndarray
    loss_log: list[float] = field(default_factory=list)


def train_rqvae(features: np.ndarray, config: PretrainConfig, streams: RngStream,
                encoder: Mlp | None = None, decoder: Mlp | None = None,
                ) -> tuple[np.ndarray, RqVaeModel]:
    """Train the residual-quantized autoencoder; return (codes, model).

    Gradient routing follows the stop-gradient structure of the loss: the
    codebook term pulls selected rows toward the residuals, the commitment
    term (weight beta) pulls the encoder toward the chosen rows, and the
    reconstruction gradient reaches the encoder through the straight-through
    estimator. The trained codebooks only shape the codes; callers are
    expected to discard them for federation.
    """
    x_all, encoder, decoder = _coders(features, config, streams, "rq", encoder, decoder)
    n = len(x_all)
    batch_rng = streams.generator("rq_batches")
    first = batch_rng.integers(0, n, size=min(config.batch_size, n))
    z0, _ = mlp_forward(encoder, x_all[first])
    codebooks = init_codebooks_kmeans(z0, config.levels, config.codebook_size,
                                      streams.generator("rq_kmeans"))

    model = RqVaeModel(encoder, codebooks)
    for step in range(config.steps):
        idx = batch_rng.integers(0, n, size=min(config.batch_size, n))
        x = x_all[idx]
        b = len(idx)
        z, enc_cache = mlp_forward(encoder, x)
        codes, residuals, z_hat = rq_encode(z, model.codebooks)
        x_hat, dec_cache = mlp_forward(decoder, z_hat)

        diff = x_hat - x
        recon = float((diff ** 2).sum(axis=1).mean())
        quant = float((residuals[1:] ** 2).sum(axis=2).mean(axis=1).sum() * (1 + config.beta))
        loss = recon + quant
        if not np.isfinite(loss):
            raise DivergenceError(f"residual quantizer loss diverged at step {step}")
        model.loss_log.append(loss)

        g_out = (2.0 / b) * diff
        dec_wg, dec_bg, g_zhat = mlp_backward(decoder, dec_cache, g_out)
        # straight-through: reconstruction gradient lands on z unchanged
        g_z = g_zhat + (2.0 * config.beta / b) * residuals[1:].sum(axis=0)
        enc_wg, enc_bg, _ = mlp_backward(encoder, enc_cache, g_z)

        book_grad = scatter_rows(level_rows(codes, config.codebook_size),
                                 (-2.0 / b) * residuals[1:].swapaxes(0, 1),
                                 model.codebooks.dtype)
        sgd_step([model.codebooks, *decoder.params(), *encoder.params()],
                 [book_grad, *dec_wg, *dec_bg, *enc_wg, *enc_bg], config.lr)

    return assign_codes(x_all, model), model


def assign_codes(features: np.ndarray, model: RqVaeModel) -> np.ndarray:
    """Deterministic code assignment from a trained quantizer."""
    z, _ = mlp_forward(model.encoder, np.asarray(features, dtype=np.float32))
    codes, _, _ = rq_encode(z, model.codebooks)
    return codes


def write_codes(path: str | Path, codes: np.ndarray) -> None:
    codes = np.asarray(codes)
    lines = [f"# codes v1 levels={codes.shape[1]}"]
    lines += [f"{i}\t{','.join(str(int(c)) for c in row)}" for i, row in enumerate(codes)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_codes(path: str | Path) -> np.ndarray:
    rows: dict[int, list[int]] = {}
    levels = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            item, values = line.split("\t")
            parsed = [int(v) for v in values.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if levels is None:
            levels = len(parsed)
        elif len(parsed) != levels:
            raise ValueError(f"{path}:{lineno}: expected {levels} codes")
        rows[int(item)] = parsed
    if not rows:
        raise ValueError(f"{path}: no codes")
    n = max(rows) + 1
    if set(rows) != set(range(n)):
        raise ValueError(f"{path}: item ids not dense in [0, {n})")
    return np.array([rows[i] for i in range(n)], dtype=np.int64)
