"""Item embedding composition: frozen full table plus a trainable compressed
adapter (low-rank, hashed shared table with optional squeeze-excitation
reweighting, or residual-quantized codebooks).

Every adapter exposes the same surface: ``compose`` builds final embeddings
for a batch of item ids and returns a cache, ``grads`` turns an upstream
embedding gradient into parameter gradients aligned with ``trainable()``,
and ``serialize_upload`` produces the exact little-endian float32 byte
payload a client would transmit. ``comm_cost`` predicts that payload size
without building anything.

The class attribute ``trained`` names the fields ``trainable()`` returns, in
upload order; a field set to None is absent. Clients step private copies of
them in place. The server installs a round's fold with ``set_trainable``, a
rebind that refuses a read-only field: a frozen tensor is a read-only array.

``item_indexed`` names the positions in ``trainable()`` of tensors with one
row per item, and ``item_maps`` the fixed integer fields with one row per
item: hash's ``idx``, each item's h ``hash_index`` values computed once when
the adapter is made or loaded, and rqvae's ``codes``, whose ``idx`` holds
them as rows ``j*d_R + code`` of the stacked codebooks. The one ``copy(rows)``
gives a client copy that holds only those rows of both: it takes local item
ids ``0..len(rows)-1`` against the base rows ``base[rows]``, and every other
trained tensor is copied whole.

The full table and lora also train a chunk of clients at once.
``copy(rows, clients=C)`` holds the C clients' row sets concatenated and
stacks every other trained tensor over a leading client axis (lora's ``b``
becomes ``(C, k, rank)``). ``compose`` and ``grads`` then take ``(C, B)`` ids
into the concatenated rows, each client's ids within its own segment, and
give ``(C, B, k)`` embeddings and gradients aligned with that copy.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .numerics import (Mlp, check_finite, init_layer_weight, init_uniform, level_rows,
                       mlp_backward, mlp_forward, scatter_rows)
from .rng import RngStream

STRATEGY_KINDS = ("full", "lora", "hash", "rqvae")
STRATEGY_INITS = ("zero", "base_distribution")


@dataclass
class StrategyConfig:
    """A strategy's settings. `make_adapter`, `comm_cost` and
    `representation_capacity` take them as keywords; these defaults fill in the rest."""

    kind: str = "lora"                 # full | lora | hash | rqvae
    rank: int = 4
    d_h: int = 512
    n_hashes: int = 2
    p: int = 4096
    senet: bool = False
    expansion: int = 16
    levels: int = 4
    d_r: int = 256
    init: str = "zero"                 # zero | base_distribution


def _as_items(items, n: int) -> np.ndarray:
    items = np.atleast_1d(np.asarray(items, dtype=np.int64))
    if items.size and (items.min() < 0 or items.max() >= n):
        raise IndexError(f"item id out of range [0, {n})")
    return items


class Trained:
    """`trainable`/`set_trainable` over the fields that `trained` names, and `copy`."""

    trained: ClassVar[tuple[str, ...]] = ()
    item_indexed: ClassVar[tuple[int, ...]] = ()
    item_maps: ClassVar[tuple[str, ...]] = ()

    def trainable(self) -> list[np.ndarray]:
        return [t for t in (getattr(self, name) for name in self.trained) if t is not None]

    def set_trainable(self, tensors: list[np.ndarray]) -> None:
        names = [name for name in self.trained if getattr(self, name) is not None]
        if len(tensors) != len(names):
            raise ValueError("tensor count mismatch")
        new = []
        for name, t in zip(names, tensors):
            current = getattr(self, name)
            if not current.flags.writeable:
                raise RuntimeError(f"{type(self).__name__}.{name} is frozen (read-only)")
            t = np.asarray(t, dtype=current.dtype)
            if t.shape != current.shape:
                raise ValueError(f"tensor shape {t.shape} != expected {current.shape}")
            new.append(t)
        for name, t in zip(names, new):
            setattr(self, name, t)

    def copy(self, rows: np.ndarray | None = None, clients: int | None = None):
        changes = {name: t for name in self.trained if (t := getattr(self, name)) is not None}
        for i, (name, t) in enumerate(changes.items()):
            if i in self.item_indexed:
                changes[name] = t.copy() if rows is None else t[rows]
            else:
                changes[name] = t.copy() if clients is None else np.repeat(t[None], clients, 0)
        if rows is not None:
            changes.update((name, getattr(self, name)[rows]) for name in self.item_maps)
        return replace(self, **changes)


@dataclass
class FullEmbeddingTable(Trained):
    """The n x k item embeddings: the base table, and also the adapter of
    the warm-up and of the full strategy, which train the table itself.
    Bit-frozen once the warm-up ends: `freeze` makes the array read-only."""

    table: np.ndarray
    kind: str = "full"
    trained: ClassVar[tuple[str, ...]] = ("table",)
    item_indexed: ClassVar[tuple[int, ...]] = (0,)

    @property
    def n_items(self) -> int:
        return self.table.shape[0]

    def freeze(self) -> None:
        self.table.setflags(write=False)

    def compose(self, base: np.ndarray | None, items) -> tuple[np.ndarray, dict]:
        items = _as_items(items, self.n_items)
        return self.table[items].copy(), {"items": items}

    def grads(self, cache: dict, g: np.ndarray) -> list[np.ndarray]:
        return [scatter_rows(self.table, cache["items"], g)]


# the full strategy's adapter, under the name callers outside this module use
FullAdapter = FullEmbeddingTable


@dataclass
class LoraAdapter(Trained):
    """Low-rank correction: per-item vector a_i projected up by shared B.

    B starts exactly zero, so the composed embedding initially equals the
    frozen base bit-for-bit.
    """

    a: np.ndarray   # (n, rank)
    b: np.ndarray   # (k, rank); (C, k, rank) in a copy for C clients
    kind: str = "lora"
    trained: ClassVar[tuple[str, ...]] = ("a", "b")
    item_indexed: ClassVar[tuple[int, ...]] = (0,)

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    @property
    def n_items(self) -> int:
        return self.a.shape[0]

    def compose(self, base: np.ndarray, items) -> tuple[np.ndarray, dict]:
        items = _as_items(items, self.n_items)
        a_rows = self.a[items]
        out = base[items] + a_rows @ self.b.swapaxes(-1, -2)
        return out, {"items": items, "a_rows": a_rows}

    def grads(self, cache: dict, g: np.ndarray) -> list[np.ndarray]:
        db = g.swapaxes(-1, -2) @ cache["a_rows"]
        return [scatter_rows(self.a, cache["items"], g @ self.b),
                db.astype(self.b.dtype, copy=False)]


def hash_index(item_ids, a: int, b: int, p: int, d_h: int) -> np.ndarray:
    """Universal hash ((a*id + b) mod p) mod d_h; pure and in-range."""
    ids = np.asarray(item_ids, dtype=np.int64)
    return ((a * ids + b) % p) % d_h


@dataclass
class HashAdapter(Trained):
    """Shared d_H x k table addressed through h universal hash functions.

    Variant "mean" averages the h hashed vectors; variant "senet" reweights
    them with dynamic weights from a squeeze-excitation net: each vector's
    mean goes through the bias-free ReLU/sigmoid `Mlp` [w1, w2].
    Hash parameters are fixed and never trained; `idx` holds every item's h indices.
    """

    table: np.ndarray                  # (d_H, k)
    hash_a: np.ndarray                 # (h,)
    hash_b: np.ndarray                 # (h,)
    p: int
    idx: np.ndarray                    # (n, h) rows of `table` per item
    w1: np.ndarray | None = None       # (h1, h)
    w2: np.ndarray | None = None       # (h, h1)
    kind: str = "hash"
    trained: ClassVar[tuple[str, ...]] = ("table", "w1", "w2")
    item_maps: ClassVar[tuple[str, ...]] = ("idx",)

    def __post_init__(self):
        if np.any(self.hash_a == 0):
            raise ValueError("hash parameter a must be nonzero")
        if np.any(self.hash_a == self.hash_b):
            raise ValueError("hash parameters must satisfy a != b")
        params = np.concatenate([self.hash_a, self.hash_b])
        if np.any((params < 0) | (params >= self.p)):
            raise ValueError(f"hash parameters must lie in [0, p={self.p})")
        if self.p < self.table.shape[0]:
            raise ValueError("p must be >= table size d_H")
        if (self.w1 is None) != (self.w2 is None):
            raise ValueError("senet needs both w1 and w2")
        self.idx.setflags(write=False)

    @property
    def senet(self) -> bool:
        return self.w1 is not None

    @property
    def n_hashes(self) -> int:
        return len(self.hash_a)

    @property
    def d_h(self) -> int:
        return self.table.shape[0]

    def distinct_index_tuples(self) -> int:
        """How many distinct index tuples the items get, against `representation_capacity`."""
        return len(np.unique(self.idx, axis=0))

    def compose(self, base: np.ndarray, items) -> tuple[np.ndarray, dict]:
        items = _as_items(items, len(self.idx))
        idx = self.idx[items]
        v = self.table[idx]                      # (B, h, k)
        cache: dict = {"items": items, "idx": idx, "v": v}
        if not self.senet:
            out = base[items] + v.mean(axis=1)
            return out, cache
        zeros = [np.zeros(len(w), w.dtype) for w in (self.w1, self.w2)]
        net = Mlp([self.w1, self.w2], zeros, ["relu", "sigmoid"])
        w, net_cache = mlp_forward(net, v.mean(axis=2))     # (B, h), in (0, 1)
        out = base[items] + np.einsum("bh,bhk->bk", w, v)
        cache.update({"w": w, "net": net, "net_cache": net_cache})
        return out, cache

    def grads(self, cache: dict, g: np.ndarray) -> list[np.ndarray]:
        idx, v = cache["idx"], cache["v"]
        if not self.senet:
            dv = np.broadcast_to(g[:, None, :] / self.n_hashes, v.shape)
            return [scatter_rows(self.table, idx, dv)]
        dw = np.einsum("bk,bhk->bh", g, v)            # dL/dw
        (dw1, dw2), _, ds = mlp_backward(cache["net"], cache["net_cache"], dw)
        # the direct path, then the squeeze path through each vector's mean
        dv = cache["w"][:, :, None] * g[:, None, :] + ds[:, :, None] / v.shape[2]
        return [scatter_rows(self.table, idx, dv), dw1.astype(self.w1.dtype, copy=False),
                dw2.astype(self.w2.dtype, copy=False)]


@dataclass
class RqVaeAdapter(Trained):
    """Multi-level codebooks plus frozen per-item semantic codes; `idx` holds
    the codes as rows of the codebooks stacked into one (l*d_R, k) table."""

    codebooks: np.ndarray    # (l, d_R, k)
    codes: np.ndarray        # (n, l) int, immutable during federation
    kind: str = "rqvae"
    idx: np.ndarray = field(init=False, repr=False)
    trained: ClassVar[tuple[str, ...]] = ("codebooks",)
    item_maps: ClassVar[tuple[str, ...]] = ("codes",)

    def __post_init__(self):
        levels, d_r, _ = self.codebooks.shape
        if self.codes.shape[1] != levels:
            raise ValueError("codes length must equal number of codebook levels")
        if self.codes.size and (self.codes.min() < 0 or self.codes.max() >= d_r):
            raise ValueError(f"semantic codes out of range [0, {d_r})")
        self.codes.setflags(write=False)
        self.idx = level_rows(self.codes, d_r)

    @property
    def levels(self) -> int:
        return self.codebooks.shape[0]

    @property
    def d_r(self) -> int:
        return self.codebooks.shape[1]

    @property
    def n_items(self) -> int:
        return self.codes.shape[0]

    def compose(self, base: np.ndarray, items) -> tuple[np.ndarray, dict]:
        items = _as_items(items, self.n_items)
        idx = self.idx[items]                    # (B, l)
        rows = self.codebooks.reshape(-1, self.codebooks.shape[2])
        out = base[items]
        for j in range(self.levels):
            out = out + rows[idx[:, j]]
        return out, {"items": items, "idx": idx}

    def grads(self, cache: dict, g: np.ndarray) -> list[np.ndarray]:
        idx = cache["idx"]
        d = scatter_rows(self.codebooks.reshape(-1, g.shape[-1]), idx,
                         np.repeat(g[:, None, :], self.levels, axis=1))
        return [d.reshape(self.codebooks.shape)]


Adapter = FullEmbeddingTable | LoraAdapter | HashAdapter | RqVaeAdapter


def draw_hash_params(rng: np.random.Generator, h: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """h (a, b) pairs with a in [1, p), b in [0, p), a != b."""
    a = np.empty(h, dtype=np.int64)
    b = np.empty(h, dtype=np.int64)
    for j in range(h):
        while True:
            aj = int(rng.integers(1, p))
            bj = int(rng.integers(0, p))
            if aj != bj:
                a[j], b[j] = aj, bj
                break
    return a, b


def make_adapter(kind: str, n_items: int, k: int, streams: RngStream, *,
                 codes: np.ndarray | None = None, dtype=np.float32, **settings) -> Adapter:
    """Construct a freshly initialized adapter from `StrategyConfig` settings.

    init="zero" zero-fills the shared hash table / codebooks so composition
    starts as an exact identity over the frozen base; init="base_distribution"
    uses the same small-uniform distribution as the full embedding instead.
    """
    s = StrategyConfig(kind, **settings)
    if s.init not in STRATEGY_INITS:
        raise ValueError(f"unknown init {s.init!r}")
    maybe_zero = (lambda shape, rng: np.zeros(shape, dtype=dtype)) if s.init == "zero" \
        else (lambda shape, rng: init_uniform(rng, shape, dtype=dtype))

    if kind == "full":
        return FullEmbeddingTable(init_uniform(streams.generator("init_full"), (n_items, k),
                                               dtype=dtype))
    if kind == "lora":
        a = init_uniform(streams.generator("init_lora_a"), (n_items, s.rank), dtype=dtype)
        b = np.zeros((k, s.rank), dtype=dtype)
        return LoraAdapter(a, b)
    if kind == "hash":
        if math.gcd(s.p, s.d_h) > 1:
            warnings.warn(f"hash modulus p={s.p} shares the factor {math.gcd(s.p, s.d_h)} "
                          f"with d_h={s.d_h}, so the hash functions give fewer distinct index "
                          f"tuples than representation_capacity claims; a prime p avoids "
                          f"this", stacklevel=2)
        ha, hb = draw_hash_params(streams.generator("init_hash_fns"), s.n_hashes, s.p)
        table = maybe_zero((s.d_h, k), streams.generator("init_hash_table"))
        w1 = w2 = None
        if s.senet:
            h1 = s.expansion * s.n_hashes
            w1 = init_layer_weight(streams.generator("init_senet_w1"), h1, s.n_hashes, dtype)
            w2 = init_layer_weight(streams.generator("init_senet_w2"), s.n_hashes, h1, dtype)
        idx = hash_index(np.arange(n_items)[:, None], ha, hb, s.p, s.d_h)
        return HashAdapter(table, ha, hb, s.p, idx, w1, w2)
    if kind == "rqvae":
        if codes is None:
            raise ValueError("rqvae adapter requires pre-trained semantic codes")
        codes = np.array(codes, dtype=np.int64)
        books = maybe_zero((s.levels, s.d_r, k), streams.generator("init_codebooks"))
        return RqVaeAdapter(books, codes)
    raise ValueError(f"unknown strategy kind {kind!r}")


def serialize_upload(adapter: Adapter) -> bytes:
    """Little-endian float32 bytes of all trainable parameters, in the fixed
    per-strategy tensor order."""
    return b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes()
                    for t in adapter.trainable())


def comm_cost(kind: str, n_items: int, k: int, **settings) -> int:
    """Exact upload bytes for one client under `StrategyConfig` settings."""
    s = StrategyConfig(kind, **settings)
    if kind == "full":
        return n_items * k * 4
    if kind == "lora":
        return s.rank * (n_items + k) * 4
    if kind == "hash":
        cost = s.d_h * k * 4
        if s.senet:
            h1 = s.expansion * s.n_hashes
            cost += 2 * h1 * s.n_hashes * 4
        return cost
    if kind == "rqvae":
        return s.levels * s.d_r * k * 4
    raise ValueError(f"unknown strategy kind {kind!r}")


def representation_capacity(kind: str, n_items: int, **settings) -> int:
    """How many distinct item representations the strategy can express."""
    s = StrategyConfig(kind, **settings)
    if kind in ("full", "lora"):
        return n_items
    if kind == "rqvae":
        return s.d_r ** s.levels
    if kind == "hash":
        return math.comb(s.d_h + s.n_hashes - 1, s.n_hashes)
    raise ValueError(f"unknown strategy kind {kind!r}")


# Checkpoint layout: magic FPEB, version u16, strategy tag u8, u32 dims,
# integer state (hash params / semantic codes), base table payload, then the
# adapter's trainable payload, all little-endian.

_MAGIC = b"FPEB"
_VERSION = 1
_TAGS = {"full": 0, "lora": 1, "hash": 2, "hash_senet": 3, "rqvae": 4}
_TAG_NAMES = {v: k for k, v in _TAGS.items()}


def _tag_of(adapter: Adapter) -> int:
    if isinstance(adapter, HashAdapter):
        return _TAGS["hash_senet"] if adapter.senet else _TAGS["hash"]
    return _TAGS[adapter.kind]


def save_checkpoint(path: str | Path, base: FullEmbeddingTable, adapter: Adapter) -> None:
    n, k = base.table.shape
    tag = _tag_of(adapter)
    out = [_MAGIC, struct.pack("<HB", _VERSION, tag), struct.pack("<II", n, k)]
    if isinstance(adapter, LoraAdapter):
        out.append(struct.pack("<I", adapter.rank))
    elif isinstance(adapter, HashAdapter):
        h1 = 0 if adapter.w1 is None else adapter.w1.shape[0]
        out.append(struct.pack("<IIII", adapter.d_h, adapter.n_hashes, adapter.p, h1))
        out.append(np.ascontiguousarray(adapter.hash_a, dtype="<u4").tobytes())
        out.append(np.ascontiguousarray(adapter.hash_b, dtype="<u4").tobytes())
    elif isinstance(adapter, RqVaeAdapter):
        out.append(struct.pack("<II", adapter.levels, adapter.d_r))
        out.append(np.ascontiguousarray(adapter.codes, dtype="<u4").tobytes())
    out.append(np.ascontiguousarray(base.table, dtype="<f4").tobytes())
    if adapter.kind != "full":
        out.append(serialize_upload(adapter))
    Path(path).write_bytes(b"".join(out))


def load_checkpoint(path: str | Path) -> tuple[FullEmbeddingTable, Adapter]:
    """Read what `save_checkpoint` wrote; a `full` checkpoint's table is its
    own adapter, so it comes back as the same object twice. A truncated
    section, trailing bytes, and hash parameters or codes out of range
    (checked by the adapters) raise a `ValueError` that names the section, and
    a NaN or infinity in the base table or adapter a `FloatingPointError`."""
    buf = Path(path).read_bytes()
    if buf[:4] != _MAGIC:
        raise ValueError("not an embedding checkpoint (bad magic)")
    view, off = memoryview(buf), 4

    def take(section: str, nbytes: int) -> memoryview:
        nonlocal off
        if off + nbytes > len(buf):
            raise ValueError(f"checkpoint truncated in the {section}: {nbytes} bytes "
                             f"needed at offset {off}, {len(buf) - off} left")
        off += nbytes
        return view[off - nbytes:off]

    def ints(section: str, fmt: str) -> tuple[int, ...]:
        return struct.unpack(fmt, take(section, struct.calcsize(fmt)))

    def u4(section: str, *shape: int) -> np.ndarray:
        return np.frombuffer(take(section, 4 * math.prod(shape)),
                             dtype="<u4").reshape(shape).astype(np.int64)

    def f4(section: str, *shape: int) -> np.ndarray:
        values = np.frombuffer(take(section, 4 * math.prod(shape)),
                               dtype="<f4").reshape(shape).copy()
        check_finite(values, "the checkpoint's %s", section)
        return values

    version, tag = ints("header", "<HB")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    name = _TAG_NAMES.get(tag)
    if name is None:
        raise ValueError(f"unknown strategy tag {tag}")
    n, k = ints("header", "<II")
    if name == "lora":
        (rank,) = ints("header", "<I")
    elif name in ("hash", "hash_senet"):
        d_h, h, p, h1 = ints("hash parameters", "<IIII")
        ha, hb = u4("hash parameters", h), u4("hash parameters", h)
    elif name == "rqvae":
        levels, d_r = ints("codes", "<II")
        codes = u4("codes", n, levels)
    base = FullEmbeddingTable(f4("base table", n, k))

    if name == "full":
        adapter: Adapter = base
    elif name == "lora":
        adapter = LoraAdapter(f4("adapter", n, rank), f4("adapter", k, rank))
    elif name in ("hash", "hash_senet"):
        htable = f4("adapter", d_h, k)
        w1 = w2 = None
        if name == "hash_senet":
            w1, w2 = f4("adapter", h1, h), f4("adapter", h, h1)
        with np.errstate(divide="ignore"):     # p = 0 is refused by the adapter
            idx = hash_index(np.arange(n)[:, None], ha, hb, p, d_h)
        adapter = HashAdapter(htable, ha, hb, int(p), idx, w1, w2)
    else:
        adapter = RqVaeAdapter(f4("adapter", levels, d_r, k), codes)
    if off != len(buf):
        raise ValueError(f"checkpoint has {len(buf) - off} trailing bytes after the adapter")
    return base, adapter
