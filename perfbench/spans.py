"""Outside-in tracing of the program's public functions.

`Tracer.install` replaces each traced function where the program looks it
up (`fedembed.federation.local_step`, `fedembed.metrics.score`, the adapter
classes' methods, ...) with a wrapper that records a span: name, parent
span, start, end and an optional size. Spans stay in memory and are written
out when the run ends; `layer_metrics` turns them into the per-layer
metrics, with self time (a span's duration minus its children's) where a
layer's own work is wanted. A metric whose spans never occurred is reported
as missing (None), never as zero.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _nbytes(tensors) -> float:
    if isinstance(tensors, np.ndarray):
        return float(tensors.nbytes)
    return float(sum(_nbytes(t) for t in tensors))


def _aggregate_in(args, kwargs, result) -> float:
    return _nbytes([t for client in args[0] for t in client])


def _run_round_phase(args) -> str:
    sim = args[0]
    return "run_round.warmup" if sim.round < sim.warmup_rounds else "run_round.peft"


@dataclass(frozen=True)
class Target:
    owner: str             # module path, or "module:Class"
    attr: str
    span: str
    size: Callable | None = None    # (args, kwargs, result) -> recorded size
    pick: Callable | None = None    # (args) -> span name, overriding `span`


ADAPTERS = ("FullAdapter", "LoraAdapter", "HashAdapter", "RqVaeAdapter")

TARGETS = (
    Target("fedembed.federation:Simulation", "run_round", "run_round",
           size=lambda a, k, r: float(len(r.clients)), pick=_run_round_phase),
    Target("fedembed.federation", "select_clients", "select_clients"),
    Target("fedembed.federation", "aggregate", "aggregate", size=_aggregate_in),
    Target("fedembed.federation", "local_step", "local_step"),
    Target("fedembed.federation", "serialize_upload", "serialize_upload"),
    Target("fedembed.federation", "save_checkpoint", "save_checkpoint"),
    Target("fedembed.federation", "apply_ldp", "apply_ldp"),
    Target("fedembed.federation", "synthesize_interactions", "synthesize"),
    Target("fedembed.federation", "leave_one_out_split", "split"),
    Target("fedembed.federation", "attach_eval_negatives", "eval_candidates"),
    Target("fedembed.federation", "build_item_features", "features"),
    Target("fedembed.federation", "train_autoencoder", "autoencoder"),
    Target("fedembed.federation", "train_rqvae", "rqvae"),
    Target("fedembed.backbones", "score", "score"),
    Target("fedembed.backbones", "score_backward", "score_backward"),
    Target("fedembed.backbones", "sgd_step", "sgd_step",
           size=lambda a, k, r: _nbytes(a[0])),
    Target("fedembed.backbones", "mlp_forward", "mlp_forward"),
    Target("fedembed.backbones", "mlp_backward", "mlp_backward"),
    Target("fedembed.pretrain", "mlp_forward", "mlp_forward"),
    Target("fedembed.pretrain", "mlp_backward", "mlp_backward"),
    Target("fedembed.pretrain", "kmeans", "kmeans"),
    Target("fedembed.pretrain", "rq_encode", "rq_encode"),
    Target("fedembed.data", "kmeans", "kmeans"),
    Target("fedembed.privacy", "laplace_noise", "laplace_noise",
           size=lambda a, k, r: float(np.prod(a[0]))),
    Target("fedembed.rng:RngStream", "generator", "generator"),
    Target("fedembed.strategies", "load_checkpoint", "load_checkpoint"),
    Target("fedembed.metrics", "evaluate", "evaluate"),
    Target("fedembed.metrics", "rank_test_item", "rank_test_item"),
    Target("fedembed.metrics", "top_k_items", "top_k_items"),
    Target("fedembed.metrics", "score", "score"),
    Target("fedembed.cli", "cmd_eval", "cmd_eval"),
    Target("fedembed.cli", "Simulation", "eval_setup"),
    Target("fedembed.cli", "save_sim_state", "save_sim_state"),
    Target("fedembed.cli", "load_sim_state", "load_sim_state"),
    *(Target(f"fedembed.strategies:{cls}", "compose", "compose") for cls in ADAPTERS),
    *(Target(f"fedembed.strategies:{cls}", "grads", "grads",
             size=lambda a, k, r: _nbytes(r)) for cls in ADAPTERS),
    *(Target(f"fedembed.strategies:{cls}", "copy", "adapter_copy") for cls in ADAPTERS),
)


def _resolve(owner: str):
    import importlib
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of wrapped functions; single-threaded, like the program
    at `federation.workers=1`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, span: str, size: Callable | None = None,
             pick: Callable | None = None) -> Callable:
        fixed = self._id(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(self._id(pick(args)) if pick else fixed)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.size.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if size is not None:
                self.size[idx] = size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> "Tracer":
        for t in targets:
            owner = _resolve(t.owner)
            original = getattr(owner, t.attr)
            self._patches.append((owner, t.attr, original))
            setattr(owner, t.attr, self.wrap(original, t.span, t.size, t.pick))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "size": np.frombuffer(self.size, dtype=np.float64).copy()}

    def save(self, path: str | Path) -> None:
        np.savez_compressed(path, **self.arrays())


class SpanTable:
    """Queries over recorded spans: counts, durations, self times and sizes,
    optionally restricted to spans with a given ancestor."""

    def __init__(self, spans: dict[str, np.ndarray]):
        self.names = [str(n) for n in spans["names"]]
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.size = spans["size"]
        self.dur = spans["end"] - spans["start"]
        children = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - children
        # ancestors[i]: bit set of span names on the path from the root to i
        bits = [1 << int(n) for n in self.name]
        anc = [0] * len(bits)
        for i, p in enumerate(self.parent.tolist()):
            anc[i] = bits[i] | (anc[p] if p >= 0 else 0)
        self.ancestors = anc

    def _bit(self, name: str) -> int:
        return 1 << self.names.index(name) if name in self.names else 0

    def select(self, name: str | tuple[str, ...], under: tuple[str, ...] = ()) -> np.ndarray:
        names = (name,) if isinstance(name, str) else name
        ids = [self.names.index(n) for n in names if n in self.names]
        sel = np.isin(self.name, ids)
        if under:
            mask = 0
            for u in under:
                mask |= self._bit(u)
            sel &= np.array([(a & mask) != 0 for a in self.ancestors], dtype=bool)
        return sel

    def count(self, *args, **kwargs) -> int:
        return int(self.select(*args, **kwargs).sum())

    def mean(self, what: np.ndarray, *args, **kwargs) -> float | None:
        sel = self.select(*args, **kwargs)
        return float(what[sel].mean()) if sel.any() else None

    def total(self, what: np.ndarray, *args, **kwargs) -> float | None:
        sel = self.select(*args, **kwargs)
        return float(what[sel].sum()) if sel.any() else None


def _scale(value: float | None, factor: float) -> float | None:
    return None if value is None else value * factor


def _per(value: float | None, base: float) -> float | None:
    return None if value is None or base <= 0 else value / base


ROUND = ("run_round.warmup", "run_round.peft")
READ = ("evaluate", "top_k_items")

# name -> (unit, better); the order is the report's.
LAYER_METRICS = {
    "federation.round_warmup_ms": ("ms", "lower"),
    "federation.round_peft_ms": ("ms", "lower"),
    "federation.client_self_us": ("us", "lower"),
    "federation.select_us": ("us", "lower"),
    "federation.aggregate_ms": ("ms", "lower"),
    "federation.aggregate_in_mb": ("MB", "lower"),
    "federation.save_state_ms": ("ms", "lower"),
    "federation.load_state_ms": ("ms", "lower"),
    "backbones.local_step_us": ("us", "lower"),
    "backbones.local_step_calls": ("count", "lower"),
    "backbones.local_step_self_us": ("us", "lower"),
    "backbones.score_train_us": ("us", "lower"),
    "backbones.score_read_us": ("us", "lower"),
    "backbones.score_backward_us": ("us", "lower"),
    "strategies.compose_train_us": ("us", "lower"),
    "strategies.compose_read_us": ("us", "lower"),
    "strategies.grads_us": ("us", "lower"),
    "strategies.grad_kb_per_step": ("KB", "lower"),
    "strategies.adapter_copy_us": ("us", "lower"),
    "strategies.serialize_upload_us": ("us", "lower"),
    "strategies.checkpoint_save_ms": ("ms", "lower"),
    "strategies.checkpoint_load_ms": ("ms", "lower"),
    "numerics.sgd_step_us": ("us", "lower"),
    "numerics.sgd_kb_per_step": ("KB", "lower"),
    "numerics.mlp_forward_us": ("us", "lower"),
    "numerics.mlp_backward_us": ("us", "lower"),
    "numerics.kmeans_s": ("s", "lower"),
    "rng.generator_calls": ("count", "lower"),
    "rng.generator_us": ("us", "lower"),
    "data.synthesize_s": ("s", "lower"),
    "data.split_s": ("s", "lower"),
    "data.eval_candidates_s": ("s", "lower"),
    "data.features_s": ("s", "lower"),
    "pretrain.autoencoder_s": ("s", "lower"),
    "pretrain.rqvae_s": ("s", "lower"),
    "pretrain.rq_encode_ms": ("ms", "lower"),
    "privacy.ldp_ms": ("ms", "lower"),
    "privacy.noised_mvalues": ("Mvalues", "lower"),
    "metrics.evaluate_ms": ("ms", "lower"),
    "metrics.rank_calls": ("count", "lower"),
    "metrics.topk_user_us": ("us", "lower"),
    "cli.eval_setup_s": ("s", "lower"),
    "cli.eval_score_ms": ("ms", "lower"),
}


def layer_metrics(spans: dict[str, np.ndarray], client_rounds: int, rounds: int,
                  setups: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced repeat. `setups` is the number of
    `Simulation` constructions (the run's own and the one `fedembed eval`
    makes); per-setup metrics are divided by it."""
    t = SpanTable(spans)
    d, s, z = t.dur, t.self_time, t.size
    ms, us = 1e3, 1e6
    evaluations = t.count("evaluate")
    return {
        "federation.round_warmup_ms": _scale(t.mean(d, "run_round.warmup"), ms),
        "federation.round_peft_ms": _scale(t.mean(d, "run_round.peft"), ms),
        "federation.client_self_us": _scale(_per(t.total(s, ROUND), client_rounds), us),
        "federation.select_us": _scale(t.mean(d, "select_clients"), us),
        "federation.aggregate_ms": _scale(t.mean(d, "aggregate"), ms),
        "federation.aggregate_in_mb": _scale(t.mean(z, "aggregate"), 1e-6),
        "federation.save_state_ms": _scale(t.mean(d, "save_sim_state"), ms),
        "federation.load_state_ms": _scale(t.mean(d, "load_sim_state"), ms),
        "backbones.local_step_us": _scale(t.mean(d, "local_step"), us),
        "backbones.local_step_calls": _per(float(t.count("local_step")) or None, client_rounds),
        "backbones.local_step_self_us": _scale(t.mean(s, "local_step"), us),
        "backbones.score_train_us": _scale(t.mean(d, "score", under=("local_step",)), us),
        "backbones.score_read_us": _scale(t.mean(d, "score", under=READ), us),
        "backbones.score_backward_us": _scale(t.mean(d, "score_backward"), us),
        "strategies.compose_train_us": _scale(t.mean(d, "compose", under=("local_step",)), us),
        "strategies.compose_read_us": _scale(t.mean(d, "compose", under=READ), us),
        "strategies.grads_us": _scale(t.mean(d, "grads"), us),
        "strategies.grad_kb_per_step": _scale(t.mean(z, "grads"), 1e-3),
        "strategies.adapter_copy_us": _scale(t.mean(d, "adapter_copy"), us),
        "strategies.serialize_upload_us": _scale(t.mean(d, "serialize_upload"), us),
        "strategies.checkpoint_save_ms": _scale(t.mean(d, "save_checkpoint"), ms),
        "strategies.checkpoint_load_ms": _scale(t.mean(d, "load_checkpoint"), ms),
        "numerics.sgd_step_us": _scale(t.mean(d, "sgd_step"), us),
        "numerics.sgd_kb_per_step": _scale(t.mean(z, "sgd_step"), 1e-3),
        "numerics.mlp_forward_us": _scale(t.mean(d, "mlp_forward"), us),
        "numerics.mlp_backward_us": _scale(t.mean(d, "mlp_backward"), us),
        "numerics.kmeans_s": _per(t.total(d, "kmeans"), setups),
        "rng.generator_calls": _per(float(t.count("generator", under=ROUND)) or None,
                                    client_rounds),
        "rng.generator_us": _scale(t.mean(d, "generator"), us),
        "data.synthesize_s": _per(t.total(d, "synthesize"), setups),
        "data.split_s": _per(t.total(d, "split"), setups),
        "data.eval_candidates_s": _per(t.total(d, "eval_candidates"), setups),
        "data.features_s": _per(t.total(d, "features"), setups),
        "pretrain.autoencoder_s": _per(t.total(d, "autoencoder"), setups),
        "pretrain.rqvae_s": _per(t.total(d, "rqvae"), setups),
        "pretrain.rq_encode_ms": _scale(t.mean(d, "rq_encode"), ms),
        "privacy.ldp_ms": _scale(t.mean(d, "apply_ldp"), ms),
        "privacy.noised_mvalues": _scale(_per(t.total(z, "laplace_noise"), rounds), 1e-6),
        "metrics.evaluate_ms": _scale(t.mean(d, "evaluate"), ms),
        "metrics.rank_calls": _per(float(t.count("rank_test_item")) or None, evaluations),
        "metrics.topk_user_us": _scale(t.mean(d, "top_k_items"), us),
        "cli.eval_setup_s": t.mean(d, "eval_setup"),
        "cli.eval_score_ms": _scale(t.mean(d, "evaluate", under=("cmd_eval",)), ms),
    }
