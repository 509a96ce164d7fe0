"""Round orchestration: client sampling, local training over immutable
snapshots, FedAvg aggregation, the warm-up -> freeze schedule, and exact
per-round communication accounting.

Clients are simulated in-process. Under every backbone and adapter, a
round's clients train in lock step, up to `LOCK_STEP_CLIENTS` at a time:
step s of every client in a chunk is one `local_step` over stacked copies.
Every random draw is keyed by (seed, purpose, client, round), dropout masks
included, and a client's result does not depend on which clients share its
chunk, so results do not depend on the order in which clients are trained.

A client trains only the item rows it touches: the positives and negatives
of all its local epochs, laid out by `_draw` as a chunk's arrays. Item-indexed
tensors go up as `RowUpload`s of those rows; every other tensor goes up
whole. The fold is the round's snapshot plus each client's weighted change:
a row upload costs O(rows * k), a row that no client uploads keeps its bytes,
and the server holds no dense table per client unless local DP made one.
Each client is still charged the paper's dense payload. Every sampled client
takes the same path, so one with no training positives or no local epoch
uploads an empty row set that is clipped and noised like any other.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics
from .backbones import (PFEDREC_DROPOUT, Backbone, UserState, local_step, make_backbone,
                        make_user_state)
from .config import ExperimentConfig
from .data import (EvalSplit, InteractionLog, attach_eval_negatives, build_item_features,
                   choice_excluding, leave_one_out_split, load_interactions,
                   synthesize_interactions)
from .numerics import Mlp, check_finite, init_uniform, relu_layers
from .pretrain import PretrainConfig, train_autoencoder, train_rqvae
from .privacy import apply_cdp, apply_ldp, clip_update
from .rng import RngStream
from .strategies import (Adapter, FullEmbeddingTable, make_adapter, save_checkpoint,
                         serialize_upload)

# clients trained in lock step by one `_train` call: the chunk bounds the
# stacked copies, which for a whole round would raise peak memory
LOCK_STEP_CLIENTS = 64


@dataclass
class RoundReport:
    round: int
    phase: str                      # warmup | peft
    clients: list[int]
    bytes_per_client: int
    aggregate_bytes: int
    train_loss: float
    base_hash: str                  # sha256 of the full table bytes


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    metric_history: list[tuple[int, dict[str, float]]]
    final_metrics: dict[str, float]
    config_hash: str
    seed: int


class RowUpload(NamedTuple):
    """An item-indexed tensor as a client uploads it: `values[i]` is row
    `rows[i]`; every other row is the round's snapshot."""

    rows: np.ndarray
    values: np.ndarray


Upload = np.ndarray | RowUpload


def densify(t: Upload, snapshot: np.ndarray) -> np.ndarray:
    """The whole tensor an upload stands for."""
    if not isinstance(t, RowUpload):
        return t
    out = snapshot.copy()
    out[t.rows] = t.values
    return out


class Draws(NamedTuple):
    """A chunk's draws, laid out for lock step: clients most steps first
    (stably). Client j holds the sorted item rows `rows[starts[j]:starts[j + 1]]`,
    and its step s trains on `items[s, j]`, ids into `rows`, with `labels[s, j]`
    where `mask[s, j]`; padding points at the client's own first row."""

    clients: np.ndarray
    rows: np.ndarray
    starts: np.ndarray      # (C + 1,)
    n_steps: np.ndarray
    items: np.ndarray       # (S, C, batch)
    labels: np.ndarray      # float32, like `items`
    mask: np.ndarray        # bool, like `items`


def select_clients(n_users: int, ratio: float, streams: RngStream,
                   round_idx: int) -> np.ndarray:
    """ceil(ratio * n_users) distinct ids, uniform, keyed by round; the count is
    exact for the decimal `ratio` prints as (0.07 of 100 is 7, not 8)."""
    count = math.ceil(Fraction(str(ratio)) * n_users)
    rng = streams.generator("select", round_idx)
    return np.sort(rng.choice(n_users, size=count, replace=False))


def aggregate(uploads: list[list[Upload]], snapshot: list[np.ndarray],
              weights: np.ndarray | None = None) -> list[np.ndarray]:
    """Positionwise weighted mean of client uploads (FedAvg), in delta form.

    snapshot: the round's starting tensors, which a `RowUpload` keeps off its
    rows, and whose dtypes the output takes. weights: optional, normalized here.

    Each position starts as a float64 copy of the snapshot; each client in
    turn adds its weighted change `w * (values - snapshot[rows])` on its own
    rows, on every row for a dense upload.
    """
    if not uploads:
        raise ValueError("no updates to aggregate")
    n = len(uploads)
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != n or weights.sum() <= 0:
            raise ValueError("bad aggregation weights")
        w = weights / weights.sum()
    out = []
    for pos, snap in enumerate(snapshot):
        acc = snap.astype(np.float64)
        for wc, e in zip(w, [client[pos] for client in uploads]):
            if isinstance(e, RowUpload):
                acc[e.rows] += wc * (e.values - snap[e.rows])
            else:
                acc += wc * (e - snap)
        out.append(acc.astype(snap.dtype))
    return out


def _backbone_tensors(backbone: Backbone) -> list[np.ndarray]:
    return [] if backbone.mlp is None else backbone.mlp.params()


def _install_backbone(backbone: Backbone, tensors: list[np.ndarray]) -> None:
    if backbone.mlp is None:
        return
    n_layers = len(backbone.mlp.weights)
    backbone.mlp.weights = [t.astype(np.float32, copy=False) for t in tensors[:n_layers]]
    backbone.mlp.biases = [t.astype(np.float32, copy=False) for t in tensors[n_layers:]]


@dataclass
class SavedState:
    """A run's model state as `load_sim_state` reads it back."""

    base: FullEmbeddingTable
    adapter: Adapter                # with its semantic codes or hash parameters
    round: int
    backbone: list[np.ndarray]      # shared MLP weights then biases; none for fedmf/pfedrec
    users: UserState                # every user's, stacked


def load_log(config: ExperimentConfig) -> InteractionLog:
    """The interaction log the config names: synthesized, or read from file."""
    d = config.data
    if d.source == "synthetic":
        return synthesize_interactions(
            d.users, d.items, config.seed,
            n_user_clusters=d.user_clusters, n_item_clusters=d.item_clusters,
            interactions_range=(d.min_interactions, d.max_interactions),
            affinity=d.affinity)
    return load_interactions(d.path, d.source)


def initial_items(config: ExperimentConfig, log: InteractionLog, streams: RngStream
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """The initial item table and, for rqvae, the semantic codes (else None):
    pre-trained when `pretrain.enabled`, drawn at random otherwise. Given
    `RngStream(config.seed)`, a pure function of the config and the log."""
    n, k, s = log.n_items, config.k, config.strategy
    codes = None
    if not config.pretrain.enabled:
        table = init_uniform(streams.generator("init_embeddings"), (n, k))
        if s.kind == "rqvae":
            codes = streams.generator("random_codes").integers(0, s.d_r, size=(n, s.levels))
        return table, codes
    d, p = config.data, config.pretrain
    features = build_item_features(log, d.feature_source, path=d.feature_path or None,
                                   k_p=d.feature_dim, seed=config.seed)
    pcfg = PretrainConfig(hidden=p.hidden, latent_dim=k, steps=p.steps, lr=p.lr,
                          batch_size=p.batch_size, levels=s.levels, codebook_size=s.d_r,
                          beta=p.beta)
    table, _ = train_autoencoder(features, pcfg, streams.child("pretrain_ae"))
    if s.kind == "rqvae":
        codes, _ = train_rqvae(features, dataclasses.replace(pcfg, steps=p.rq_steps),
                               streams.child("pretrain_rq"))
    return table, codes


class Simulation:
    """One experiment: data, pre-training, model state, and the round loop.

    With `saved` (from `load_sim_state`), the model state is restored instead
    of being pre-trained and initialized; the interaction log, split and
    evaluation candidates are rebuilt from the config as usual.
    """

    def __init__(self, config: ExperimentConfig, saved: SavedState | None = None):
        config.validate()
        self.config = config
        self.streams = RngStream(config.seed)
        self.round = 0
        self.reports: list[RoundReport] = []
        self.metric_history: list[tuple[int, dict[str, float]]] = []

        self.log = load_log(config)
        self.split: EvalSplit = leave_one_out_split(self.log)
        if not len(self.split.test_users):
            raise ValueError("no test user: no user has two interactions, so none can "
                             "hold one out for evaluation")
        attach_eval_negatives(self.split, config.eval.negatives, self.streams.child("eval"))

        kind = config.strategy.kind
        self.warmup_rounds = (config.federation.rounds if kind == "full"
                              else min(config.federation.warmup_rounds,
                                       config.federation.rounds))
        self.backbone = make_backbone(config.backbone, config.k, self.streams)
        if saved is not None:
            self._restore(saved)
            return

        table, self.codes = initial_items(config, self.log, self.streams)
        # the warm-up trains the base table itself: adapter and base are one object
        self.base = FullEmbeddingTable(table)
        self.adapter: Adapter = self.base
        self.user_states = UserState.stack([
            make_user_state(config.backbone, config.k, u, self.streams, scale=config.user_scale)
            for u in range(self.log.n_users)])

    def _restore(self, saved: SavedState) -> None:
        if saved.base.n_items != self.log.n_items:
            raise ValueError(f"saved item table has {saved.base.n_items} items, "
                             f"the interaction log {self.log.n_items}")
        if len(saved.users) != self.log.n_users:
            raise ValueError(f"saved state has {len(saved.users)} users, "
                             f"the interaction log {self.log.n_users}")
        kind = self.config.strategy.kind
        if saved.adapter.kind != kind and not (saved.adapter.kind == "full"
                                               and saved.round <= self.warmup_rounds):
            raise ValueError(f"strategy.kind: the saved run at round {saved.round} has a "
                             f"{saved.adapter.kind} adapter, not {kind}")
        n_shared = len(_backbone_tensors(self.backbone))
        if len(saved.backbone) != n_shared or \
                (saved.users.embedding is None) != (self.config.backbone == "pfedrec"):
            raise ValueError(f"backbone: the saved run's shared MLP ({len(saved.backbone)} "
                             f"tensors) or user state does not fit {self.config.backbone}")
        self.base, self.adapter, self.round = saved.base, saved.adapter, saved.round
        self.codes = getattr(saved.adapter, "codes", None)
        _install_backbone(self.backbone, saved.backbone)
        self.user_states = saved.users

    @property
    def phase(self) -> str:
        return "warmup" if self.round < self.warmup_rounds else "peft"

    def _maybe_transition(self) -> None:
        """The run's one transition point: leave the warm-up once it is over,
        unless the strategy is full, which trains the table to the end."""
        if (self.round == self.warmup_rounds and self.adapter is self.base
                and self.config.strategy.kind != "full"):
            self.freeze_and_init_adapter()

    def freeze_and_init_adapter(self) -> None:
        """Warm-up -> adapter boundary: freeze the table, build the adapter."""
        if self.adapter is not self.base:
            raise RuntimeError("adapter already initialized")
        self.base.freeze()
        self.adapter = make_adapter(n_items=self.log.n_items, k=self.config.k,
                                    streams=self.streams.child("adapter_init"),
                                    codes=self.codes, **dataclasses.asdict(self.config.strategy))

    def _draw(self, clients: list[int], round_idx: int) -> Draws:
        """Keyed draws of `clients` for a round: per local epoch, each client's
        positives and `neg_per_pos` negatives each, shuffled and batched. A
        client with no positives or no epoch holds no row and takes no step."""
        cfg = self.config.federation
        n, batch, epochs = self.log.n_items, cfg.batch_size, cfg.local_epochs
        positives = [self.split.train_positives[u] for u in clients]
        size = np.array([(1 + cfg.neg_per_pos) * len(p) for p in positives], dtype=np.int64)
        per_epoch = -(-size // batch)       # steps per epoch
        order = np.argsort(-per_epoch, kind="stable")
        clients, size, per_epoch = np.array(clients)[order], size[order], per_epoch[order]
        drawn, is_positive = [np.empty(0, np.int64)], [np.empty(0, bool)]
        for u, pos, m in zip(clients.tolist(), [positives[j] for j in order], size.tolist()):
            for epoch in range(epochs):
                rng = self.streams.generator("train_neg", u, round_idx, epoch)
                negs = choice_excluding(n, pos, cfg.neg_per_pos * len(pos), rng, replace=True)
                perm = self.streams.generator("shuffle", u, round_idx, epoch).permutation(m)
                drawn.append(np.concatenate([pos, negs])[perm])
                is_positive.append(perm < len(pos))
        # one np.unique over (client, item) keys gives each client's sorted rows
        # and every sample's id into them; a client's i-th sample is position p
        # of epoch e, at step e * per_epoch + p // batch, slot p % batch
        owner = np.repeat(np.arange(len(clients)), epochs * size)
        keys, ids = np.unique(owner * n + np.concatenate(drawn), return_inverse=True)
        starts = np.searchsorted(keys, np.arange(len(clients) + 1) * n)
        first = np.cumsum(epochs * size) - epochs * size
        e, p = np.divmod(np.arange(len(owner)) - first[owner], size[owner])
        at = (e * per_epoch[owner] + p // batch, owner, p % batch)
        shape = (epochs * int(per_epoch.max(initial=0)), len(clients), batch)
        items = np.broadcast_to(starts[:-1, None], shape).copy()
        labels, mask = np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=bool)
        items[at], labels[at], mask[at] = ids, np.concatenate(is_positive), True
        return Draws(clients, keys % n, starts, epochs * per_epoch, items, labels, mask)

    def _train(self, draws: Draws, snapshot: list[np.ndarray], round_idx: int
               ) -> dict[int, tuple[list[Upload], UserState, float]]:
        """Train a chunk in lock step from the round's snapshot (adapter
        tensors, then the shared MLP's): per client id, its upload, clipped and
        noised as `dp` says, its new state and its mean loss (nan when it took
        no step), the same whichever clients share the chunk.

        The chunk holds its clients' rows of the item-indexed tensors and
        stacks every other tensor (the adapter's shared ones, the shared MLP,
        the private state) over a leading client axis. Step s is one
        `local_step` of the first a clients, those with an s-th step, over
        views of the stacked copies. Dropout masks come from each client's
        own keyed generator."""
        cfg, dp = self.config.federation, self.config.dp
        clients, rows, starts, c = draws.clients, draws.rows, draws.starts, len(draws.clients)
        adapter = self.adapter.copy(rows, clients=c)
        base = self.base.table[rows]
        users = self.user_states[clients]
        mlp = self.backbone.mlp
        if mlp is not None:
            mlp = dataclasses.replace(mlp, weights=[np.repeat(w[None], c, 0) for w in mlp.weights],
                                      biases=[np.repeat(b[None], c, 0) for b in mlp.biases])

        def clients_at(key) -> tuple[Backbone, UserState]:
            """The shared MLP and states of clients `key`, as views."""
            return Backbone(self.backbone.kind, None if mlp is None else mlp[key]), users[key]

        # keyed, so leaving them out where no dropout runs moves no other draw
        rngs = None
        if any(m is not None and m.dropout > 0 for m in (mlp, users.mlp)):
            rngs = [self.streams.generator("dropout", u, round_idx) for u in clients.tolist()]
        losses = np.zeros(draws.items.shape[:2])
        item_indexed, params = self.adapter.item_indexed, adapter.trainable()
        # a shallow copy rebinds without re-running the adapter's checks and maps
        view = copy.copy(adapter)
        for s in range(len(draws.items)):
            a = int(np.count_nonzero(draws.n_steps > s))
            for i, (name, t) in enumerate(zip(adapter.trained, params)):
                setattr(view, name, t[:starts[a]] if i in item_indexed else t[:a])
            losses[s, :a] = local_step(*clients_at(slice(a)), view, base, draws.items[s, :a],
                                       draws.labels[s, :a], cfg.lr,
                                       None if rngs is None else rngs[:a], mask=draws.mask[s, :a])

        results = {}
        for j, u in enumerate(clients.tolist()):
            n, own = draws.n_steps[j], slice(starts[j], starts[j + 1])
            backbone, state = clients_at(j)
            tensors = [RowUpload(rows[own], t[own]) if i in item_indexed else t[j]
                       for i, t in enumerate(params)] + _backbone_tensors(backbone)
            for t in tensors:
                check_finite(t.values if isinstance(t, RowUpload) else t,
                             "the upload of client %d at round %d", u, round_idx)
            for t in [state.embedding] if state.mlp is None else state.mlp.params():
                check_finite(t, "the private state of client %d at round %d", u, round_idx)
            if dp.clip is not None:
                # a row upload's update is zero off its rows
                tensors = [RowUpload(t.rows, clip_update(t.values, snap[t.rows], dp.clip))
                           if isinstance(t, RowUpload) else clip_update(t, snap, dp.clip)
                           for t, snap in zip(tensors, snapshot)]
            if dp.mode == "ldp":
                tensors = apply_ldp([densify(t, snap) for t, snap in zip(tensors, snapshot)],
                                    dp, self.streams.generator("dp", u, round_idx))
            results[u] = (tensors, state, float(np.mean(losses[:n, j])) if n else float("nan"))
        return results

    def client_upload_bytes(self) -> int:
        """What each client is charged: the paper's dense payload of the
        current adapter plus the shared MLP, whatever rows it trained."""
        return len(serialize_upload(self.adapter)) + self.backbone.upload_bytes()

    def run_round(self) -> RoundReport:
        cfg = self.config.federation
        self._maybe_transition()
        round_idx, phase = self.round, self.phase

        clients = select_clients(self.log.n_users, cfg.sample_ratio, self.streams,
                                 round_idx).tolist()
        upload_bytes = self.client_upload_bytes()
        n_adapter = len(self.adapter.trainable())
        snapshot = self.adapter.trainable() + _backbone_tensors(self.backbone)
        by_client = {}
        for start in range(0, len(clients), LOCK_STEP_CLIENTS):
            draws = self._draw(clients[start:start + LOCK_STEP_CLIENTS], round_idx)
            by_client.update(self._train(draws, snapshot, round_idx))
        results = [by_client[u] for u in clients]       # folded in client-id order

        weights = None
        if cfg.aggregation == "weighted":
            weights = np.array([max(len(self.split.train_positives[u]), 1) for u in clients],
                               dtype=np.float64)
        agg = aggregate([tensors for tensors, _, _ in results], snapshot, weights)
        if self.config.dp.mode == "cdp":
            agg = apply_cdp(agg, self.config.dp, self.streams.generator("dp_server", round_idx))

        for t in agg:
            check_finite(t, "the fold of round %d", round_idx)
        self.adapter.set_trainable(agg[:n_adapter])
        _install_backbone(self.backbone, agg[n_adapter:])
        for u, (_, state, _) in zip(clients, results):
            self.user_states[u] = state

        self.round += 1
        trained_losses = [loss for _, _, loss in results if not math.isnan(loss)]
        report = RoundReport(
            round=round_idx,
            phase=phase,
            clients=clients,
            bytes_per_client=upload_bytes,
            aggregate_bytes=upload_bytes * len(clients),
            train_loss=float(np.mean(trained_losses)) if trained_losses else float("nan"),
            base_hash=hashlib.sha256(self.base.table.tobytes()).hexdigest(),
        )
        self.reports.append(report)
        return report

    def evaluate(self) -> dict[str, float]:
        return metrics.evaluate(self.backbone, self.user_states, self.adapter,
                                self.base.table, self.split, self.config.eval.ks)

    def top_k_lists(self, k: int = 20) -> dict[int, np.ndarray]:
        """Per test user, the top-k recommendation list (training items held out)."""
        out = {}
        for u in self.split.test_users.tolist():
            out[u] = metrics.top_k_items(self.backbone, self.user_states[u], self.adapter,
                                         self.base.table, self.split.train_positives[u],
                                         self.log.n_items, k)
        return out

    def run(self, checkpoint_dir: str | Path | None = None) -> ExperimentResult:
        cfg = self.config
        every = cfg.eval.every
        ckpt_every = cfg.federation.checkpoint_every
        if checkpoint_dir is not None and ckpt_every > 0:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        self.metric_history.append((0, self.evaluate()))
        for _ in range(cfg.federation.rounds):
            self.run_round()
            if self.round % every == 0 or self.round == cfg.federation.rounds:
                self.metric_history.append((self.round, self.evaluate()))
            if checkpoint_dir is not None and ckpt_every > 0 and self.round % ckpt_every == 0:
                save_checkpoint(Path(checkpoint_dir) / f"round_{self.round:06d}.fpeb",
                                self.base, self.adapter)
        # runs with rounds == warmup_rounds leave the warm-up here
        self._maybe_transition()
        final = self.metric_history[-1][1]
        return ExperimentResult(self.reports, self.metric_history, final,
                                cfg.config_hash(), cfg.seed)


def save_sim_state(sim: Simulation, out_dir: str | Path) -> None:
    """Persist everything `eval` needs next to the embedding checkpoint."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "embedding.fpeb", sim.base, sim.adapter)
    arrays: dict[str, np.ndarray] = {"round": np.array([sim.round])}
    if sim.backbone.mlp is not None:
        for l, (w, b) in enumerate(zip(sim.backbone.mlp.weights, sim.backbone.mlp.biases)):
            arrays[f"wg_w{l}"], arrays[f"wg_b{l}"] = w, b
    users = sim.user_states
    if users.embedding is not None:
        arrays["user_emb"] = users.embedding
    else:
        for l, (w, b) in enumerate(zip(users.mlp.weights, users.mlp.biases)):
            arrays[f"user_w{l}"], arrays[f"user_b{l}"] = w, b
    np.savez(out / "sim_state.npz", **arrays)


def load_sim_state(run_dir: str | Path) -> SavedState:
    """Read back what `save_sim_state` wrote; `Simulation(config, saved=...)`
    rebuilds the simulation from it. A NaN or infinity in a `sim_state.npz`
    array raises a `FloatingPointError` naming its key."""
    run_dir = Path(run_dir)
    from .strategies import load_checkpoint
    base, adapter = load_checkpoint(run_dir / "embedding.fpeb")
    if adapter is not base:
        base.freeze()
    with np.load(run_dir / "sim_state.npz") as data:
        arrays = dict(data)
    for key, values in arrays.items():
        check_finite(values, "sim_state.npz array %s", key)

    def layers(prefix: str) -> list[np.ndarray]:
        return [arrays[f"{prefix}{l}"]
                for l in range(sum(name.startswith(prefix) for name in arrays))]

    weights = layers("user_w")
    users = UserState(embedding=arrays["user_emb"]) if "user_emb" in arrays else UserState(
        mlp=Mlp(weights, layers("user_b"), relu_layers(len(weights)), PFEDREC_DROPOUT))
    return SavedState(base, adapter, int(arrays["round"][0]),
                      layers("wg_w") + layers("wg_b"), users)


def rounds_csv(reports: list[RoundReport], metric_history: list[tuple[int, dict]],
               ks: tuple[int, ...], config_hash: str, seed: int) -> str:
    """Per-round report CSV; metric columns are filled on evaluation rounds."""
    by_round = dict(metric_history)
    names = [f"n@{k}" for k in ks] + [f"h@{k}" for k in ks]
    lines = [f"# config={config_hash} seed={seed}",
             "round,phase,clients,bytes_per_client,loss," + ",".join(names)]
    for r in reports:
        m = by_round.get(r.round + 1, {})
        vals = [f"{m[name]:.2f}" if name in m else "" for name in names]
        loss = "" if math.isnan(r.train_loss) else f"{r.train_loss:.6f}"
        lines.append(f"{r.round},{r.phase},{len(r.clients)},{r.bytes_per_client},"
                     f"{loss}," + ",".join(vals))
    return "\n".join(lines) + "\n"


def metrics_csv(metric_history: list[tuple[int, dict]], ks: tuple[int, ...],
                config_hash: str, seed: int) -> str:
    names = [f"n@{k}" for k in ks] + [f"h@{k}" for k in ks]
    lines = [f"# config={config_hash} seed={seed}", "round," + ",".join(names)]
    for rnd, m in metric_history:
        lines.append(f"{rnd}," + ",".join(f"{m[name]:.2f}" for name in names))
    return "\n".join(lines) + "\n"
