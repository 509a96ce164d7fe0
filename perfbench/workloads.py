"""The benchmark's workloads: fixed config settings plus the round schedule.

Each workload is a set of `key=value` settings, exactly as `fedembed train
--set` takes them; the seed given to the benchmark becomes the config seed,
so the synthetic interaction log, the item features, the client sampling and
every other keyed draw follow from it. The sizes decide which layers carry
the work; see README.md for the reasoning behind each one.
"""

from __future__ import annotations

from dataclasses import dataclass

TOP_K = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: tuple[str, ...]
    rounds: int
    eval_every: int
    # None: `Simulation.top_k_lists` over every test user. An int: that many
    # seeded test users through `metrics.top_k_items`, the per-user function
    # `top_k_lists` loops over.
    topk_users: int | None = None

    def overrides(self, seed: int) -> list[str]:
        return [*self.settings, f"seed={seed}", f"federation.rounds={self.rounds}",
                f"eval.every={self.eval_every}"]

    def config(self, seed: int):
        from fedembed.config import load_config
        return load_config(None, self.overrides(seed))

    def evaluation_rounds(self) -> list[int]:
        """Rounds after which the run evaluates, 0 being before any round."""
        return [0] + [r for r in range(1, self.rounds + 1)
                      if r % self.eval_every == 0 or r == self.rounds]


DESK_LORA = Workload(
    name="desk-lora",
    why="FedMF+lora at 1800 users x 800 items (the ROADMAP yardstick): "
        "per-client Python work, local steps and keyed RNG carry it",
    settings=(
        "backbone=fedmf", "strategy.kind=lora", "strategy.rank=2",
        "data.users=1800", "data.items=800",
        "data.user_clusters=8", "data.item_clusters=8",
        "data.min_interactions=6", "data.max_interactions=30", "data.affinity=0.85",
        "data.feature_dim=64", "pretrain.steps=1500", "pretrain.hidden=128,64",
        "federation.warmup_rounds=10", "federation.lr=0.1", "federation.batch_size=32",
        "eval.negatives=99",
    ),
    rounds=18,
    eval_every=6,
)

CATALOG_HASH_LDP = Workload(
    name="catalog-hash-ldp",
    why="FedNCF+hash with local Laplace DP on 10k items: full-table warm-up "
        "copies, aggregation, noise and sgd grow with catalogue and clients",
    settings=(
        "backbone=fedncf", "strategy.kind=hash", "strategy.d_h=512",
        "strategy.n_hashes=2", "strategy.p=4096",
        "data.users=800", "data.items=10000",
        "data.user_clusters=8", "data.item_clusters=64",
        "data.min_interactions=6", "data.max_interactions=30", "data.affinity=0.95",
        "data.feature_dim=32", "pretrain.steps=200", "pretrain.hidden=64",
        "federation.warmup_rounds=2", "federation.sample_ratio=0.1",
        "federation.lr=0.5", "federation.batch_size=64",
        "dp.mode=ldp", "dp.delta=0.001",
        "eval.negatives=99",
    ),
    rounds=6,
    eval_every=2,
    topk_users=25,
)

SERVE_RQVAE = Workload(
    name="serve-rqvae",
    why="FedMF+rqvae on 3706 items: RQ-VAE pre-training, the reload that "
        "repeats it, and full-catalogue top-20 reads carry it",
    settings=(
        "backbone=fedmf", "strategy.kind=rqvae", "strategy.levels=4", "strategy.d_r=256",
        "data.users=800", "data.items=3706",
        "data.user_clusters=8", "data.item_clusters=64",
        "data.min_interactions=6", "data.max_interactions=30", "data.affinity=0.95",
        "data.feature_dim=64", "pretrain.steps=800", "pretrain.rq_steps=60",
        "pretrain.hidden=128,64",
        "federation.warmup_rounds=1", "federation.sample_ratio=0.4",
        "federation.lr=1.0", "federation.local_epochs=4", "federation.batch_size=64",
        "eval.negatives=99",
    ),
    rounds=5,
    eval_every=5,
)

WORKLOADS = {w.name: w for w in (DESK_LORA, CATALOG_HASH_LDP, SERVE_RQVAE)}
