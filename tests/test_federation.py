import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedembed import privacy
from fedembed.backbones import local_step
from fedembed.config import ExperimentConfig
from fedembed.data import choice_excluding
from fedembed.federation import (LOCK_STEP_CLIENTS, RowUpload, Simulation, aggregate, densify,
                                 metrics_csv, rounds_csv, select_clients)
from fedembed.rng import RngStream
from fedembed.strategies import comm_cost


def small_config(**over):
    cfg = ExperimentConfig()
    cfg.unsafe = True
    cfg.data.users, cfg.data.items = 40, 30
    cfg.data.user_clusters = cfg.data.item_clusters = 4
    cfg.data.min_interactions, cfg.data.max_interactions = 4, 10
    cfg.federation.rounds = 4
    cfg.federation.warmup_rounds = 2
    cfg.federation.sample_ratio = 0.25
    cfg.eval.negatives = 10
    cfg.eval.every = 2
    cfg.pretrain.enabled = False
    cfg.strategy.kind = "lora"
    cfg.strategy.rank = 2
    cfg.strategy.levels = 2
    cfg.strategy.d_r = 8
    cfg.strategy.d_h = 16
    for key, value in over.items():
        obj = cfg
        *path, attr = key.split(".")
        for part in path:
            obj = getattr(obj, part)
        setattr(obj, attr, value)
    return cfg


class TestSelectClients:
    def test_ten_percent_of_hundred(self):
        got = select_clients(100, 0.10, RngStream(0), 0)
        assert len(got) == 10
        assert len(set(got.tolist())) == 10

    def test_full_ratio_selects_everyone(self):
        got = select_clients(25, 1.0, RngStream(0), 3)
        assert sorted(got.tolist()) == list(range(25))

    def test_keyed_by_round(self):
        a = select_clients(100, 0.2, RngStream(5), 1)
        b = select_clients(100, 0.2, RngStream(5), 1)
        c = select_clients(100, 0.2, RngStream(5), 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ceil_rounding(self):
        assert len(select_clients(15, 0.10, RngStream(0), 0)) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 5000))
    # 0.07 * 100 and 0.14 * 50 are both 7.000000000000001 in floats
    @example(7, 100)
    @example(14, 50)
    def test_count_is_the_ceiling_of_the_decimal_product(self, percent, n):
        got = select_clients(n, percent / 100, RngStream(0), 0)
        assert len(got) == -(-percent * n // 100)


class TestAggregate:
    def test_identical_updates_are_identity(self, rng):
        t = [rng.normal(0, 1, (3, 2)), rng.normal(0, 1, 4)]
        out = aggregate([t, [x.copy() for x in t], [x.copy() for x in t]], t)
        for a, b in zip(out, t):
            assert np.allclose(a, b)

    def test_two_updates_mean(self):
        p = [np.array([2.0, 4.0])]
        q = [np.array([4.0, 8.0])]
        out = aggregate([p, q], p)
        assert np.allclose(out[0], [3.0, 6.0])

    def test_permutation_invariant(self, rng):
        updates = [[rng.normal(0, 1, (4,))] for _ in range(5)]
        a = aggregate(updates, updates[0])
        b = aggregate(list(reversed(updates)), updates[0])
        assert np.allclose(a[0], b[0])

    def test_linearity_around_center(self, rng):
        p = rng.normal(0, 1, (3,))
        delta = rng.normal(0, 1, (3,))
        out = aggregate([[p + delta], [p - delta]], [p])
        assert np.allclose(out[0], p)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_weighted_mean(self):
        out = aggregate([[np.array([0.0])], [np.array([10.0])]], [np.array([0.0])],
                        weights=np.array([3.0, 1.0]))
        assert np.allclose(out[0], 2.5)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fold_is_the_weighted_mean_of_the_densified_uploads(self, data):
        shape = data.draw(st.sampled_from([(1,), (2,), (7, 3), (2, 5, 3)]), label="shape")
        c = data.draw(st.integers(1, 40), label="clients")
        only_negative_zeros = data.draw(st.booleans(), label="only -0.0")
        integer_weights = data.draw(st.booleans(), label="integer weights")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def tensor():
            if only_negative_zeros:
                return np.full(shape, -0.0, dtype=dtype)
            t = rng.normal(0, 1, shape) * 10.0 ** rng.uniform(-6, 3)
            t[rng.random(shape) < 0.2] = -0.0
            return t.astype(dtype)

        snapshot = tensor()
        uploads, dense = [], []
        for _ in range(c):
            kind = data.draw(st.sampled_from(["dense", "rows", "no rows", "all rows"]))
            t = tensor()
            if kind == "dense":
                uploads.append([t])
                dense.append(t)
                continue
            n = shape[0]
            rows = {"rows": np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                               replace=False)),
                    "no rows": np.empty(0, dtype=np.int64),
                    "all rows": np.arange(n)}[kind].astype(np.int64)
            uploads.append([RowUpload(rows, t[rows])])
            dense.append(densify(uploads[-1][0], snapshot))
        weights = rng.integers(1, 30, c).astype(np.float64) if integer_weights else None
        w = np.full(c, 1.0 / c) if weights is None else weights / weights.sum()
        w = w.reshape((c,) + (1,) * len(shape))
        stacked = np.stack(dense).astype(np.float64)
        expected = (stacked * w).sum(axis=0)
        (got,) = aggregate(uploads, [snapshot], weights)
        assert got.dtype == dtype
        # Each entry is c + 2 roundings of terms no larger than `magnitude`
        # (one subtraction in `dtype`, float64 products and sums, one cast),
        # and the reference sums in float64. Cancellation can make the mean
        # itself tiny, so the ulps are those of the magnitudes summed.
        magnitude = np.abs(snapshot) + (w * (np.abs(stacked) + np.abs(snapshot))).sum(axis=0)
        assert (np.abs(got - expected) <= 2 * (c + 2) * np.finfo(dtype).eps * magnitude).all()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_untouched_rows_keep_the_snapshot_bytes(self, data):
        shape = data.draw(st.sampled_from([(2,), (7, 3), (9, 5, 2)]), label="shape")
        c = data.draw(st.integers(2, 40), label="clients")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        snapshot = rng.normal(0, 1, shape) * 10.0 ** rng.uniform(-6, 3)
        snapshot[rng.random(shape) < 0.2] = -0.0
        n = shape[0]
        # at least one row that no client uploads
        free = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        uploads = []
        for _ in range(c):
            rows = np.sort(rng.choice(free, size=int(rng.integers(0, len(free) + 1)),
                                      replace=False))
            uploads.append([RowUpload(rows, rng.normal(0, 1, (len(rows),) + shape[1:]))])
        untouched = np.setdiff1d(np.arange(n), np.concatenate([u[0].rows for u in uploads]))
        (got,) = aggregate(uploads, [snapshot], rng.integers(1, 30, c).astype(np.float64))
        assert got[untouched].tobytes() == snapshot[untouched].tobytes()


def round_snapshot(sim):
    """The tensors a round starts from: the adapter's, then the shared MLP's."""
    return sim.adapter.trainable() + ([] if sim.backbone.mlp is None
                                      else sim.backbone.mlp.params())


BACKBONES = ["fedmf", "fedncf", "pfedrec"]
STRATEGIES = pytest.mark.parametrize("kind,senet", [("full", False), ("lora", False),
                                                    ("hash", False), ("hash", True),
                                                    ("rqvae", False)])


@pytest.fixture(scope="module")
def draw_sim():
    """A simulation for draw tests, which leave it as it is: two local epochs
    of batches of 8, and some users without a training positive."""
    return Simulation(small_config(**{"federation.local_epochs": 2,
                                      "federation.batch_size": 8,
                                      "data.min_interactions": 0}))


def steps_of(draws, j=0):
    """Client j's real steps in `draws`: (ids into `draws.rows`, labels) each."""
    return [(draws.items[s, j][draws.mask[s, j]], draws.labels[s, j][draws.mask[s, j]])
            for s in range(draws.n_steps[j])]


def private_copies(sim, u, round_idx):
    """A client's private copies of the shared MLP and of its state, and its
    dropout generator (None where no dropout runs), as a client trained alone."""
    backbone = copy.deepcopy(sim.backbone)
    state = copy.deepcopy(sim.user_states[u])
    dropout = any(m is not None and m.dropout > 0 for m in (backbone.mlp, state.mlp))
    rng = sim.streams.generator("dropout", u, round_idx) if dropout else None
    return backbone, state, rng


def dense_reference_client(sim, draws, round_idx):
    """A client that copies the whole adapter and steps it on the global item
    ids `draws.rows[ids]` of a one-client `Simulation._draw`."""
    cfg = sim.config.federation
    [u] = draws.clients.tolist()
    adapter = sim.adapter.copy()
    backbone, state, rng = private_copies(sim, u, round_idx)
    losses = [local_step(backbone, state, adapter, sim.base.table, draws.rows[ids], labels,
                         cfg.lr, rng) for ids, labels in steps_of(draws)]
    shared = [] if backbone.mlp is None else backbone.mlp.params()
    return adapter.trainable() + shared, state, float(np.mean(losses))


def per_client_reference(sim, draws, snapshot, round_idx):
    """`Simulation._train` as clients trained before lock step: one after
    another, each drawn alone and trained on private copies of its rows, the
    adapter's shared tensors, the shared MLP and its state, then clipped and
    noised."""
    cfg, dp = sim.config.federation, sim.config.dp
    results = {}
    for u in draws.clients.tolist():
        one = sim._draw([u], round_idx)
        adapter, base = sim.adapter.copy(one.rows), sim.base.table[one.rows]
        backbone, state, rng = private_copies(sim, u, round_idx)
        losses = [local_step(backbone, state, adapter, base, ids, labels, cfg.lr, rng)
                  for ids, labels in steps_of(one)]
        tensors = [RowUpload(one.rows, t) if i in sim.adapter.item_indexed else t
                   for i, t in enumerate(adapter.trainable())]
        tensors += [] if backbone.mlp is None else backbone.mlp.params()
        if dp.clip is not None:
            tensors = [RowUpload(t.rows, privacy.clip_update(t.values, s[t.rows], dp.clip))
                       if isinstance(t, RowUpload) else privacy.clip_update(t, s, dp.clip)
                       for t, s in zip(tensors, snapshot)]
        if dp.mode == "ldp":
            tensors = privacy.apply_ldp([densify(t, s) for t, s in zip(tensors, snapshot)],
                                        dp, sim.streams.generator("dp", u, round_idx))
        results[u] = (tensors, state, float(np.mean(losses)) if losses else float("nan"))
    return results


def train_alone(sim, u, snapshot, round_idx):
    """Client `u`'s result from a chunk of one."""
    [result] = sim._train(sim._draw([u], round_idx), snapshot, round_idx).values()
    return result


def upload_bytes(tensors):
    return [t.rows.tobytes() + t.values.tobytes() if isinstance(t, RowUpload) else t.tobytes()
            for t in tensors]


def state_tensors(state):
    return [state.embedding] if state.embedding is not None else state.mlp.params()


def server_state(sim):
    """Everything the server holds: the round's tensors, the base table, every
    user's state, and the codes or hash parameters."""
    users = sim.user_states
    arrays = round_snapshot(sim) + [sim.base.table]
    arrays += [users.embedding] if users.embedding is not None else users.mlp.params()
    arrays += [getattr(sim.adapter, name) for name in ("codes", "hash_a", "hash_b")
               if hasattr(sim.adapter, name)]
    return arrays


def server_state_bytes(sim):
    return [a.tobytes() for a in server_state(sim)]


# cells whose single client of `test_row_client_matches_dense_reference` keeps
# the dense reference's bytes; every other cell sums in another order in lock step
DENSE_REFERENCE_BYTES = {("fedmf", "hash", False), ("fedmf", "hash", True),
                         ("fedmf", "rqvae", False)}


def adapter_rounds(sim, n=2):
    """Walk `sim` through `n` rounds, yielding before each: a warm-up round,
    then adapter rounds (the full strategy stays on the table)."""
    for _ in range(n):
        sim._maybe_transition()
        yield
        sim.run_round()


class TestClientRound:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @STRATEGIES
    def test_row_client_matches_dense_reference(self, kind, senet, backbone):
        cfg = small_config(**{"strategy.kind": kind, "strategy.senet": senet,
                              "backbone": backbone, "federation.warmup_rounds": 1,
                              "federation.lr": 0.5, "federation.batch_size": 8})
        sim = Simulation(cfg)
        sim.run_round()
        if kind != "full":
            sim.freeze_and_init_adapter()
            sim.run_round()      # adapter tensors away from their zero start
        snapshot = round_snapshot(sim)
        u = next(u for u in range(sim.log.n_users) if len(sim.split.train_positives[u]))
        draws = sim._draw([u], sim.round)
        [(tensors, state, loss)] = sim._train(draws, snapshot, sim.round).values()
        want, want_state, want_loss = dense_reference_client(sim, draws, sim.round)
        assert len(tensors) == len(snapshot)
        got = [densify(t, s) for t, s in zip(tensors, snapshot)]
        assert np.isfinite(loss)
        if (backbone, kind, senet) not in DENSE_REFERENCE_BYTES:
            # lock step sums in another order; the per-client reference test
            # bounds the difference over whole rounds
            assert loss == pytest.approx(want_loss, rel=1e-6)
            for a, b in zip(got + state_tensors(state), want + state_tensors(want_state)):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)
        else:
            assert loss == want_loss
            assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
            assert [t.tobytes() for t in state_tensors(state)] == \
                [t.tobytes() for t in state_tensors(want_state)]
        if kind in ("full", "lora"):
            (rows, values), *_ = tensors
            assert 0 < len(rows) < sim.log.n_items and len(values) == len(rows)

    @pytest.mark.parametrize("backbone", BACKBONES)
    @STRATEGIES
    def test_training_leaves_the_server_state_untouched(self, kind, senet, backbone):
        # clients step their copies in place, so a live tensor handed to a
        # client would move the server's state here
        cfg = small_config(**{"strategy.kind": kind, "strategy.senet": senet,
                              "backbone": backbone, "federation.warmup_rounds": 1,
                              "federation.lr": 0.5, "federation.batch_size": 8})
        sim = Simulation(cfg)
        u = next(u for u in range(sim.log.n_users) if len(sim.split.train_positives[u]))
        for _ in range(2):            # a warm-up round, then an adapter round
            sim._maybe_transition()
            before = server_state_bytes(sim)
            _, _, loss = train_alone(sim, u, round_snapshot(sim), sim.round)
            assert np.isfinite(loss)
            assert server_state_bytes(sim) == before
            sim.run_round()

    def test_non_finite_private_state_names_client_and_round(self):
        # the table and its uploaded rows stay finite; the user embeddings
        # overflow, and would otherwise score every test item last
        cfg = small_config(**{"strategy.kind": "full", "federation.sample_ratio": 1.0,
                              "federation.local_epochs": 1, "federation.lr": 100.0})
        sim = Simulation(cfg)
        sim.base.table[:] = 1e37
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"private state of client \d+ at round 0"):
            sim.run_round()

    def test_draw_lays_out_the_keyed_negatives_and_shuffle(self, draw_sim):
        sim, round_idx = draw_sim, 3
        fed = sim.config.federation

        def reference(u):
            """Client u's steps, drawn alone: (global item ids, labels) each."""
            positives = sim.split.train_positives[u]
            steps = []
            for epoch in range(fed.local_epochs):
                negs = choice_excluding(sim.log.n_items, positives,
                                        fed.neg_per_pos * len(positives),
                                        sim.streams.generator("train_neg", u, round_idx, epoch),
                                        replace=True)
                items = np.concatenate([positives, negs])
                labels = np.concatenate([np.ones(len(positives), dtype=np.float32),
                                         np.zeros(len(negs), dtype=np.float32)])
                perm = sim.streams.generator("shuffle", u, round_idx, epoch).permutation(
                    len(items))
                items, labels = items[perm], labels[perm]
                steps += [(items[start:start + fed.batch_size],
                           labels[start:start + fed.batch_size])
                          for start in range(0, len(items), fed.batch_size)]
            return steps

        clients = [7, 2, 9, 0, 5, 11, 3, 30, 16, 21]
        want = {u: reference(u) for u in clients}
        n_steps = sorted(len(steps) for steps in want.values())
        # several step counts, ties among them, and a client without a step
        assert len(set(n_steps)) >= 3 and len(set(n_steps)) < len(clients) and n_steps[0] == 0
        draws = sim._draw(clients, round_idx)
        # most steps first; clients with as many steps keep their order
        order = sorted(clients, key=lambda u: -len(want[u]))
        assert draws.clients.tolist() == order
        assert draws.n_steps.tolist() == [len(want[u]) for u in order]
        assert draws.items.shape == (n_steps[-1], len(clients), fed.batch_size)
        assert draws.labels.dtype == np.float32
        assert draws.starts[0] == 0 and draws.starts[-1] == len(draws.rows)
        for j, u in enumerate(order):
            start, end = draws.starts[j], draws.starts[j + 1]
            drawn = np.concatenate([np.empty(0, np.int64), *(items for items, _ in want[u])])
            assert np.array_equal(draws.rows[start:end], np.unique(drawn))
            for s in range(len(draws.items)):
                items, labels, mask = draws.items[s, j], draws.labels[s, j], draws.mask[s, j]
                width = len(want[u][s][0]) if s < len(want[u]) else 0
                assert mask.tolist() == [True] * width + [False] * (fed.batch_size - width)
                # pads point at the client's own first row, with label 0
                assert (items[~mask] == start).all() and (labels[~mask] == 0).all()
                if width:
                    assert ((start <= items[mask]) & (items[mask] < end)).all()
                    assert np.array_equal(draws.rows[items[mask]], want[u][s][0])
                    assert labels[mask].tobytes() == want[u][s][1].tobytes()

    @settings(max_examples=30, deadline=None)
    # any of small_config's 40 users, in any order
    @given(clients=st.lists(st.integers(0, 39), min_size=1, max_size=12, unique=True),
           round_idx=st.integers(0, 5))
    def test_a_clients_draws_do_not_depend_on_who_shares_the_call(self, draw_sim, clients,
                                                                  round_idx):
        sim = draw_sim
        draws = sim._draw(clients, round_idx)
        assert sorted(draws.clients.tolist()) == sorted(clients)
        for j, u in enumerate(draws.clients.tolist()):
            alone = sim._draw([u], round_idx)
            start, end = draws.starts[j], draws.starts[j + 1]
            assert draws.rows[start:end].tobytes() == alone.rows.tobytes()
            assert draws.n_steps[j] == alone.n_steps[0]
            for s in range(alone.n_steps[0]):
                mask = alone.mask[s, 0]
                assert np.array_equal(draws.mask[s, j], mask)
                assert np.array_equal(draws.items[s, j][mask] - start, alone.items[s, 0][mask])
                assert draws.labels[s, j].tobytes() == alone.labels[s, 0].tobytes()

    @pytest.mark.parametrize("dp", [{}, {"dp.mode": "ldp", "dp.delta": 0.01, "dp.clip": 0.05}],
                             ids=["no-dp", "ldp-clip"])
    @pytest.mark.parametrize("backbone", BACKBONES)
    @STRATEGIES
    def test_client_results_do_not_depend_on_training_order(self, kind, senet, backbone, dp):
        cfg = small_config(**{"strategy.kind": kind, "strategy.senet": senet,
                              "backbone": backbone, "federation.warmup_rounds": 1,
                              "federation.sample_ratio": 0.5, "federation.batch_size": 8,
                              **dp})
        sim = Simulation(cfg)
        for _ in adapter_rounds(sim):
            snapshot = round_snapshot(sim)
            clients = select_clients(sim.log.n_users, 0.5, sim.streams, sim.round).tolist()
            draws = sim._draw(clients, sim.round)
            assert len(set(draws.n_steps.tolist())) > 1
            want = sim._train(draws, snapshot, sim.round)
            for subset in (clients[::-1], clients[1::3]):
                got = sim._train(sim._draw(subset, sim.round), snapshot, sim.round)
                assert sorted(got) == sorted(subset)
                for u, (up, state, loss) in got.items():
                    up_w, state_w, loss_w = want[u]
                    assert upload_bytes(up) == upload_bytes(up_w)
                    assert [t.tobytes() for t in state_tensors(state)] == \
                        [t.tobytes() for t in state_tensors(state_w)]
                    assert np.float64(loss).tobytes() == np.float64(loss_w).tobytes()

    @pytest.mark.parametrize("setting", [{}, {"dp.mode": "ldp", "dp.delta": 0.01,
                                              "dp.clip": 0.05},
                                         {"data.min_interactions": 0}],
                             ids=["no-dp", "ldp-clip", "no-step"])
    @pytest.mark.parametrize("backbone", BACKBONES)
    @STRATEGIES
    def test_lock_step_matches_the_per_client_reference(self, kind, senet, backbone, setting):
        cfg = small_config(**{"strategy.kind": kind, "strategy.senet": senet,
                              "backbone": backbone, "federation.warmup_rounds": 1,
                              "federation.sample_ratio": 0.5, "federation.lr": 0.5,
                              "federation.batch_size": 8, **setting})
        engine, reference = Simulation(cfg), Simulation(cfg)
        reference._train = lambda draws, snapshot, r: per_client_reference(
            reference, draws, snapshot, r)
        no_step = []
        for _ in range(3):      # a warm-up round, then two adapter rounds
            no_step += [u for u in select_clients(engine.log.n_users, 0.5, engine.streams,
                                                  engine.round)
                        if not len(engine.split.train_positives[u])]
            got, want = engine.run_round(), reference.run_round()
            assert got.train_loss == pytest.approx(want.train_loss, rel=1e-5)
        assert bool(no_step) == ("data.min_interactions" in setting)
        # float32 sums in another order, over three rounds of steps at lr 0.5
        for a, b in zip(server_state(engine), server_state(reference)):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("backbone", BACKBONES)
    @STRATEGIES
    def test_chunks_give_the_bytes_of_one_client_calls(self, kind, senet, backbone):
        cfg = small_config(**{"strategy.kind": kind, "strategy.senet": senet,
                              "backbone": backbone, "data.users": LOCK_STEP_CLIENTS + 6,
                              "federation.sample_ratio": 1.0, "federation.warmup_rounds": 1,
                              "federation.batch_size": 8})
        sim = Simulation(cfg)
        for _ in adapter_rounds(sim):     # a warm-up round, then an adapter round
            snapshot = round_snapshot(sim)
            clients = list(range(sim.log.n_users))
            chunked = {}
            for start in range(0, len(clients), LOCK_STEP_CLIENTS):
                draws = sim._draw(clients[start:start + LOCK_STEP_CLIENTS], sim.round)
                chunked.update(sim._train(draws, snapshot, sim.round))
            assert sorted(chunked) == clients
            for u, (up, state, loss) in chunked.items():
                up_1, state_1, loss_1 = train_alone(sim, u, snapshot, sim.round)
                assert upload_bytes(up) == upload_bytes(up_1)
                assert [t.tobytes() for t in state_tensors(state)] == \
                    [t.tobytes() for t in state_tensors(state_1)]
                assert np.float64(loss).tobytes() == np.float64(loss_1).tobytes()

    def test_zero_local_epochs_returns_snapshot_bits(self):
        sim = Simulation(small_config(**{"federation.local_epochs": 0}))
        snapshot = round_snapshot(sim)
        tensors, _, loss = train_alone(sim, 3, snapshot, 0)
        assert np.isnan(loss)
        for got, snap in zip(tensors, snapshot):
            assert len(got.rows) == 0
            assert densify(got, snap).tobytes() == snap.tobytes()

    def test_upload_bytes_match_cost_model(self):
        for kind, backbone in [("lora", "fedmf"), ("hash", "fedncf"),
                               ("rqvae", "pfedrec")]:
            cfg = small_config(**{"strategy.kind": kind, "backbone": backbone,
                                  "federation.rounds": 3,
                                  "federation.warmup_rounds": 1})
            sim = Simulation(cfg)
            sim.run_round()   # warm-up: full table
            warm = sim.reports[0]
            expected_warm = comm_cost("full", sim.log.n_items, cfg.k) \
                + sim.backbone.upload_bytes()
            assert warm.bytes_per_client == expected_warm
            sim.run_round()   # peft
            s = cfg.strategy
            expected_peft = comm_cost(kind, sim.log.n_items, cfg.k, rank=s.rank,
                                      d_h=s.d_h, n_hashes=s.n_hashes, senet=s.senet,
                                      expansion=s.expansion, levels=s.levels,
                                      d_r=s.d_r) + sim.backbone.upload_bytes()
            assert sim.reports[1].bytes_per_client == expected_peft

    def test_pfedrec_uploads_have_no_user_side_parameters(self):
        cfg = small_config(backbone="pfedrec")
        sim = Simulation(cfg)
        snapshot = round_snapshot(sim)
        tensors, _, _ = train_alone(sim, 1, snapshot, 0)
        # upload consists solely of the item-side table in warm-up
        shapes = [densify(t, s).shape for t, s in zip(tensors, snapshot)]
        assert shapes == [(sim.log.n_items, cfg.k)]
        assert sim.run_round().bytes_per_client == comm_cost("full", sim.log.n_items, cfg.k)

    def test_same_key_same_update(self):
        sim = Simulation(small_config())
        snapshot = round_snapshot(sim)
        a, _, loss_a = train_alone(sim, 2, snapshot, 1)
        b, _, loss_b = train_alone(sim, 2, snapshot, 1)
        assert loss_a == loss_b
        assert upload_bytes(a) == upload_bytes(b)


class TestRoundMemory:
    @staticmethod
    def warmup_round_peak(sample_ratio):
        cfg = small_config(**{"data.users": 400, "data.items": 2000, "backbone": "fedmf",
                              "strategy.kind": "lora", "federation.rounds": 1,
                              "federation.warmup_rounds": 1,
                              "federation.sample_ratio": sample_ratio})
        sim = Simulation(cfg)
        tracemalloc.start()
        try:
            sim.run_round()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sim.base.table.nbytes, len(sim.reports[0].clients)

    def test_warmup_round_does_not_hold_a_table_per_client(self):
        peak_400, table_bytes, clients = self.warmup_round_peak(1.0)
        peak_100, _, fewer = self.warmup_round_peak(0.25)
        assert (clients, fewer) == (400, 100)
        # a dense copy, upload and float64 product per client took about 390 MB
        assert peak_400 < 40e6
        assert (peak_400 - peak_100) / (clients - fewer) < table_bytes


    def test_a_desk_size_warmup_round_stacks_one_chunk_at_a_time(self):
        # 180 of 1800 clients, at the desk scale of acceptance criterion 7
        cfg = small_config(**{"data.users": 1800, "data.items": 800,
                              "data.user_clusters": 8, "data.item_clusters": 8,
                              "data.min_interactions": 6, "data.max_interactions": 30,
                              "federation.sample_ratio": 0.1, "federation.batch_size": 32,
                              "federation.rounds": 1, "federation.warmup_rounds": 1})
        sim = Simulation(cfg)
        tracemalloc.start()
        try:
            sim.run_round()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sim.reports[0].clients) == 180
        # chunks of 64 peaked at 8.1 MB; all 180 clients stacked at once at 16.9 MB
        assert peak < 12e6


    def test_a_serve_shaped_rqvae_chunk_steps_only_the_touched_rows(self):
        # one chunk at serve-rqvae's shape: l = 4 codebooks of 256 rows, k = 32
        cfg = small_config(**{"strategy.kind": "rqvae", "strategy.levels": 4,
                              "strategy.d_r": 256, "data.users": LOCK_STEP_CLIENTS,
                              "data.items": 3706, "data.min_interactions": 6,
                              "data.max_interactions": 30, "federation.sample_ratio": 1.0,
                              "federation.warmup_rounds": 1, "federation.local_epochs": 4,
                              "federation.batch_size": 64, "federation.lr": 1.0})
        sim = Simulation(cfg)
        sim.run_round()
        sim._maybe_transition()
        snapshot = round_snapshot(sim)
        draws = sim._draw(list(range(LOCK_STEP_CLIENTS)), sim.round)
        tracemalloc.start()
        try:
            sim._train(draws, snapshot, sim.round)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 64 stacked codebooks, which the uploads keep, are 8.4 MB; stepping
        # the touched rows peaked 11.4 MB above them, and a dense stacked
        # gradient with its `lr * g` adds two more 8.4 MB arrays to each step
        uploads = LOCK_STEP_CLIENTS * sim.adapter.codebooks.nbytes
        assert peak < uploads + 16e6


class TestPhases:
    def test_default_warmup_under_twenty(self):
        assert ExperimentConfig().federation.warmup_rounds == 10
        assert ExperimentConfig().federation.warmup_rounds < 20

    def test_rounds_equal_warmup_matches_pure_full_run(self):
        a = Simulation(small_config(**{"federation.rounds": 3,
                                       "federation.warmup_rounds": 3}))
        ra = a.run()
        b = Simulation(small_config(**{"strategy.kind": "full",
                                       "federation.rounds": 3}))
        rb = b.run()
        assert a.base.table.tobytes() == b.base.table.tobytes()
        assert ra.metric_history == rb.metric_history

    def test_base_frozen_and_hash_constant_through_peft(self):
        sim = Simulation(small_config())
        result = sim.run()
        peft_hashes = {r.base_hash for r in result.reports if r.phase == "peft"}
        assert len(peft_hashes) == 1
        assert not sim.base.table.flags.writeable
        # the frozen table is exactly the last warm-up aggregate
        warm_hashes = [r.base_hash for r in result.reports if r.phase == "warmup"]
        assert peft_hashes.pop() == warm_hashes[-1]

    def test_codes_and_hash_params_stable_over_run(self):
        cfg = small_config(**{"strategy.kind": "rqvae"})
        sim = Simulation(cfg)
        sim.run_round()
        sim.run_round()
        sim.run_round()   # into peft
        codes0 = sim.adapter.codes.tobytes()
        sim.run_round()
        assert sim.adapter.codes.tobytes() == codes0

    def test_peft_bytes_much_smaller_than_warmup(self):
        cfg = small_config(**{"data.items": 200, "data.users": 60,
                              "strategy.kind": "lora"})
        sim = Simulation(cfg)
        result = sim.run()
        warm = [r.bytes_per_client for r in result.reports if r.phase == "warmup"]
        peft = [r.bytes_per_client for r in result.reports if r.phase == "peft"]
        assert max(peft) < 0.2 * min(warm)

    def test_full_strategy_never_freezes(self):
        sim = Simulation(small_config(**{"strategy.kind": "full"}))
        sim.run()
        assert sim.base.table.flags.writeable
        assert all(r.phase == "warmup" for r in sim.reports)


class TestDeterminism:
    def test_same_seed_bit_reproducible(self):
        r1 = Simulation(small_config()).run()
        r2 = Simulation(small_config()).run()
        assert [r.base_hash for r in r1.reports] == [r.base_hash for r in r2.reports]
        assert r1.metric_history == r2.metric_history

    def test_different_seed_differs(self):
        r1 = Simulation(small_config()).run()
        r2 = Simulation(small_config(seed=1)).run()
        assert [r.base_hash for r in r1.reports] != [r.base_hash for r in r2.reports]


class TestDp:
    def test_delta_zero_matches_no_dp_bitwise(self):
        plain = Simulation(small_config()).run()
        ldp0 = Simulation(small_config(**{"dp.mode": "ldp", "dp.delta": 0.0})).run()
        assert [r.base_hash for r in plain.reports] == [r.base_hash for r in ldp0.reports]

    def test_ldp_changes_results(self):
        plain = Simulation(small_config()).run()
        noisy = Simulation(small_config(**{"dp.mode": "ldp", "dp.delta": 0.05})).run()
        assert [r.base_hash for r in plain.reports] != [r.base_hash for r in noisy.reports]

    def test_cdp_changes_results(self):
        plain = Simulation(small_config()).run()
        noisy = Simulation(small_config(**{"dp.mode": "cdp", "dp.delta": 0.05})).run()
        assert [r.base_hash for r in plain.reports] != [r.base_hash for r in noisy.reports]

    @pytest.mark.parametrize("mode", ["ldp", "cdp"])
    def test_clip_bounds_the_update_not_the_parameters(self, mode):
        # clipping the parameters took this table's norm from 0.234 to the clip
        clip = 0.05
        cfg = small_config(**{"data.users": 60, "data.items": 50, "strategy.kind": "full",
                              "dp.mode": mode, "dp.delta": 1e-6, "dp.clip": clip})
        sim = Simulation(cfg)
        before = float(np.linalg.norm(sim.base.table))
        sim.run_round()
        after = float(np.linalg.norm(sim.base.table))
        assert before > 4 * clip
        assert abs(after - before) <= clip + 1e-3

    def test_every_client_update_within_clip_without_noise(self):
        clip = 0.01
        cfg = small_config(**{"backbone": "fedncf", "federation.lr": 1.0,
                              "federation.warmup_rounds": 1, "dp.mode": "ldp",
                              "dp.delta": 0.0, "dp.clip": clip})
        sim = Simulation(cfg)
        norms = []
        for _ in range(2):           # a warm-up round, then a lora round
            sim._maybe_transition()
            snapshot = round_snapshot(sim)
            for u in select_clients(sim.log.n_users, 0.25, sim.streams, sim.round):
                tensors, _, _ = train_alone(sim, int(u), snapshot, sim.round)
                for t, s in zip(tensors, snapshot):
                    norms.append(np.linalg.norm(densify(t, s).astype(np.float64) - s))
            sim.run_round()
        assert max(norms) <= clip * (1 + 1e-6)
        assert max(norms) > 0.99 * clip        # some update was clipped

    @pytest.mark.parametrize("setting", [{"data.min_interactions": 0},
                                         {"federation.local_epochs": 0}],
                             ids=["no-positives", "no-epochs"])
    def test_ldp_noises_every_sampled_client(self, monkeypatch, setting):
        # clients without training positives, or without a local epoch, take
        # no step, and their upload is noised like everyone else's
        drawn = []
        original = privacy.laplace_noise

        def counted(shape, *args, **kwargs):
            drawn.append(int(np.prod(shape)))
            return original(shape, *args, **kwargs)

        monkeypatch.setattr(privacy, "laplace_noise", counted)
        cfg = small_config(**{"backbone": "fedncf", "federation.sample_ratio": 1.0,
                              "dp.mode": "ldp", "dp.delta": 0.01, **setting})
        sim = Simulation(cfg)
        untrained = [u for u in range(sim.log.n_users)
                     if len(sim.split.train_positives[u]) == 0
                     or cfg.federation.local_epochs == 0]
        assert untrained
        for _ in range(cfg.federation.rounds):    # warm-up and adapter rounds
            drawn.clear()
            report = sim.run_round()
            assert sum(drawn) == len(report.clients) * report.bytes_per_client // 4


class TestFailure:
    def test_non_finite_aggregate_names_round(self):
        cfg = small_config(**{"federation.lr": 1e30, "federation.rounds": 6,
                              "backbone": "fedncf"})
        sim = Simulation(cfg)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="round"):
            for _ in range(6):
                sim.run_round()


class TestCsv:
    def test_rounds_csv_shape(self):
        sim = Simulation(small_config())
        result = sim.run()
        text = rounds_csv(result.reports, result.metric_history, (10, 20),
                          result.config_hash, 0)
        lines = text.splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "round,phase,clients,bytes_per_client,loss,n@10,n@20,h@10,h@20"
        assert len(lines) == 2 + len(result.reports)

    def test_metrics_csv_includes_initial_evaluation(self):
        sim = Simulation(small_config())
        result = sim.run()
        text = metrics_csv(result.metric_history, (10, 20), result.config_hash, 0)
        assert text.splitlines()[2].startswith("0,")
