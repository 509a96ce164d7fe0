"""Tests of the benchmark itself: a tiny run of all five steps per workload,
the trace, and each correctness check rejecting a perturbed input.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from fedembed import metrics as fm  # noqa: E402
from fedembed.backbones import make_backbone, make_user_state  # noqa: E402
from fedembed.data import (attach_eval_negatives, leave_one_out_split,  # noqa: E402
                           synthesize_interactions)
from fedembed.rng import RngStream  # noqa: E402
from fedembed.strategies import (FullEmbeddingTable, make_adapter,  # noqa: E402
                                 save_checkpoint, serialize_upload)

# Same layers and code paths as the real workloads, at a size that runs in
# about a second each; later settings override earlier ones.
TINY = {
    "desk-lora": dict(settings=("data.users=160", "data.items=160", "pretrain.steps=60",
                                "federation.warmup_rounds=2", "federation.sample_ratio=0.5"),
                      rounds=4, eval_every=2),
    "catalog-hash-ldp": dict(settings=("data.users=120", "data.items=400", "strategy.d_h=256",
                                       "pretrain.steps=30", "federation.warmup_rounds=1",
                                       "federation.sample_ratio=0.5"),
                             rounds=3, eval_every=1, topk_users=12),
    "serve-rqvae": dict(settings=("data.users=150", "data.items=200", "strategy.levels=2",
                                  "strategy.d_r=32", "pretrain.steps=60", "pretrain.rq_steps=10",
                                  "federation.sample_ratio=0.5"),
                        rounds=3, eval_every=3),
}


def tiny(name: str):
    wl = WORKLOADS[name]
    t = TINY[name]
    return dataclasses.replace(wl, settings=wl.settings + t["settings"],
                               **{k: v for k, v in t.items() if k != "settings"})


# ---------------------------------------------------------------- smoke runs

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_five_steps_pass_every_check(name, tmp_path):
    out = worker.run_repeat(tiny(name), seed=1, work_dir=tmp_path)
    assert out["error"] is None, out["error"]
    assert out["checks"] == dict.fromkeys(worker.CHECKS, "ok")
    assert out["correct"]
    assert all(c["failed"] == 0 for c in out["ops"].values())
    assert set(out["metrics"]) == {
        "setup_s", "client_rounds_per_s", "topk_users_per_s", "reload_s", "wall_s", "cpu_s",
        "peak_rss_mb", "upload_kb_per_client", "upload_mb_total", "ndcg_at_10"}
    assert all(v > 0 for v in out["metrics"].values())
    assert (tmp_path / "run" / "embedding.fpeb").exists()


def test_traced_repeat_reports_layers_and_marks_missing(tmp_path):
    out = worker.run_repeat(tiny("catalog-hash-ldp"), seed=1, work_dir=tmp_path, traced=True,
                            spans_out=tmp_path / "spans.npz")
    assert out["correct"], out["checks"]
    layers = out["layers"]
    assert set(layers) == set(spans.LAYER_METRICS)
    # no RQ-VAE in this workload: reported as missing, not as zero
    assert layers["pretrain.rqvae_s"] is None and layers["pretrain.rq_encode_ms"] is None
    reached = {m: v for m, v in layers.items() if v is not None}
    assert len(reached) == len(layers) - 2 and all(v > 0 for v in reached.values())
    assert layers["rng.generator_calls"] >= 5
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["name"]) == len(saved["parent"]) > 0
    # the tracer restored every function it wrapped
    from fedembed import federation
    assert not hasattr(federation.local_step, "__wrapped__")


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-lora",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------- tracer

def test_spans_record_parents_and_self_time():
    tr = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_t = tr.wrap(leaf, "leaf")

    def outer():
        leaf_t()
        leaf_t()
        time.sleep(0.01)

    tr.wrap(outer, "outer")()
    t = spans.SpanTable(tr.arrays())
    assert t.count("leaf") == 2 and t.count("leaf", under=("outer",)) == 2
    assert list(t.parent) == [-1, 0, 0]
    outer_self = t.total(t.self_time, "outer")
    assert 0.009 < outer_self < t.total(t.dur, "outer") - 0.019
    assert t.mean(t.dur, "never") is None


def test_layer_metrics_without_spans_are_missing():
    empty = spans.Tracer().arrays()
    assert set(spans.layer_metrics(empty, 1, 1, 1).values()) == {None}


# ---------------------------------------------------------------- uploads and noise

def _rounds(peft_bytes=6656):
    return [{"round": 0, "phase": "warmup", "clients": 3, "bytes_per_client": 102400,
             "aggregate_bytes": 307200, "train_loss": 0.6, "base_hash": "a"},
            {"round": 1, "phase": "peft", "clients": 3, "bytes_per_client": peft_bytes,
             "aggregate_bytes": 3 * peft_bytes, "train_loss": 0.5, "base_hash": "b"},
            {"round": 2, "phase": "peft", "clients": 3, "bytes_per_client": peft_bytes,
             "aggregate_bytes": 3 * peft_bytes, "train_loss": 0.4, "base_hash": "b"}]


def test_upload_closed_forms_match_serialized_payloads():
    n, k = 50, 8
    streams = RngStream(0)
    codes = np.zeros((n, 3), dtype=np.int64)
    for kind, kw in [("full", {}), ("lora", {"rank": 3}), ("hash", {"d_h": 16}),
                     ("rqvae", {"levels": 3, "d_r": 4})]:
        adapter = make_adapter(kind, n, k, streams, codes=codes, **kw)
        assert len(serialize_upload(adapter)) == checks.upload_bytes(kind, n, k, **kw)
    assert make_backbone("fedncf", k, streams).upload_bytes() == 4 * checks.ncf_param_count(k)


def test_upload_check_rejects_wrong_sizes():
    expected = {"warmup": 102400, "peft": 6656}
    checks.check_uploads(_rounds(), expected)
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_uploads(_rounds(peft_bytes=6660), expected)
    bad = _rounds()
    bad[0]["aggregate_bytes"] += 4
    with pytest.raises(checks.CheckFailed, match="in total"):
        checks.check_uploads(bad, expected)


def test_noise_count_check():
    expected = {"warmup": 400, "peft": 40}
    rounds = [{"phase": "warmup", "clients": 3}, {"phase": "peft", "clients": 2}]
    checks.check_noise_count(3 * 100 + 2 * 10, rounds, expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_noise_count(3 * 100 + 2 * 10 - 1, rounds, expected)


def test_learning_check():
    assert checks.random_ndcg() == pytest.approx(4.5436, abs=1e-4)
    checks.check_learning([0.6, 0.5], 10.0)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_learning([0.6, math.nan], 10.0)
    with pytest.raises(checks.CheckFailed, match="random"):
        checks.check_learning([0.6, 0.5], 4.5)


# ---------------------------------------------------------------- checkpoint and scoring

def _adapter(kind: str, n: int, k: int, seed: int = 3):
    streams = RngStream(seed)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 8, size=(n, 2)) if kind == "rqvae" else None
    adapter = make_adapter(kind, n, k, streams, rank=2, d_h=16, n_hashes=2, p=97,
                           levels=2, d_r=8, codes=codes, init="base_distribution")
    for t in adapter.trainable():      # non-trivial adapter values
        t += rng.normal(0, 0.1, t.shape).astype(t.dtype)
    base = FullEmbeddingTable(rng.normal(0, 0.3, (n, k)).astype(np.float32))
    if kind == "full":
        base = FullEmbeddingTable(adapter.table)
    return base, adapter


@pytest.mark.parametrize("kind", ["full", "lora", "hash", "rqvae"])
def test_reference_composition_matches_program(kind, tmp_path):
    n, k = 40, 6
    base, adapter = _adapter(kind, n, k)
    save_checkpoint(tmp_path / "e.fpeb", base, adapter)
    ck = checks.read_checkpoint(tmp_path / "e.fpeb")
    program, _ = adapter.compose(base.table, np.arange(n))
    np.testing.assert_allclose(checks.compose(ck), program, rtol=1e-5, atol=1e-6)


def test_checkpoint_reader_rejects_truncated_and_trailing_bytes(tmp_path):
    base, adapter = _adapter("hash", 30, 4)
    path = tmp_path / "e.fpeb"
    save_checkpoint(path, base, adapter)
    good = path.read_bytes()
    path.write_bytes(good[:-4])
    with pytest.raises(checks.CheckFailed, match="truncated"):
        checks.read_checkpoint(path)
    path.write_bytes(good + b"\0\0\0\0")
    with pytest.raises(checks.CheckFailed, match="trailing"):
        checks.read_checkpoint(path)


def test_reference_hash_formula_is_independent(tmp_path):
    """A checkpoint whose hash modulus was altered composes differently."""
    base, adapter = _adapter("hash", 40, 6)
    save_checkpoint(tmp_path / "e.fpeb", base, adapter)
    ck = checks.read_checkpoint(tmp_path / "e.fpeb")
    altered = dict(ck, p=ck["p"] + 1)
    assert not np.allclose(checks.compose(altered), checks.compose(ck))


def test_ncf_reference_scores_match_program():
    k = 6
    streams = RngStream(5)
    backbone = make_backbone("fedncf", k, streams)
    state = make_user_state("fedncf", k, 0, streams, scale=0.5)
    emb = np.random.default_rng(5).normal(0, 0.5, (30, k)).astype(np.float32)
    program, _ = fm.score(backbone, state, emb, mode="eval")
    layers = [(w.astype(np.float64), b.astype(np.float64))
              for w, b in zip(backbone.mlp.weights, backbone.mlp.biases)]
    np.testing.assert_allclose(checks.scores(emb.astype(np.float64), state.embedding, layers),
                               program, rtol=1e-4, atol=1e-6)


def test_rank_interval_counts_exact_ties_against_the_test_item():
    assert checks.rank_interval(0.5, np.array([0.5, 0.1, 0.9]), 1e-9) == (3, 3)
    assert checks.rank_interval(0.5, np.array([0.5 + 1e-12, 0.1]), 1e-9) == (1, 2)


# ---------------------------------------------------------------- ranking metrics and top-k

@pytest.fixture(scope="module")
def small_model():
    """A lora model over a synthetic log with fixed evaluation candidates."""
    n, k = 120, 8
    log = synthesize_interactions(60, n, seed=4, interactions_range=(4, 12))
    split = leave_one_out_split(log)
    attach_eval_negatives(split, 99, RngStream(4).child("eval"))
    base, adapter = _adapter("lora", n, k, seed=4)
    streams = RngStream(4)
    backbone = make_backbone("fedmf", k, streams)
    states = {u: make_user_state("fedmf", k, u, streams, scale=1.0) for u in range(log.n_users)}
    users = np.stack([states[u].embedding for u in range(log.n_users)])
    emb = adapter.compose(base.table, np.arange(n))[0].astype(np.float64)
    return dict(n=n, split=split, base=base, adapter=adapter, backbone=backbone,
                states=states, users=users.astype(np.float64), emb=emb)


def test_metrics_check_accepts_program_and_rejects_perturbations(small_model):
    m = small_model
    reported = fm.evaluate(m["backbone"], m["states"], m["adapter"], m["base"].table,
                           m["split"], ks=(10,))
    test = [(int(u), int(i), m["split"].negatives[int(u)])
            for u, i in zip(m["split"].test_users, m["split"].test_items)]
    ref = checks.reference_metrics(m["emb"], m["users"], [], test)
    checks.check_metrics(reported, ref)
    with pytest.raises(checks.CheckFailed, match="n@10"):
        checks.check_metrics(dict(reported, **{"n@10": reported["n@10"] + 0.01}), ref)
    with pytest.raises(checks.CheckFailed):      # scores from other user embeddings
        checks.check_metrics(reported, checks.reference_metrics(m["emb"], -m["users"], [], test))


def _program_lists(m, users):
    return {u: fm.top_k_items(m["backbone"], m["states"][u], m["adapter"], m["base"].table,
                              m["split"].train_positives[u], m["n"], 20) for u in users}


def test_top_k_check_accepts_program_and_rejects_perturbations(small_model):
    m = small_model
    users = [int(u) for u in m["split"].test_users[:10]]
    pos = {u: m["split"].train_positives[u] for u in users}
    lists = _program_lists(m, users)
    checks.check_top_k(lists, m["emb"], m["users"], [], pos, 20)
    u = users[0]

    def rejects(bad_list, match):
        with pytest.raises(checks.CheckFailed, match=match):
            checks.check_top_k({**lists, u: bad_list}, m["emb"], m["users"], [], pos, 20)

    good = lists[u]
    rejects(good[[1, 0, *range(2, 20)]], "ranked below")
    outside = np.setdiff1d(np.setdiff1d(np.arange(m["n"]), good), pos[u])
    worst = outside[np.argmin(m["emb"][outside] @ m["users"][u])]
    rejects(np.append(good[:-1], worst), "left out")
    rejects(np.append(good[:-1], pos[u][0]), "training item")
    rejects(good[:-1], "list of")


def test_top_k_check_breaks_exact_ties_toward_lower_id():
    emb = np.array([[1.0], [2.0], [2.0], [0.5]])
    users = np.array([[1.0]])
    pos = {0: np.array([], dtype=np.int64)}
    checks.check_top_k({0: np.array([1, 2])}, emb, users, [], pos, 2)
    with pytest.raises(checks.CheckFailed, match="lower id"):
        checks.check_top_k({0: np.array([2, 1])}, emb, users, [], pos, 2)
    with pytest.raises(checks.CheckFailed, match="lower id"):
        checks.check_top_k({0: np.array([2])}, emb, users, [], pos, 1)


# ---------------------------------------------------------------- freeze and eval output

def test_frozen_check_rejects_moved_table_codes_and_hash_params(tmp_path):
    base, adapter = _adapter("hash", 30, 4)
    save_checkpoint(tmp_path / "e.fpeb", base, adapter)
    ck = checks.read_checkpoint(tmp_path / "e.fpeb")
    h = checks.table_hash(base.table)
    rounds = [{"round": 0, "phase": "warmup", "base_hash": h},
              {"round": 1, "phase": "peft", "base_hash": h},
              {"round": 2, "phase": "peft", "base_hash": h}]
    params = (adapter.hash_a.copy(), adapter.hash_b.copy())
    checks.check_frozen(rounds, ck, None, params)
    moved = [dict(r) for r in rounds]
    moved[2]["base_hash"] = "0" * 64
    with pytest.raises(checks.CheckFailed, match="adapter rounds"):
        checks.check_frozen(moved, ck, None, params)
    with pytest.raises(checks.CheckFailed, match="hash parameters"):
        checks.check_frozen(rounds, ck, None, (params[0] + 1, params[1]))
    with pytest.raises(checks.CheckFailed, match="frozen after warm-up"):
        checks.check_frozen(rounds, dict(ck, base=ck["base"] + 1), None, params)

    base, adapter = _adapter("rqvae", 30, 4)
    save_checkpoint(tmp_path / "r.fpeb", base, adapter)
    ck = checks.read_checkpoint(tmp_path / "r.fpeb")
    checks.check_frozen([], ck, adapter.codes, None)
    moved_codes = adapter.codes.copy()
    moved_codes[0, 0] = (moved_codes[0, 0] + 1) % 8
    with pytest.raises(checks.CheckFailed, match="codes"):
        checks.check_frozen([], ck, moved_codes, None)


def test_eval_output_check():
    final = {"n@10": 12.5, "h@10": 30.0}
    printed = "metric,value\nn@10,12.50\nh@10,30.00\n"
    checks.check_eval_output(0, printed, final)
    with pytest.raises(checks.CheckFailed, match="exited"):
        checks.check_eval_output(2, printed, final)
    with pytest.raises(checks.CheckFailed, match="printed"):
        checks.check_eval_output(0, printed.replace("12.50", "12.51"), final)
    with pytest.raises(checks.CheckFailed, match="printed"):
        checks.check_eval_output(0, "metric,value\nn@10,12.50\n", final)
    with pytest.raises(checks.CheckFailed, match="no metric table"):
        checks.check_eval_output(0, "", final)
