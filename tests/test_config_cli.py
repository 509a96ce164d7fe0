import json
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedembed import federation
from fedembed.cli import main
from fedembed.config import GRIDS, ConfigError, ExperimentConfig, apply_setting, load_config
from fedembed.data import FEATURE_SOURCES, LOG_SOURCES
from fedembed.federation import Simulation
from fedembed.pretrain import read_codes
from fedembed.strategies import load_checkpoint


BASE_SETTINGS = [
    "unsafe=true",
    "data.users=30", "data.items=24",
    "data.user_clusters=4", "data.item_clusters=4",
    "data.min_interactions=4", "data.max_interactions=8",
    "federation.rounds=2", "federation.warmup_rounds=1",
    "federation.sample_ratio=0.3",
    "eval.negatives=8", "eval.every=1",
    "pretrain.enabled=false",
    "strategy.rank=2",
]


def run_cli(*argv):
    return main(list(argv))


CHOICES = {"backbone": ("fedmf", "fedncf", "pfedrec"),
           "strategy.kind": ("full", "lora", "hash", "rqvae"),
           "strategy.init": ("zero", "base_distribution"),
           "federation.aggregation": ("mean", "weighted"),
           "dp.mode": ("none", "ldp", "cdp"),
           "data.source": LOG_SOURCES,
           "data.feature_source": FEATURE_SOURCES}
# free-text values: nothing the key = value format treats specially
TEXT = st.text(st.characters(blacklist_characters="#=",
                             blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
               max_size=12)
POSITIVE_FLOATS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any config `validate` accepts: every field drawn by its type, within
    the ranges and grids that the validation enforces."""
    cfg = ExperimentConfig(unsafe=draw(st.booleans()))
    sections = [("", cfg)] + [(f.name + ".", getattr(cfg, f.name)) for f in fields(cfg)
                              if hasattr(getattr(cfg, f.name), "__dataclass_fields__")]
    for prefix, obj in sections:
        for f in fields(obj):
            key, value = prefix + f.name, getattr(obj, f.name)
            if key == "unsafe" or hasattr(value, "__dataclass_fields__"):
                continue
            if key in CHOICES:
                new = draw(st.sampled_from(CHOICES[key]))
            elif key in GRIDS and not cfg.unsafe:
                new = draw(st.sampled_from(sorted(GRIDS[key])))
            elif key == "dp.clip":
                new = draw(st.none() | POSITIVE_FLOATS)
            elif key == "eval.ks":
                new = tuple(draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4,
                                          unique=True)))
            elif isinstance(value, bool):
                new = draw(st.booleans())
            elif isinstance(value, int):
                new = draw(st.integers(1, 10**6))
            elif isinstance(value, float):
                new = draw(POSITIVE_FLOATS)
            elif isinstance(value, tuple):
                new = tuple(draw(st.lists(st.integers(1, 4096), max_size=4)))
            else:
                new = draw(TEXT)
            setattr(obj, f.name, new)
    s, d = cfg.strategy, cfg.data
    s.p = s.d_h + draw(st.integers(0, 10**6))
    d.max_interactions = d.min_interactions + draw(st.integers(0, 100))
    d.items = d.item_clusters + draw(st.integers(0, 10**6))
    if d.source != "synthetic":
        d.path = draw(TEXT.filter(bool))
    if d.feature_source == "file" and cfg.pretrain.enabled:
        d.feature_path = draw(TEXT.filter(bool))
    cfg.validate()
    return cfg


class TestConfig:
    def test_defaults_follow_stated_settings(self):
        cfg = ExperimentConfig()
        assert cfg.federation.sample_ratio == 0.10
        assert cfg.federation.local_epochs == 2
        assert cfg.federation.rounds == 1000
        assert cfg.k == 32
        assert cfg.pretrain.beta == 0.25
        assert cfg.strategy.p == 4096
        assert cfg.strategy.expansion == 16

    def test_file_parsing_and_overrides(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("# comment\nbackbone = fedncf\nstrategy.kind = hash\n"
                     "strategy.d_h = 256\ndp.mode = ldp\ndp.delta = 0.1\n"
                     "eval.ks = 10,20\n", encoding="utf-8")
        cfg = load_config(p, overrides=["strategy.d_h=512", "seed=9"])
        assert cfg.backbone == "fedncf"
        assert cfg.strategy.d_h == 512      # override wins
        assert cfg.dp.mode == "ldp" and cfg.dp.delta == 0.1
        assert cfg.eval.ks == (10, 20)
        assert cfg.seed == 9

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="strategy.rnak"):
            load_config(None, overrides=["strategy.rnak=2"])

    def test_grid_validation_names_key(self):
        with pytest.raises(ConfigError, match="strategy.rank"):
            load_config(None, overrides=["strategy.rank=9"])
        with pytest.raises(ConfigError, match="strategy.d_h"):
            load_config(None, overrides=["strategy.d_h=333"])

    def test_unsafe_overrides_grid(self):
        cfg = load_config(None, overrides=["strategy.rank=9", "unsafe=true"])
        assert cfg.strategy.rank == 9

    def test_bad_value_type_reported(self):
        with pytest.raises(ConfigError, match="federation.rounds"):
            load_config(None, overrides=["federation.rounds=ten"])

    def test_hash_round_trip_through_file(self, tmp_path):
        cfg = load_config(None, overrides=["strategy.kind=rqvae", "seed=4",
                                           "eval.ks=5,10"])
        p = tmp_path / "dump.cfg"
        p.write_text(cfg.to_text(), encoding="utf-8")
        again = load_config(p)
        assert again.config_hash() == cfg.config_hash()
        assert again.eval.ks == (5, 10)

    def test_apply_setting_tuple(self):
        cfg = ExperimentConfig()
        apply_setting(cfg, "pretrain.hidden", "64,32")
        assert cfg.pretrain.hidden == (64, 32)

    def test_dp_clip_parses_as_optional_float(self, tmp_path):
        cfg = load_config(None, overrides=["dp.clip=1.5"])
        assert cfg.dp.clip == 1.5 and isinstance(cfg.dp.clip, float)
        p = tmp_path / "dump.cfg"
        p.write_text(cfg.to_text(), encoding="utf-8")
        assert load_config(p).dp.clip == 1.5
        p.write_text(ExperimentConfig().to_text(), encoding="utf-8")
        assert load_config(p).dp.clip is None      # unset is written as empty

    def test_delta_aggregation_is_outside_the_vocabulary(self):
        with pytest.raises(ConfigError, match=r"^federation\.aggregation: must be one of "
                                              r"mean, weighted, got 'delta'$"):
            load_config(None, overrides=["federation.aggregation=delta"]).validate()

    @given(valid_configs())
    @settings(max_examples=150, deadline=None)
    def test_text_round_trip_gives_an_equal_config(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("round_trip") / "dump.cfg"
        path.write_text(cfg.to_text(), encoding="utf-8")
        again = load_config(path)
        assert again.config_hash() == cfg.config_hash()
        again.out_dir = cfg.out_dir           # the one key to_text leaves out
        assert again == cfg

    def test_workers_is_no_longer_a_config_key(self):
        with pytest.raises(ConfigError, match="federation.workers"):
            load_config(None, overrides=["federation.workers=2"])

    def test_prime_collision_parameter_alternative(self):
        cfg = load_config(None, overrides=["strategy.p=4093"])
        assert cfg.strategy.p == 4093


class TestCliTrain:
    def _train(self, tmp_path, *extra):
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS:
            args += ["--set", s]
        args += list(extra)
        assert run_cli(*args) == 0
        return out

    def test_artifacts_written(self, tmp_path, capsys):
        out = self._train(tmp_path)
        for name in ("config.txt", "rounds.csv", "metrics.csv", "metrics.json",
                     "embedding.fpeb", "sim_state.npz", "user_ids.txt", "item_ids.txt"):
            assert (out / name).exists()
        payload = json.loads((out / "metrics.json").read_text())
        assert "final" in payload and "config" in payload

    def test_rounds_zero_emits_initial_evaluation_only(self, tmp_path, capsys):
        out = self._train(tmp_path, "--rounds", "0")
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 3          # comment, header, single round-0 row
        assert metrics[2].startswith("0,")
        rounds = (out / "rounds.csv").read_text().splitlines()
        assert len(rounds) == 2           # no training rounds

    def test_rerun_reproduces_artifacts_byte_identically(self, tmp_path, capsys):
        a = self._train(tmp_path / "a")
        b = self._train(tmp_path / "b")
        for name in ("rounds.csv", "metrics.csv", "metrics.json", "embedding.fpeb"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_workers_flag_keeps_csv_bytes(self, tmp_path, capsys):
        a = self._train(tmp_path / "a", "--workers", "1")
        b = self._train(tmp_path / "b", "--workers", "3")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()

    def test_ldp_with_clip_runs(self, tmp_path, capsys):
        self._train(tmp_path, "--set", "dp.mode=ldp", "--set", "dp.delta=0.01",
                    "--set", "dp.clip=1.0")

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_bad_dp_clip_is_a_config_error(self, tmp_path, capsys, value):
        args = ["train", "--out-dir", str(tmp_path)]
        for s in BASE_SETTINGS + ["dp.mode=ldp", "dp.delta=0.01", f"dp.clip={value}"]:
            args += ["--set", s]
        assert run_cli(*args) == 1
        assert "dp.clip" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "federation.batch_size=0", "federation.local_epochs=-1", "federation.neg_per_pos=-1",
        "federation.lr=-1", "federation.lr=nan", "eval.ks=0", "user_scale=-1",
        "data.users=0", "data.min_interactions=50", "k=0", "strategy.p=4294967296",
        "eval.every=0", "eval.every=-1", "eval.ks=", "eval.ks=10,10,5",
        "dp.mode=both", "dp.delta=-1", "federation.sample_ratio=0",
        "federation.sample_ratio=1.5", "pretrain.lr=0",
    ])
    def test_bad_number_is_a_config_error_naming_the_key(self, tmp_path, capsys, setting):
        args = ["train", "--out-dir", str(tmp_path / "run")]
        for s in BASE_SETTINGS + [setting]:
            args += ["--set", s]
        assert run_cli(*args) == 1
        key = setting.partition("=")[0]
        assert f"config error: {key}: must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("setting, key", [
        ("data.source=foo", "data.source"),
        ("data.source=ml1m", "data.path"),
        ("data.feature_source=file", "data.feature_path"),
        ("data.feature_source=bogus", "data.feature_source"),
        ("pretrain.hidden=0", "pretrain.hidden"),
        ("pretrain.hidden=16,0", "pretrain.hidden"),
    ])
    def test_bad_source_or_layer_is_a_config_error_before_any_data(self, tmp_path, capsys,
                                                                     monkeypatch, setting, key):
        def refuse(*args, **kwargs):
            raise AssertionError("built the log before the config was checked")

        monkeypatch.setattr(federation, "load_log", refuse)
        args = ["train", "--out-dir", str(tmp_path / "run")]
        for s in BASE_SETTINGS + ["pretrain.enabled=true", setting]:
            args += ["--set", s]
        assert run_cli(*args) == 1
        assert f"config error: {key}: must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_feature_path_is_needed_only_to_pretrain(self, tmp_path, capsys):
        self._train(tmp_path, "--set", "data.feature_source=file")

    def test_log_without_test_users_fails_before_pretraining(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pre-trained before the split was checked")

        monkeypatch.setattr(federation, "train_autoencoder", refuse)
        args = ["train", "--out-dir", str(tmp_path / "run")]
        for s in BASE_SETTINGS + ["pretrain.enabled=true", "data.min_interactions=1",
                                  "data.max_interactions=1"]:
            args += ["--set", s]
        assert run_cli(*args) == 2
        assert "no user has two interactions" in capsys.readouterr().err

    def test_round_checkpoints_into_a_fresh_directory(self, tmp_path, capsys):
        out = self._train(tmp_path, "--rounds", "4",
                          "--set", "federation.checkpoint_every=2")
        assert (out / "round_000002.fpeb").exists()
        assert (out / "round_000004.fpeb").exists()

    def test_artifacts_embed_config_hash_and_seed(self, tmp_path, capsys):
        out = self._train(tmp_path, "--seed", "5")
        first = (out / "rounds.csv").read_text().splitlines()[0]
        assert first.startswith("# config=") and "seed=5" in first


class TestCliEval:
    def test_eval_round_trip_matches_final_metrics(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS:
            args += ["--set", s]
        assert run_cli(*args) == 0
        final = json.loads((out / "metrics.json").read_text())["final"]
        capsys.readouterr()
        assert run_cli("eval", str(out), "--json-out", str(tmp_path / "eval.json")) == 0
        got = json.loads((tmp_path / "eval.json").read_text())
        for name, value in final.items():
            assert got[name] == pytest.approx(value)

    @pytest.mark.parametrize("settings", [
        ["backbone=fedmf", "strategy.kind=rqvae", "strategy.levels=2", "strategy.d_r=32",
         "pretrain.enabled=true", "pretrain.steps=20", "pretrain.rq_steps=5",
         "pretrain.hidden=16", "data.feature_dim=8"],
        ["backbone=fedncf", "strategy.kind=hash", "strategy.senet=true",
         "strategy.d_h=16", "strategy.p=4093"],
        ["backbone=pfedrec", "strategy.kind=lora"],
        ["strategy.kind=full"],
        ["backbone=fedncf", "strategy.kind=lora", "federation.rounds=1"],
    ], ids=["fedmf-rqvae", "fedncf-hash-senet", "pfedrec-lora", "full",
            "rounds-eq-warmup"])
    def test_eval_restores_without_pretraining(self, tmp_path, capsys, monkeypatch,
                                               settings):
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS + settings:
            args += ["--set", s]
        assert run_cli(*args) == 0
        final = json.loads((out / "metrics.json").read_text())["final"]
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("eval must not pre-train or initialize the table")

        for name in ("train_autoencoder", "train_rqvae", "build_item_features",
                     "init_uniform"):
            monkeypatch.setattr(federation, name, refuse)
        assert run_cli("eval", str(out)) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "metric,value"
        assert dict(row.split(",") for row in rows) == {k: f"{v:.2f}" for k, v in final.items()}
        assert run_cli("eval", str(out), "--set", "eval.negatives=-1") == 0


    @pytest.mark.parametrize("backbone, key, where", [
        ("fedmf", None, "the checkpoint's adapter"),
        ("pfedrec", "user_w0", "sim_state.npz array user_w0"),
        ("fedncf", "user_emb", "sim_state.npz array user_emb"),
    ])
    def test_eval_rejects_a_non_finite_saved_value(self, tmp_path, capsys, backbone, key,
                                                   where):
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS + [f"backbone={backbone}"]:
            args += ["--set", s]
        assert run_cli(*args) == 0
        capsys.readouterr()
        if key is None:
            # the last float of a lora checkpoint is the last entry of its B factor
            path = out / "embedding.fpeb"
            path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("nan")))
        else:
            with np.load(out / "sim_state.npz") as data:
                arrays = dict(data)
            arrays[key].flat[-1] = np.nan
            np.savez(out / "sim_state.npz", **arrays)
        assert run_cli("eval", str(out)) == 2
        assert f"non-finite values in {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("data.items=30", "saved item table has 24 items, the interaction log 30"),
        ("data.users=40", "saved state has 30 users, the interaction log 40"),
    ])
    def test_eval_rejects_a_log_of_another_size(self, tmp_path, capsys, setting, message):
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS:
            args += ["--set", s]
        assert run_cli(*args) == 0
        capsys.readouterr()
        assert run_cli("eval", str(out), "--set", setting) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("backbone=fedncf", "backbone: the saved run's shared MLP (0 tensors)"),
        ("backbone=pfedrec", "backbone: the saved run's shared MLP (0 tensors)"),
        ("strategy.kind=hash", "strategy.kind: the saved run at round 2 has a lora adapter"),
    ])
    def test_eval_rejects_overrides_that_contradict_the_saved_model(self, tmp_path, capsys,
                                                                    setting, message):
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS:
            args += ["--set", s]
        assert run_cli(*args) == 0
        capsys.readouterr()
        assert run_cli("eval", str(out), "--set", setting) == 2
        assert message in capsys.readouterr().err
        assert run_cli("eval", str(out), "--set", "eval.negatives=-1") == 0

    @pytest.mark.parametrize("settings, key", [
        (["strategy.senet=true", "strategy.d_h=1024"], "strategy.d_h"),
        (["strategy.n_hashes=3"], "strategy.n_hashes"),
        (["seed=5"], "seed"),
    ], ids=["senet-d_h", "n_hashes", "seed"])
    def test_eval_set_may_change_only_eval_keys(self, tmp_path, capsys, settings, key):
        # each of these once rescored the saved model: under another config
        # hash, or on another seed's split
        out = tmp_path / "run"
        args = ["train", "--out-dir", str(out)]
        for s in BASE_SETTINGS + ["strategy.kind=hash", "strategy.d_h=256", "strategy.p=4093"]:
            args += ["--set", s]
        assert run_cli(*args) == 0
        capsys.readouterr()
        json_out = tmp_path / "b.json"
        overrides = [arg for s in settings for arg in ("--set", s)]
        assert run_cli("eval", str(out), *overrides, "--json-out", str(json_out)) == 2
        assert f"{key}: eval --set may change only eval.* keys" in capsys.readouterr().err
        assert not json_out.exists()
        assert run_cli("eval", str(out), "--set", "eval.negatives=-1") == 0


class TestCliComm:
    def test_full_row_dominates_peft_rows(self, tmp_path, capsys):
        csv = tmp_path / "comm.csv"
        assert run_cli("comm", "--items", "3706", "--csv-out", str(csv)) == 0
        lines = csv.read_text().splitlines()[2:]
        rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines}
        full = rows.pop("full")
        assert all(full > v for v in rows.values())

    @pytest.mark.parametrize("p", [4096, 4093])
    def test_hash_rows_report_measured_distinct_tuples(self, capsys, p):
        assert run_cli("comm", "--items", "3706", "--set", f"strategy.p={p}") == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[2:]]
        hashed = [int(r[-1]) for r in rows if r[0].startswith("hash")]
        assert len(hashed) == 2
        assert all((n <= 512) == (p == 4096) for n in hashed)
        assert all(r[-1] == "" for r in rows if not r[0].startswith("hash"))

    def test_errors_use_exit_codes(self, tmp_path, capsys):
        assert run_cli("comm", "--set", "strategy.d_h=7") == 1
        err = capsys.readouterr().err
        assert "strategy.d_h" in err

    @pytest.mark.parametrize("argv, name", [
        (["--ranks", "0,9"], "strategy.rank: must be >= 1"),
        (["--ranks", "2,9"], "strategy.rank: 9 outside supported grid"),
        (["--ranks", "2,x"], "strategy.rank"),
        (["--ranks", ""], "--ranks: names no value"),
        (["--items", "-3"], "--items: must be >= 1"),
        (["--items", "0"], "--items: must be >= 1"),
    ])
    def test_flags_follow_the_config_rules(self, capsys, argv, name):
        assert run_cli("comm", *argv) == 1
        assert name in capsys.readouterr().err

    def test_unsafe_admits_a_rank_outside_the_grid_but_not_below_one(self, capsys):
        assert run_cli("comm", "--items", "10", "--ranks", "9", "--unsafe") == 0
        rows = [ln.split(",")[0] for ln in capsys.readouterr().out.splitlines()[2:]]
        assert "lora[rank=9]" in rows
        assert run_cli("comm", "--items", "10", "--ranks", "0", "--unsafe") == 1


PRETRAIN_SETTINGS = BASE_SETTINGS + [
    "pretrain.enabled=true", "data.feature_dim=8", "pretrain.hidden=16",
    "pretrain.steps=20", "pretrain.rq_steps=10", "strategy.levels=2", "strategy.d_r=8",
]


class TestCliPretrain:
    @pytest.mark.parametrize("kind", ["lora", "rqvae"])
    def test_writes_the_table_and_codes_a_run_starts_from(self, tmp_path, capsys,
                                                         monkeypatch, kind):
        settings = PRETRAIN_SETTINGS + [f"strategy.kind={kind}"]
        sim = Simulation(load_config(None, settings))
        out = tmp_path / "pre"
        args = ["pretrain", "--out-dir", str(out)]
        for s in settings:
            args += ["--set", s]
        assert run_cli(*args) == 0
        base, adapter = load_checkpoint(out / "embedding.fpeb")
        assert adapter is base and base.kind == "full"
        assert base.table.tobytes() == sim.base.table.tobytes()
        if kind == "rqvae":
            assert np.array_equal(read_codes(out / "codes.tsv"), sim.codes)
        else:
            assert not (out / "codes.tsv").exists()

        def refuse(*args, **kwargs):
            raise AssertionError("pretrain builds no split and no per-user state")

        for name in ("make_user_state", "attach_eval_negatives"):
            monkeypatch.setattr(federation, name, refuse)
        assert run_cli(*args) == 0


class TestCliSweep:
    def test_rank_sweep_comm_strictly_increasing(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        args = ["sweep", "--param", "strategy.rank", "--values", "2,3,4",
                "--csv-out", str(csv), "--rounds", "1"]
        for s in BASE_SETTINGS:
            args += ["--set", s]
        assert run_cli(*args) == 0
        lines = csv.read_text().splitlines()[2:]
        uploads = [float(ln.split(",")[-2]) for ln in lines]
        assert uploads == sorted(uploads)
        assert len(set(uploads)) == len(uploads)

    def test_upload_column_includes_the_shared_mlp(self, tmp_path, capsys):
        # the column once left out FedNCF's MLP: 1,216 bytes against 67,780 charged
        settings = BASE_SETTINGS + ["backbone=fedncf", "data.users=60", "data.items=120",
                                    "data.item_clusters=8"]
        csv = tmp_path / "sweep.csv"
        args = ["sweep", "--param", "strategy.rank", "--values", "2",
                "--csv-out", str(csv)]
        run = ["train", "--out-dir", str(tmp_path / "run")]
        for s in settings:
            args += ["--set", s]
            run += ["--set", s]
        assert run_cli(*args) == 0
        assert run_cli(*run) == 0
        column = int(csv.read_text().splitlines()[2].split(",")[-2])
        rows = (tmp_path / "run" / "rounds.csv").read_text().splitlines()[2:]
        charged = {int(r.split(",")[3]) for r in rows if r.split(",")[1] == "peft"}
        assert charged == {column}
        assert column > 60_000

    @pytest.mark.parametrize("values, message", [
        ("", "--values: names no value"),
        (" , ", "--values: names no value"),
        ("2,9", "strategy.rank: 9 outside supported grid"),
    ])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, values, message):
        args = ["sweep", "--param", "strategy.rank", "--values", values, "--rounds", "1"]
        for s in BASE_SETTINGS[1:]:      # without unsafe=true, so the grid applies
            args += ["--set", s]
        assert run_cli(*args) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestExitCodes:
    def test_config_error_exit_1(self, capsys):
        assert run_cli("train", "--set", "backbone=nope") == 1
        assert "backbone" in capsys.readouterr().err

    def test_runtime_error_exit_2(self, tmp_path, capsys):
        # nonexistent dataset file surfaces as a runtime failure
        args = ["train", "--set", "data.source=ml1m", "--set", "data.path=/nope.dat",
                "--out-dir", str(tmp_path)]
        assert run_cli(*args) == 2
