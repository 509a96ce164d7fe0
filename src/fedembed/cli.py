"""Command-line entry point.

Subcommands: `pretrain` (embedding table + semantic codes), `train` (full
federated run), `eval` (saved run -> metric table), `comm` (strategy cost
report), `sweep` (grid runs). Exit codes: 0 ok, 1 config error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, apply_setting, load_config
from .data import save_id_maps
from .federation import (Simulation, initial_items, load_log, load_sim_state, metrics_csv,
                         rounds_csv, save_sim_state)
from .pretrain import write_codes
from .strategies import (FullEmbeddingTable, StrategyConfig, comm_cost, make_adapter,
                         representation_capacity, save_checkpoint, serialize_upload)
from .rng import RngStream


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: clients train in one process, in lock-step "
                        "chunks (fedmf with full or lora) or one after another")
    p.add_argument("--unsafe", action="store_true",
                   help="skip hyperparameter grid validation")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    out_env = os.environ.get("FEDEMBED_OUT")
    if out_env:
        overrides.append(f"out_dir={out_env}")
    if args.out_dir:
        overrides.append(f"out_dir={args.out_dir}")
    if args.rounds is not None:
        overrides.append(f"federation.rounds={args.rounds}")
    if args.unsafe:
        overrides.append("unsafe=true")
    return load_config(args.config, overrides)


def _write_run_artifacts(sim: Simulation, result, out: Path) -> None:
    cfg = sim.config
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(cfg.to_text(), encoding="utf-8")
    (out / "rounds.csv").write_text(
        rounds_csv(result.reports, result.metric_history, cfg.eval.ks,
                   result.config_hash, cfg.seed), encoding="utf-8")
    (out / "metrics.csv").write_text(
        metrics_csv(result.metric_history, cfg.eval.ks, result.config_hash, cfg.seed),
        encoding="utf-8")
    (out / "metrics.json").write_text(json.dumps({
        "config": result.config_hash, "seed": cfg.seed,
        "final": result.final_metrics,
        "history": [{"round": r, **m} for r, m in result.metric_history],
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_id_maps(sim.log, out)
    save_sim_state(sim, out)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    out = Path(cfg.out_dir)
    sim = Simulation(cfg)
    result = sim.run(checkpoint_dir=out if cfg.federation.checkpoint_every > 0 else None)
    _write_run_artifacts(sim, result, out)
    print(f"run {result.config_hash} seed={cfg.seed} rounds={sim.round}")
    for name, value in result.final_metrics.items():
        print(f"  {name} = {value:.2f}")
    print(f"artifacts in {out}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if not cfg.pretrain.enabled:
        raise ConfigError("pretrain.enabled: pretrain subcommand requires true")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = load_log(cfg)
    table, codes = initial_items(cfg, log, RngStream(cfg.seed))
    base = FullEmbeddingTable(table)
    save_checkpoint(out / "embedding.fpeb", base, base)
    save_id_maps(log, out)
    print(f"pretrained table {table.shape} -> {out / 'embedding.fpeb'}")
    if codes is not None:
        write_codes(out / "codes.tsv", codes)
        print(f"semantic codes {codes.shape} -> {out / 'codes.tsv'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    cfg = load_config(run_dir / "config.txt", args.set or None)
    sim = Simulation(cfg, saved=load_sim_state(run_dir))
    # every key but eval.* fixed the saved model or its split; checked after
    # `Simulation`, whose messages name a backbone, strategy or size mismatch
    trained = dict(line.split(" = ", 1) for line in
                   load_config(run_dir / "config.txt").to_text().splitlines())
    for key, value in (line.split(" = ", 1) for line in cfg.to_text().splitlines()):
        if value != trained[key] and not key.startswith("eval."):
            raise ValueError(f"{key}: eval --set may change only eval.* keys; "
                             f"the run was trained with {key} = {trained[key]}")
    table = sim.evaluate()
    print("metric,value")
    for name, value in table.items():
        print(f"{name},{value:.2f}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps({"config": cfg.config_hash(), "seed": cfg.seed, **table},
                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _comm_rows(n: int, k: int, cfg: ExperimentConfig, ranks: list[int]) -> list[dict]:
    """One verified cost row per strategy configuration."""
    s = cfg.strategy
    streams = RngStream(cfg.seed)
    rows = []

    def add(label: str, c: StrategyConfig) -> None:
        settings = asdict(c)
        codes = np.zeros((n, c.levels), dtype=np.int64) if c.kind == "rqvae" else None
        adapter = make_adapter(n_items=n, k=k, streams=streams.child("comm", len(rows)),
                               codes=codes, **settings)
        predicted, actual = comm_cost(n_items=n, k=k, **settings), len(serialize_upload(adapter))
        if actual != predicted:
            raise RuntimeError(f"cost model mismatch for {c.kind}: {predicted} != {actual}")
        rows.append({"strategy": label, "upload_bytes": predicted,
                     "upload_kb": predicted / 1000.0,
                     "representation": representation_capacity(n_items=n, **settings),
                     "distinct": adapter.distinct_index_tuples() if c.kind == "hash" else ""})

    add("full", replace(s, kind="full"))
    for r in ranks:
        add(f"lora[rank={r}]", replace(s, kind="lora", rank=r))
    add(f"rqvae[levels={s.levels};d_r={s.d_r}]", replace(s, kind="rqvae"))
    add(f"hash[d_h={s.d_h};h={s.n_hashes}]", replace(s, kind="hash", senet=False))
    add(f"hash_senet[d_h={s.d_h};h={s.n_hashes}]", replace(s, kind="hash", senet=True))
    return rows


def _each_value(args: argparse.Namespace, flag: str, raw: str, key: str
                ) -> list[tuple[str, ExperimentConfig]]:
    """One config per comma-separated value of a list flag, set at `key` and
    validated by the config's own rules."""
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"{flag}: names no value")
    out = []
    for value in values:
        cfg = _build_config(args)
        apply_setting(cfg, key, value)
        cfg.validate()
        out.append((value, cfg))
    return out


def cmd_comm(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.items < 1:
        raise ConfigError(f"--items: must be >= 1, got {args.items}")
    ranks = [c.strategy.rank for _, c in _each_value(args, "--ranks", args.ranks,
                                                     "strategy.rank")]
    rows = _comm_rows(args.items, cfg.k, cfg, ranks)
    lines = [f"# config={cfg.config_hash()} n={args.items} k={cfg.k}",
             "strategy,upload_bytes,upload_kb,representation,distinct_hash_tuples"]
    for row in rows:
        lines.append(f"{row['strategy']},{row['upload_bytes']},"
                     f"{row['upload_kb']:.3f},{row['representation']},{row['distinct']}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.csv_out:
        Path(args.csv_out).write_text(text, encoding="utf-8")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base_cfg = _build_config(args)
    header_metrics: list[str] = []
    rows = []
    for value, cfg in _each_value(args, "--values", args.values, args.param):
        sim = Simulation(cfg)
        result = sim.run()
        if not header_metrics:
            header_metrics = list(result.final_metrics)
        # after `run` the adapter is the strategy's own, so this is its charge
        rows.append((value, result.final_metrics, sim.client_upload_bytes()))
    lines = [f"# sweep {args.param} config={base_cfg.config_hash()} seed={base_cfg.seed}",
             f"{args.param}," + ",".join(header_metrics) + ",upload_bytes,upload_kb"]
    for value, m, upload in rows:
        vals = ",".join(f"{m[name]:.2f}" for name in header_metrics)
        lines.append(f"{value},{vals},{upload},{upload / 1000.0:.3f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.csv_out:
        Path(args.csv_out).write_text(text, encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fedembed", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_train = sub.add_parser("train", help="run a federated experiment")
    _add_common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_pre = sub.add_parser("pretrain", help="emit embedding table and semantic codes")
    _add_common(p_pre)
    p_pre.set_defaults(fn=cmd_pretrain)

    p_eval = sub.add_parser("eval", help="evaluate a saved run directory")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_eval.add_argument("--json-out", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_comm = sub.add_parser("comm", help="per-strategy communication cost report")
    _add_common(p_comm)
    p_comm.add_argument("--items", type=int, default=3706)
    p_comm.add_argument("--ranks", default="2,3,4,5,6")
    p_comm.add_argument("--csv-out", default=None)
    p_comm.set_defaults(fn=cmd_comm)

    p_sweep = sub.add_parser("sweep", help="grid runs over one config key")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", default="strategy.rank")
    p_sweep.add_argument("--values", default="2,3,4,5,6")
    p_sweep.add_argument("--csv-out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
