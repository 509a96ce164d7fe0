"""One repeat of one workload, run in a fresh process by `run.py`.

The repeat goes through five steps of the program's public API, timing each
call: build a `Simulation`; run its rounds, evaluating at intervals; write
the run directory with the helper `fedembed train` uses; re-score that
directory with `fedembed eval` through `fedembed.cli.main`; produce top-20
lists. Only then, with the clocks stopped, does it run the checks in
`checks.py`. The result is written as JSON to the path given by `--out`.

    python3 perfbench/worker.py --workload desk-lora --seed 0 --trace 0 \
        --work-dir <empty dir> --out <result.json>
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import TOP_K, WORKLOADS, Workload  # noqa: E402

CHECKS = ("uploads", "learning", "metrics", "top_k", "frozen", "eval_output", "noise")
# The top-k step is repeated until it has run this long, so that a short
# step is timed over more than a passing moment of the host.
TOPK_MIN_S = 1.0


def client_rounds_per_s(rounds: list[tuple[str, int, float]]) -> float:
    """Client-rounds per second of the round schedule, each phase's rounds
    timed by their median: (phase, clients, seconds) per round, possibly
    pooled over repeats of the same schedule."""
    clients = seconds = 0.0
    for phase in sorted({r[0] for r in rounds}):
        mine = [r for r in rounds if r[0] == phase]
        clients += sum(r[1] for r in mine)
        seconds += len(mine) * statistics.median(r[2] for r in mine)
    return clients / seconds


def topk_users_per_s(calls: list[tuple[int, float]]) -> float:
    """Median over top-k calls of users listed per second: (users, seconds)."""
    return statistics.median(users / sec for users, sec in calls)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Wall and CPU time spent inside program calls, and nothing else."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.last = 0.0

    def call(self, fn, *args, **kwargs):
        c0, t0 = _cpu(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.last = time.perf_counter() - t0
            self.wall += self.last
            self.cpu += _cpu() - c0


class NoiseCounter:
    """Counts the values `fedembed.privacy.laplace_noise` is asked to draw."""

    def __init__(self):
        self.values = 0

    def __enter__(self):
        import numpy as np
        from fedembed import privacy
        self._module, self._original = privacy, privacy.laplace_noise

        def counted(shape, *args, **kwargs):
            self.values += int(np.prod(shape))
            return self._original(shape, *args, **kwargs)

        privacy.laplace_noise = counted
        return self

    def __exit__(self, *exc):
        self._module.laplace_noise = self._original


def _round_rows(reports) -> list[dict]:
    return [{"round": r.round, "phase": r.phase, "clients": len(r.clients),
             "bytes_per_client": r.bytes_per_client, "aggregate_bytes": r.aggregate_bytes,
             "train_loss": r.train_loss, "base_hash": r.base_hash} for r in reports]


def topk_sample(test_users, count: int, seed: int) -> list[int]:
    users = sorted(int(u) for u in test_users)
    return sorted(random.Random(seed).sample(users, min(count, len(users))))


def run_repeat(wl: Workload, seed: int, work_dir: Path, traced: bool = False,
               spans_out: Path | None = None) -> dict:
    """Run the five steps, then the checks; return metrics and op counts."""
    import checks
    from fedembed import Simulation, cli, metrics
    from fedembed.federation import ExperimentResult

    cfg = wl.config(seed)
    run_dir = work_dir / "run"
    clock = Clock()
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
    planned = {"rounds": wl.rounds, "evaluations": len(wl.evaluation_rounds()),
               "reloads": 1, "topk_users": 0, "checks": len(CHECKS)}
    done = dict.fromkeys(planned, 0)
    out: dict = {"workload": wl.name, "seed": seed, "traced": traced, "error": None,
                 "checks": {}}
    t: dict[str, float] = {}
    round_samples: list[tuple[str, int, float]] = []
    topk_samples: list[tuple[int, float]] = []
    client_rounds = 0
    hash_params = None
    sim = None
    eval_stdout = io.StringIO()
    noise = NoiseCounter() if cfg.dp.mode == "ldp" else contextlib.nullcontext()
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(noise)
            sim = clock.call(Simulation, cfg)
            t["setup_s"] = clock.last

            m = clock.call(sim.evaluate)
            sim.metric_history.append((0, m))
            done["evaluations"] += 1
            evaluate_after = set(wl.evaluation_rounds())
            for _ in range(wl.rounds):
                report = clock.call(sim.run_round)
                round_samples.append((report.phase, len(report.clients), clock.last))
                client_rounds += len(report.clients)
                done["rounds"] += 1
                if report.phase == "peft" and hash_params is None \
                        and hasattr(sim.adapter, "hash_a"):
                    hash_params = (sim.adapter.hash_a.copy(), sim.adapter.hash_b.copy())
                if sim.round in evaluate_after:
                    report.metrics = clock.call(sim.evaluate)
                    sim.metric_history.append((sim.round, report.metrics))
                    done["evaluations"] += 1
            final = sim.metric_history[-1][1]

            result = ExperimentResult(sim.reports, sim.metric_history, final,
                                      cfg.config_hash(), cfg.seed)
            clock.call(cli._write_run_artifacts, sim, result, run_dir)

            with contextlib.redirect_stdout(eval_stdout):
                code = clock.call(cli.main, ["eval", str(run_dir)])
            t["reload_s"] = clock.last
            done["reloads"] += 1

            if wl.topk_users is None:
                def top_k():
                    return sim.top_k_lists(TOP_K)
            else:
                users = topk_sample(sim.split.test_users, wl.topk_users, seed)

                def top_k():
                    return {u: metrics.top_k_items(
                        sim.backbone, sim.user_states[u], sim.adapter, sim.base.table,
                        sim.split.train_positives[u], sim.log.n_items, TOP_K)
                        for u in users}
            while not topk_samples or sum(s for _, s in topk_samples) < TOPK_MIN_S:
                lists = clock.call(top_k)
                topk_samples.append((len(lists), clock.last))
                planned["topk_users"] += len(lists)
                done["topk_users"] += len(lists)
    except Exception:  # noqa: BLE001 - the repeat reports the failure instead of dying
        out["error"] = traceback.format_exc()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and spans_out is not None:
        tracer.save(spans_out)

    if out["error"] is None:
        rounds = _round_rows(sim.reports)
        expected = checks.expected_uploads(cfg, sim.log.n_items)
        test = [(int(u), int(i), sim.split.negatives[int(u)])
                for u, i in zip(sim.split.test_users, sim.split.test_items)]
        checked_users = topk_sample(lists, 64, seed)

        @functools.cache
        def saved():
            """The run directory as the checks read it: checkpoint, composed
            embeddings, user embeddings, shared MLP layers."""
            ck = checks.read_checkpoint(run_dir / "embedding.fpeb")
            users_emb, mlp = checks.read_user_state(run_dir / "sim_state.npz")
            return ck, checks.compose(ck), users_emb, mlp

        run_checks = {
            "uploads": lambda: checks.check_uploads(rounds, expected),
            "learning": lambda: checks.check_learning(
                [r["train_loss"] for r in rounds], final["n@10"], cfg.eval.negatives + 1),
            "metrics": lambda: checks.check_metrics(
                final, checks.reference_metrics(*saved()[1:], test)),
            "top_k": lambda: checks.check_top_k(
                {u: lists[u] for u in checked_users}, *saved()[1:],
                {u: sim.split.train_positives[u] for u in checked_users}, TOP_K),
            "frozen": lambda: checks.check_frozen(rounds, saved()[0], sim.codes, hash_params),
            "eval_output": lambda: checks.check_eval_output(code, eval_stdout.getvalue(),
                                                            final),
            "noise": (lambda: checks.check_noise_count(noise.values, rounds, expected))
            if cfg.dp.mode == "ldp" else (lambda: None),
        }
        for name in CHECKS:
            try:
                run_checks[name]()
                out["checks"][name] = "ok"
            except Exception as exc:  # noqa: BLE001 - any error fails this check alone
                out["checks"][name] = f"FAILED: {type(exc).__name__}: {exc}"
            done["checks"] += 1
        peft = [r for r in rounds if r["phase"] == "peft"] or rounds
        out["metrics"] = {
            "setup_s": t["setup_s"],
            "client_rounds_per_s": client_rounds_per_s(round_samples),
            "topk_users_per_s": topk_users_per_s(topk_samples),
            "reload_s": t["reload_s"],
            "wall_s": clock.wall,
            "cpu_s": clock.cpu,
            "peak_rss_mb": peak_rss_mb,
            "upload_kb_per_client": peft[0]["bytes_per_client"] / 1e3,
            "upload_mb_total": sum(r["aggregate_bytes"] for r in rounds) / 1e6,
            "ndcg_at_10": final["n@10"],
        }
        out["samples"] = {"rounds": round_samples, "topk": topk_samples}
        if tracer is not None:
            import spans
            out["layers"] = spans.layer_metrics(tracer.arrays(), client_rounds,
                                                len(rounds), setups=2)
    failed_checks = sum(1 for v in out["checks"].values() if v != "ok")
    out["ops"] = {name: {"attempted": planned[name],
                         "failed": planned[name] - done[name]
                         + (failed_checks if name == "checks" else 0)}
                  for name in planned}
    out["correct"] = out["error"] is None and failed_checks == 0
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--spans-out", type=Path, default=None)
    args = p.parse_args(argv)
    work_dir = args.work_dir.resolve()
    os.chdir(work_dir)
    result = run_repeat(WORKLOADS[args.workload], args.seed, work_dir,
                        traced=bool(args.trace), spans_out=args.spans_out)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
