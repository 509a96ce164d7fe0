"""fedembed benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py                          # every workload, alternating
    python3 perfbench/run.py --workload desk-lora --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-rqvae --trace 1   # per-layer metrics

Each repeat runs `worker.py` in a fresh process, in an empty working
directory, with BLAS and OpenMP limited to one thread. Repeats continue
until `--seconds` would be exceeded, with at least three untraced ones (two
untraced and two traced with `--trace 1`, alternating so the tracing
overhead is measured against the same host state). A fixed reference loop,
`host.probe_ms`, is timed before and after the run so drift of the host
shows. The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics, or with
`--trace 1` the per-layer ones). Raw per-repeat numbers go to
`perfbench/results/`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import client_rounds_per_s, topk_users_per_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = HERE / "work"
RESULTS = HERE / "results"
BENCHMARK = ROOT / "BENCHMARK.json"
MIN_REPEATS = 3         # untraced; with --trace 1, two untraced and two traced
DEADLINE_S = 170.0      # per workload: a one-workload run must end within 180 s

END_TO_END = {
    "setup_s": "s", "client_rounds_per_s": "1/s", "topk_users_per_s": "1/s",
    "reload_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "upload_kb_per_client": "KB", "upload_mb_total": "MB", "ndcg_at_10": "%",
}


def probe_ms() -> float:
    """A fixed pure-Python loop; it moves only when the host does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def run_worker(workload: str, seed: int, traced: bool, index: int,
               timeout: float) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{index}-", dir=WORK))
    out = work.parent / f"{work.name}.json"
    spans_out = RESULTS / f"spans-{workload}-seed{seed}-{index}.npz" if traced else None
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--work-dir", str(work), "--out", str(out)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        out.unlink(missing_ok=True)
    result["process_s"] = time.perf_counter() - t0
    return result


def summarize(name: str, reps: list[dict], traced_run: bool, probes: list[float]) -> dict:
    """Medians over repeats, op counts, and the metrics the JSON line carries."""
    plain = [r for r in reps if not r["traced"] and "metrics" in r]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    e2e = {m: statistics.median(r["metrics"][m] for r in plain) for m in END_TO_END} \
        if plain else {}
    if plain:   # pooled over repeats: many short samples, one median each
        e2e["client_rounds_per_s"] = client_rounds_per_s(
            [tuple(x) for r in plain for x in r["samples"]["rounds"]])
        e2e["topk_users_per_s"] = topk_users_per_s(
            [tuple(x) for r in plain for x in r["samples"]["topk"]])
    ops: dict[str, dict[str, int]] = {}
    for r in reps:
        for op, c in r["ops"].items():
            agg = ops.setdefault(op, {"attempted": 0, "failed": 0})
            agg["attempted"] += c["attempted"]
            agg["failed"] += c["failed"]
    layers: dict[str, float | None] = {}
    if traced:
        for m in traced[0]["layers"]:
            vals = [r["layers"][m] for r in traced if r["layers"][m] is not None]
            layers[m] = statistics.median(vals) if vals else None
        layers["host.probe_ms"] = statistics.median(probes)
        if plain:
            walls = statistics.median(r["metrics"]["wall_s"] for r in traced)
            layers["trace.overhead_pct"] = 100.0 * (walls / e2e["wall_s"] - 1.0)
    return {"workload": name, "e2e": e2e, "layers": layers, "ops": ops,
            "correct": bool(reps) and all(r["correct"] for r in reps),
            "errors": [r["error"] for r in reps if r["error"]],
            "failed_checks": sorted({f"{c}: {v}" for r in reps
                                     for c, v in r["checks"].items() if v != "ok"}),
            "probes_ms": probes, "traced_run": traced_run}


def per_layer_units() -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8")) if BENCHMARK.exists() else {}
    return {m["name"]: m["unit"] for m in spec.get("per_layer", [])}


def report(s: dict) -> None:
    print(f"== {s['workload']}  correct={s['correct']}")
    for op, c in s["ops"].items():
        print(f"   ops {op:12s} attempted {c['attempted']:6d}  failed {c['failed']}")
    for m, unit in END_TO_END.items():
        if m in s["e2e"]:
            print(f"   {m:24s} {s['e2e'][m]:14.4f} {unit}")
    if s["layers"]:
        import spans
        units = {m: u for m, (u, _) in spans.LAYER_METRICS.items()}
        units.update({"host.probe_ms": "ms", "trace.overhead_pct": "%"})
        for m, v in s["layers"].items():
            shown = "missing (never entered)" if v is None else f"{v:14.4f} {units[m]}"
            print(f"   {m:32s} {shown}")
    print(f"   host.probe_ms before/after   "
          + " ".join(f"{p:.2f}" for p in s["probes_ms"]))
    for line in s["failed_checks"]:
        print(f"   CHECK {line}")
    for err in s["errors"]:
        print("   ERROR " + err.strip().replace("\n", "\n   "))


def result_line(s: dict, traced_run: bool) -> dict:
    if traced_run:
        units = per_layer_units()
        metrics = {m: {"value": s["layers"][m], "unit": u} for m, u in units.items()
                   if s["layers"].get(m) is not None}
    else:
        metrics = {m: {"value": s["e2e"][m], "unit": u} for m, u in END_TO_END.items()
                   if m in s["e2e"]}
    return {"correct": s["correct"],
            "attempted": sum(c["attempted"] for c in s["ops"].values()),
            "failed": sum(c["failed"] for c in s["ops"].values()),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="one workload; all of them, alternating, when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that `subprocess.run` kills and reaps
    # the running worker and its working directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fedembed" / "__init__.py").exists():
        print(f"fedembed sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced_run = bool(args.trace)
    budget = args.seconds * len(names)
    deadline = DEADLINE_S * len(names)
    start = time.perf_counter()
    reps: dict[str, list[dict]] = {n: [] for n in names}
    probes: list[float] = [probe_ms()]
    cycle_s: list[float] = []
    index = 0
    while True:
        traced = traced_run and index % 2 == 1
        t0 = time.perf_counter()
        for name in names:
            remaining = deadline - (time.perf_counter() - start)
            try:
                reps[name].append(run_worker(name, args.seed, traced, index, remaining))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{name}: repeat {index} produced no result: {exc}", file=sys.stderr)
                return 2
        cycle_s.append(time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        enough = index >= (4 if traced_run else MIN_REPEATS)
        next_s = statistics.mean(cycle_s[-2:])
        if elapsed + next_s > deadline or (enough and elapsed + next_s > budget):
            break
    probes.append(probe_ms())

    summaries = [summarize(n, reps[n], traced_run, probes) for n in names]
    for s in summaries:
        report(s)
        tag = f"{s['workload']}-seed{args.seed}-trace{int(traced_run)}"
        (RESULTS / f"{tag}.json").write_text(json.dumps(
            {"summary": s, "repeats": reps[s["workload"]]}, indent=1) + "\n",
            encoding="utf-8")
    if len(summaries) == 1:
        line = result_line(summaries[0], traced_run)
    else:
        lines = {s["workload"]: result_line(s, traced_run) for s in summaries}
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}/{m}": v for w, res in lines.items()
                            for m, v in res["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
