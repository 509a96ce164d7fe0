"""Train a fixed matrix of runs and print the sha256 of every artifact.

    python3 scripts/artifact_digests.py --out /tmp/digests-a > a.txt
    python3 scripts/artifact_digests.py --out /tmp/digests-b --seeds 0 1 2 > b.txt
    diff a.txt b.txt
    python3 scripts/artifact_digests.py --out /tmp/digests-c --seeds 0 --against HEAD~1

Runs, each into its own directory under `--out`:

- `fedembed train` on the three benchmark workloads of
  `perfbench/workloads.py` at every seed in `--seeds`;
- `fedembed train` on a matrix of small configs (60 users x 120 items,
  5 rounds, 2 warm-up rounds, no pre-training) that covers each backbone,
  each strategy, both DP modes with and without `dp.clip`, `weighted`
  aggregation, `local_epochs=0`, clients without training positives
  under local DP, and `batch_size=8`, where clients take several steps of
  an epoch and short batches are padded;
- `fedembed pretrain` for lora and rqvae, with a tiny pre-training;
- `fedembed comm` with the default settings and with `strategy.p=4093`,
  `strategy.senet=true`, and a FedNCF `fedembed sweep` over `strategy.rank`
  on the small config; these write no file, so their stdout is digested
  (`<run>/stdout`).

Every train run is re-scored with `fedembed eval`, with the run's own
`eval.negatives` and with `eval.negatives=-1`. The script prints one
`sha256  <run>/<file>` line per file a command wrote and per `eval` stdout
(`<run>/eval.stdout`, `<run>/eval-all.stdout`), sorted, and an `exit=<code>`
line for any command that did not exit 0. Two checkouts give byte-identical
artifacts when their outputs are equal, so "same results" is one `diff`.
It imports `fedembed` from this checkout's `src/` (or from `--src`), and runs
with BLAS and OpenMP at one thread, like the benchmark.

`--against REV` makes that comparison one command: it exports `src/` at the
git revision REV, runs the same matrix with it in a child process (under
`--out`/against), runs it with this checkout's `src/` (under `--out`/this),
prints a unified diff of the two listings and this checkout's `exit=` lines,
and exits 1 when there is either.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SMALL = ("data.users=60", "data.items=120", "federation.rounds=5",
         "federation.warmup_rounds=2", "pretrain.enabled=false")

SMALL_RUNS = {
    "fedmf-lora": ("strategy.kind=lora",),
    "fedmf-full": ("strategy.kind=full",),
    "fedmf-rqvae": ("strategy.kind=rqvae",),
    "fedmf-hash-senet": ("strategy.kind=hash", "strategy.senet=true", "strategy.d_h=256"),
    "fedncf-rqvae": ("backbone=fedncf", "strategy.kind=rqvae"),
    "pfedrec-hash-senet": ("backbone=pfedrec", "strategy.kind=hash", "strategy.senet=true",
                           "strategy.d_h=256"),
    "fedmf-lora-warmup5": ("strategy.kind=lora", "federation.warmup_rounds=5"),
    "fedncf-hash-senet": ("backbone=fedncf", "strategy.kind=hash", "strategy.senet=true",
                          "strategy.d_h=256"),
    "fedncf-full-ldp": ("backbone=fedncf", "strategy.kind=full", "dp.mode=ldp",
                        "dp.delta=0.01"),
    "pfedrec-lora": ("backbone=pfedrec", "strategy.kind=lora"),
    "pfedrec-rqvae-cdp-weighted": ("backbone=pfedrec", "strategy.kind=rqvae",
                                   "dp.mode=cdp", "dp.delta=0.01",
                                   "federation.aggregation=weighted"),
    "pfedrec-hash": ("backbone=pfedrec", "strategy.kind=hash", "strategy.d_h=256"),
    # clipped updates under both DP modes
    "fedncf-lora-ldp-clip": ("backbone=fedncf", "strategy.kind=lora", "dp.mode=ldp",
                             "dp.delta=0.01", "dp.clip=0.05"),
    "fedmf-hash-cdp-clip-weighted": ("strategy.kind=hash", "strategy.d_h=256",
                                     "dp.mode=cdp", "dp.delta=0.01", "dp.clip=0.02",
                                     "federation.aggregation=weighted"),
    "fedmf-lora-epochs0": ("strategy.kind=lora", "federation.local_epochs=0"),
    # some users have no interaction, so some sampled clients take no step
    "fedmf-lora-ldp-untrained": ("strategy.kind=lora", "data.min_interactions=0",
                                 "federation.sample_ratio=1", "dp.mode=ldp",
                                 "dp.delta=0.01"),
    # at the default batch every client takes one step per epoch; these take
    # several, with short padded batches and dropout over padded steps
    "pfedrec-lora-batch8": ("backbone=pfedrec", "strategy.kind=lora",
                            "federation.batch_size=8"),
    "fedncf-hash-senet-batch8": ("backbone=fedncf", "strategy.kind=hash", "strategy.senet=true",
                                 "strategy.d_h=256", "federation.batch_size=8"),
}

TINY_PRETRAIN = ("data.users=60", "data.items=120", "data.feature_dim=16",
                 "pretrain.hidden=32", "pretrain.steps=50", "pretrain.rq_steps=20",
                 "strategy.levels=2", "strategy.d_r=32")

PRETRAIN_RUNS = {
    "pretrain-lora": ("strategy.kind=lora",),
    "pretrain-rqvae": ("strategy.kind=rqvae",),
}

# commands that print their result and write no file: name -> (command, settings, flags)
STDOUT_RUNS = {
    "comm-default": ("comm", (), ()),
    "comm-p4093-senet": ("comm", ("strategy.p=4093", "strategy.senet=true"), ()),
    "sweep-fedncf-rank": ("sweep", SMALL + ("backbone=fedncf",),
                          ("--param", "strategy.rank", "--values", "2,3,4,5,6")),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    """`fedembed <argv>` in this process; (exit code, stdout)."""
    from fedembed.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def with_settings(cmd: str, settings, out_dir: Path) -> list[str]:
    argv = [cmd, "--out-dir", str(out_dir)]
    for s in settings:
        argv += ["--set", s]
    return argv


def digest_run(name: str, argv: list[str], out_dir: Path, evaluate: bool,
               keep_stdout: bool = False) -> list[str]:
    lines = []
    code, stdout = run(argv)
    if code:
        lines.append(f"exit={code}  {name}/{argv[0]}")
    if keep_stdout:
        lines.append(f"{sha256(stdout.encode())}  {name}/stdout")
    files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.exists() else []
    for path in files:
        lines.append(f"{sha256(path.read_bytes())}  {name}/{path.relative_to(out_dir)}")
    if evaluate and code == 0:
        for label, extra in (("eval", []), ("eval-all", ["--set", "eval.negatives=-1"])):
            code, stdout = run(["eval", str(out_dir), *extra])
            if code:
                lines.append(f"exit={code}  {name}/{label}")
            lines.append(f"{sha256(stdout.encode())}  {name}/{label}.stdout")
    return lines


def listing(out: Path, seeds: list[int]) -> list[str]:
    """Run the matrix under `out`; the sorted digest lines."""
    jobs = []   # (name, argv, evaluate, keep_stdout)
    for seed in seeds:
        for wl in WORKLOADS.values():
            name = f"{wl.name}-seed{seed}"
            jobs.append((name, with_settings("train", wl.overrides(seed), out / name),
                         True, False))
    for name, settings in SMALL_RUNS.items():
        jobs.append((name, with_settings("train", SMALL + settings, out / name), True, False))
    for name, settings in PRETRAIN_RUNS.items():
        jobs.append((name, with_settings("pretrain", TINY_PRETRAIN + settings, out / name),
                     False, False))
    for name, (cmd, settings, flags) in STDOUT_RUNS.items():
        jobs.append((name, with_settings(cmd, settings, out / name) + list(flags),
                     False, True))

    lines = []
    for name, argv, evaluate, keep_stdout in jobs:
        print(f"running {name}", file=sys.stderr)
        lines += digest_run(name, argv, out / name, evaluate, keep_stdout)
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def listing_against(rev: str, out: Path, seeds: list[int]) -> list[str]:
    """The listing of `src/` at git revision `rev`, run in a child process
    with this script's matrix."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        child = subprocess.run([sys.executable, __file__, "--src", f"{tmp}/src",
                                "--out", str(out), "--seeds", *map(str, seeds)],
                               check=True, stdout=subprocess.PIPE, text=True)
    return child.stdout.splitlines()


def main_digests() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="a new or empty directory for the run directories")
    parser.add_argument("--seeds", nargs="*", default=["0,1,2"],
                        help="workload seeds, space- or comma-separated; none skips "
                             "the workloads")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory to import fedembed from (default: this "
                             "checkout's src/)")
    parser.add_argument("--against", metavar="REV",
                        help="diff this checkout's listing against that of src/ at REV")
    args = parser.parse_args()
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        parser.error(f"--out {out} must be a new or empty directory")
    out.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for arg in args.seeds for s in arg.split(",") if s.strip()]
    sys.path.insert(0, args.src)

    if args.against is None:
        print("\n".join(listing(out, seeds)))
        return 0
    theirs = listing_against(args.against, out / "against", seeds)
    ours = listing(out / "this", seeds)
    report = list(difflib.unified_diff(theirs, ours, args.against, "this checkout",
                                       lineterm=""))
    report += [line for line in ours if line.startswith("exit=")]
    if report:
        print("\n".join(report))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main_digests())
