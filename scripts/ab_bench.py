"""Compare the benchmark's end-to-end metrics of a base commit and the working tree.

Copies both sides into one temporary directory, at paths of equal length,
so that neither runs from a place the other does not.  For each seed, runs
``perfbench/run.py --trace 0`` once in each copy, alternating which goes
first, so that a drift of the machine falls on both sides alike; the seeds
must be even in number, so that each side goes first equally often.
Prints each end-to-end metric of ``BENCHMARK.json`` per pair, then per metric both
medians, the base's inter-quartile spread, in how many pairs the working
tree reads better (by the metric's own direction) or the same, and a
verdict against the metric's bound (``verdict``).
Run from the root of a checkout:

    python3 scripts/ab_bench.py --base HEAD~1 --workload train_hybrid --seeds 901-910 --seconds 50

``--base`` exports the commit with ``git archive``; ``--base-dir`` copies
an existing checkout of the base instead.  The working tree is copied
without what ``.gitignore`` lists.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    """``901-910`` or ``1,2,5`` (or both, comma-separated)."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def side_dirs(tmp: Path) -> dict[str, Path]:
    """Where each side's copy goes: two sibling paths of equal length."""
    return {"base": tmp / "base", "change": tmp / "work"}


def copy_checkout(src: Path, dst: Path) -> None:
    """Copy a checkout's files to ``dst``: in a git checkout those tracked or
    not ignored, else all of them but bytecode caches."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=src, capture_output=True, text=True)
    if listed.returncode != 0:
        shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".git"))
        return
    for name in sorted(set(filter(None, listed.stdout.split("\0")))):
        if (src / name).is_file():  # a tracked file deleted in the working tree is listed too
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src / name, dst / name)


def export_commit(commit: str, dst: Path) -> None:
    """The files of ``commit`` in this repository, written to ``dst``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dst, filter="data")


def run(checkout: Path, args, seed: int) -> dict[str, float] | None:
    """One benchmark run's end-to-end metrics, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  run failed in {checkout} (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def better(direction: str, base: float, change: float) -> bool:
    return change < base if direction == "lower" else change > base


def share(x: float, ref: float) -> float:
    """``x - ref`` as a share of ``|ref|``; infinite if ``ref`` is 0 and ``x`` is not."""
    if ref:
        return (x - ref) / abs(ref)
    return 0.0 if x == ref else math.copysign(math.inf, x - ref)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def verdict(base: list[float], change: list[float], bound: float, direction: str) -> str:
    """``worse`` if the change's median is worse than the base's by more
    than ``bound``, a share of the base's median, else ``within bound``;
    but ``unresolved`` if the base's inter-quartile spread, as a share of
    its median, exceeds ``bound``, unless every change run beats every base
    run."""
    med, q = statistics.median(base), quartiles(base)
    spread = share(med + (q[2] - q[0]), med)  # the inter-quartile distance as a share of the median
    if spread > bound and not all(better(direction, b, c) for b in base for c in change):
        return "unresolved"
    worse = share(statistics.median(change), med) * (1 if direction == "lower" else -1)
    return "worse" if worse > bound else "within bound"


def compare(dirs: dict[str, Path], args) -> int:
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    pairs = []
    for i, seed in enumerate(seeds(args.seeds)):
        sides = list(dirs.items())
        got = {side: run(path, args, seed) for side, path in (sides if i % 2 == 0 else sides[::-1])}
        if got["base"] is None or got["change"] is None:
            return 1
        pairs.append(got)
        print(f"seed {seed} ({'base' if i % 2 == 0 else 'change'} first)")
        for name in metrics:
            b, c = got["base"][name], got["change"][name]
            print(f"  {name:14s} {b:12.6g} -> {c:12.6g}  {100 * (c - b) / b if b else 0.0:+7.2f}%")
    print(f"\n{args.workload}, {len(pairs)} pairs: metric, base median (inter-quartile spread), "
          f"change median, pairs where the change reads better / the same, verdict against the bound")
    for name, m in metrics.items():
        b = [p["base"][name] for p in pairs]
        c = [p["change"][name] for p in pairs]
        q = quartiles(b)
        wins = sum(better(m["better"], x, y) for x, y in zip(b, c))
        same = sum(x == y for x, y in zip(b, c))
        print(f"  {name:14s} {statistics.median(b):12.6g} ({q[2] - q[0]:.4g})  {statistics.median(c):12.6g}"
              f"  better {wins}/{len(pairs)}, same {same}/{len(pairs)}"
              f"  {verdict(b, c, m['bound'], m['better'])} ({m['bound']:g})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--base", help="the base commit, exported into the temporary directory")
    where.add_argument("--base-dir", type=Path, help="an existing checkout of the base")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="an even number of seeds, e.g. 901-910 or 1,2,5,6")
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    if len(seeds(args.seeds)) % 2:
        parser.error(f"--seeds {args.seeds} gives {len(seeds(args.seeds))} seeds; give an even number, "
                     "so that each side goes first equally often")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = side_dirs(Path(tmp))
        if args.base_dir is not None:
            copy_checkout(args.base_dir.resolve(), dirs["base"])
        else:
            export_commit(args.base, dirs["base"])
        copy_checkout(ROOT, dirs["change"])
        return compare(dirs, args)


if __name__ == "__main__":
    sys.exit(main())
