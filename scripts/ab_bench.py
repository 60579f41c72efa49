"""Compare the benchmark's end-to-end metrics of a base commit and the working tree.

Copies both sides into one temporary directory, at paths of equal length,
so that neither runs from a place the other does not.  For each seed, runs
``perfbench/run.py --trace 0`` once in each copy, alternating which goes
first, so that a drift of the machine falls on both sides alike; the seeds
must be even in number, so that each side goes first equally often.
Prints each end-to-end metric of ``BENCHMARK.json`` per pair, then per metric both
medians, the base's inter-quartile spread, in how many pairs the working
tree reads better (by the metric's own direction) or the same, a
verdict against the metric's bound (``verdict``), and whether the pairs
show a gain (``gain_shown``).  Then, per side, how many
of perfbench's correctness checks failed of those attempted, and how many
runs failed.  The last line is the record of the comparison, one JSON
object (``record``): all of the above, the seeds with the side that ran
first, and each side's environment line from perfbench.  A failed run
leaves its pair out of the medians; the comparison still runs every seed,
and then exits 1.
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


def _json_line(line: str) -> dict:
    try:
        value = json.loads(line)
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


def outcome(returncode: int, stdout: str) -> dict:
    """A run's result line: ``attempted`` and ``failed``, perfbench's counts
    of correctness checks, and ``metrics``, the end-to-end values, or None
    if the run failed; and ``environment``, from the line before it, or None.
    A run that printed no result line counts no check."""
    lines = stdout.strip().splitlines()
    result = _json_line(lines[-1]) if lines else {}
    env = _json_line(lines[-2]).get("environment") if len(lines) > 1 else None
    ok = returncode == 0 and result.get("correct") is True
    return {"attempted": result.get("attempted", 0), "failed": result.get("failed", 0), "environment": env,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()} if ok else None}


def run(checkout: Path, args, seed: int) -> dict:
    """One benchmark run's :func:`outcome`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    got = outcome(proc.returncode, proc.stdout)
    if got["metrics"] is None:
        print(f"  run failed in {checkout} (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
    return got


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


def gain_shown(base: list[float], change: list[float], direction: str) -> bool:
    """Whether paired runs show a gain: the change reads better in at least
    nine tenths of the pairs, a tie counting for neither side, and its
    median is better than the base's by more than the base's inter-quartile
    distance."""
    wins = sum(better(direction, b, c) for b, c in zip(base, change))
    gap = (statistics.median(base) - statistics.median(change)) * (1 if direction == "lower" else -1)
    q = quartiles(base)
    return 10 * wins >= 9 * len(base) and gap > q[2] - q[0]


def record(args, order: list[dict], runs: dict[str, list[dict]], metrics: dict) -> dict:
    """The comparison as one JSON object: the workload, ``--seconds``, each
    seed with the side that ran first, every pair with both sides' metrics
    (a pair with a failed run has none), per metric the summary, per side
    its failed and attempted checks and failed runs, and each side's
    environment (that of its first run to print one)."""
    pairs = [{"seed": o["seed"], **{side: runs[side][i]["metrics"] for side in runs}} for i, o in enumerate(order)]
    full = [p for p in pairs if all(p[side] is not None for side in runs)]
    summary = {}
    for name, m in metrics.items() if full else ():
        b, c = [p["base"][name] for p in full], [p["change"][name] for p in full]
        summary[name] = {
            "base_median": statistics.median(b), "base_quartiles": quartiles(b), "change_median": statistics.median(c),
            "better": sum(better(m["better"], x, y) for x, y in zip(b, c)), "same": sum(x == y for x, y in zip(b, c)),
            "pairs": len(full), "verdict": verdict(b, c, m["bound"], m["better"]), "bound": m["bound"],
            "gain_shown": gain_shown(b, c, m["better"]),
        }
    sides = {side: {"checks_failed": sum(r["failed"] for r in results),
                    "checks_attempted": sum(r["attempted"] for r in results),
                    "runs_failed": sum(r["metrics"] is None for r in results), "runs": len(results),
                    "environment": next((r["environment"] for r in results if r["environment"]), None)}
             for side, results in runs.items()}
    return {"workload": args.workload, "seconds": args.seconds, "seeds": order, "pairs": pairs,
            "metrics": summary, "sides": sides}


def compare(dirs: dict[str, Path], args) -> int:
    """Run every seed on both sides, print the pairs and the summary, and
    last the :func:`record`.  A pair with a failed run is left out of the
    medians, and the comparison goes on to the last seed; the exit code is
    then 1."""
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs, order = {side: [] for side in dirs}, []
    for i, seed in enumerate(seeds(args.seeds)):
        sides = list(dirs.items())
        got = {side: run(path, args, seed) for side, path in (sides if i % 2 == 0 else sides[::-1])}
        for side, result in got.items():
            runs[side].append(result)
        order.append({"seed": seed, "first": "base" if i % 2 == 0 else "change"})
        print(f"seed {seed} ({order[-1]['first']} first)")
        if got["base"]["metrics"] is None or got["change"]["metrics"] is None:
            print("  a run failed: this pair is left out of the medians")
            continue
        for name in metrics:
            b, c = got["base"]["metrics"][name], got["change"]["metrics"][name]
            print(f"  {name:14s} {b:12.6g} -> {c:12.6g}  {100 * (c - b) / b if b else 0.0:+7.2f}%")
    rec = record(args, order, runs, metrics)
    n = sum(p["base"] is not None and p["change"] is not None for p in rec["pairs"])
    print(f"\n{args.workload}, {n} pairs: metric, base median (inter-quartile spread), "
          f"change median, pairs where the change reads better / the same, verdict against the bound, "
          f"whether a gain is shown")
    for name, m in rec["metrics"].items():
        q = m["base_quartiles"]
        print(f"  {name:14s} {m['base_median']:12.6g} ({q[2] - q[0]:.4g})  {m['change_median']:12.6g}"
              f"  better {m['better']}/{m['pairs']}, same {m['same']}/{m['pairs']}"
              f"  {m['verdict']} ({m['bound']:g})  gain {'shown' if m['gain_shown'] else 'not shown'}")
    for side, s in rec["sides"].items():
        print(f"  {side:6s} {s['checks_failed']} of {s['checks_attempted']} "
              f"checks failed; {s['runs_failed']} of {s['runs']} runs failed")
    print(json.dumps(rec))
    return 1 if any(s["runs_failed"] for s in rec["sides"].values()) else 0


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
