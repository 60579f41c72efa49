"""``scripts/ab_bench.py``'s seed parsing, verdicts, gain rule, side copies, refusals,
failed-run counts and record, on made-up values, directories and result
lines; no benchmark runs."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab_bench", Path(__file__).resolve().parents[1] / "scripts/ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_seeds_parses_ranges_and_lists():
    assert ab_bench.seeds("901-905") == [901, 902, 903, 904, 905]
    assert ab_bench.seeds("1,2,5") == [1, 2, 5]
    assert ab_bench.seeds("1-3,10,20-21") == [1, 2, 3, 10, 20, 21]


SPREAD = [60, 80, 100, 120, 140]  # inter-quartile distance 60, a share of 0.6 of the median


@pytest.mark.parametrize("base, change, direction, want", [
    # a steady base: the median moves by 10% or 20%, and by 30%, against a bound of 25%
    ([100] * 5, [110] * 5, "lower", "within bound"),
    ([100] * 5, [130] * 5, "lower", "worse"),
    ([1.0] * 5, [1.2] * 5, "higher", "within bound"),
    ([1.0] * 5, [0.7] * 5, "higher", "worse"),
    # zeros, which have no share: the same value is within bound, any worse one is worse
    ([0.0] * 3, [0.0] * 3, "higher", "within bound"),
    ([0.0] * 3, [0.5] * 3, "lower", "worse"),
    # a base that spreads by more than the bound cannot tell either way ...
    (SPREAD, [100] * 5, "lower", "unresolved"),
    (SPREAD, [200] * 5, "lower", "unresolved"),
    # ... unless every change run beats every base run
    (SPREAD, [50] * 5, "lower", "within bound"),
    (SPREAD, [150] * 5, "higher", "within bound"),
])
def test_verdict_against_the_bound(base, change, direction, want):
    assert ab_bench.verdict(base, change, 0.25, direction) == want


QUARTILED = [95, 95, 95, 100, 100, 100, 100, 105, 105, 105]  # median 100, quartiles 95 and 105


@pytest.mark.parametrize("base, change, direction, want", [
    # exactly nine wins in ten, the tenth a tie, is enough; eight wins and two ties are not
    ([100] * 10, [90] * 9 + [100], "lower", True),
    ([100] * 10, [90] * 8 + [100] * 2, "lower", False),
    ([1.0] * 10, [1.5] * 9 + [0.5], "higher", True),
    ([1.0] * 10, [1.5] * 10, "lower", False),
    # every pair won, but the medians must differ by more than the inter-quartile distance of 10
    (QUARTILED, [90] * 10, "lower", False),
    (QUARTILED, [89.5] * 10, "lower", True),
    (QUARTILED, [110] * 10, "higher", False),
    (QUARTILED, [110.5] * 10, "higher", True),
])
def test_a_gain_is_shown_by_nine_tenths_of_the_pairs_and_more_than_the_spread(base, change, direction, want):
    assert ab_bench.quartiles(QUARTILED) == [95, 100, 105]
    assert ab_bench.gain_shown(base, change, direction) is want


def test_both_sides_run_from_sibling_paths_of_equal_length(tmp_path):
    dirs = ab_bench.side_dirs(tmp_path)
    assert sorted(dirs) == ["base", "change"]
    assert dirs["base"] != dirs["change"]
    assert dirs["base"].parent == dirs["change"].parent == tmp_path
    assert len(str(dirs["base"])) == len(str(dirs["change"]))


def _write(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_a_git_checkout_is_copied_without_what_it_ignores(tmp_path):
    src = tmp_path / "src"
    _write(src, {".gitignore": "out/\n", "tracked.py": "a", "pkg/new.py": "b", "out/run.json": "c"})
    subprocess.run(["git", "init", "-q"], cwd=src, check=True)
    subprocess.run(["git", "add", ".gitignore", "tracked.py"], cwd=src, check=True)
    ab_bench.copy_checkout(src, tmp_path / "dst")
    copied = sorted(str(p.relative_to(tmp_path / "dst")) for p in (tmp_path / "dst").rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/new.py", "tracked.py"]
    assert (tmp_path / "dst" / "pkg/new.py").read_text() == "b"


def test_a_plain_directory_is_copied_without_bytecode(tmp_path):
    src = tmp_path / "src"
    _write(src, {"run.py": "a", "pkg/__pycache__/run.cpython.pyc": "b"})
    ab_bench.copy_checkout(src, tmp_path / "dst")
    assert [p.name for p in (tmp_path / "dst").rglob("*") if p.is_file()] == ["run.py"]


@pytest.mark.parametrize("spec", ["901", "901-903", "1,2,5"])
def test_an_odd_number_of_seeds_is_refused_before_anything_runs(spec, capsys, monkeypatch):
    monkeypatch.setattr(ab_bench, "compare", lambda *a: pytest.fail("compare ran"))
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["--base-dir", "/nonexistent", "--workload", "eval_detect", "--seeds", spec])
    assert exit_info.value.code == 2
    assert "give an even number" in capsys.readouterr().err


METRICS = [m["name"] for m in json.loads((Path(ab_bench.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]]


def _result_line(failed=0, attempted=4, value=1.0):
    """perfbench's last line: a failed check leaves the run without metrics."""
    metrics = {} if failed else {name: {"value": value, "unit": "1"} for name in METRICS}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


@pytest.mark.parametrize("code, stdout, want", [
    (0, '{"environment": {}}\n' + _result_line(), (4, 0, True)),
    (1, _result_line(failed=1), (4, 1, False)),
    (0, _result_line(failed=1), (4, 1, False)),
    (1, "", (0, 0, False)),
    (1, "Traceback (most recent call last):\n", (0, 0, False)),
])
def test_a_runs_outcome_keeps_its_check_counts(code, stdout, want):
    got = ab_bench.outcome(code, stdout)
    assert (got["attempted"], got["failed"], got["metrics"] is not None) == want
    assert got["environment"] == ({} if "environment" in stdout else None)
    if got["metrics"] is not None:
        assert got["metrics"] == {name: 1.0 for name in METRICS}


def test_a_failed_run_is_counted_and_every_seed_still_runs(tmp_path, capsys, monkeypatch):
    """The change's run at seed 2 fails one check of four: its pair is left
    out, seeds 3 and 4 still run, the summary gives each side's failed and
    attempted checks and runs, and the exit code is 1."""
    dirs = ab_bench.side_dirs(tmp_path)
    ran = []

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        ran.append((Path(cwd).name, seed))
        failed = int(Path(cwd) == dirs["change"] and seed == 2)
        return subprocess.CompletedProcess(cmd, failed, stdout=_result_line(failed=failed) + "\n", stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    args = argparse.Namespace(workload="eval_detect", seeds="1-4", seconds=1.0)
    assert ab_bench.compare(dirs, args) == 1
    assert sorted(ran) == [(side, seed) for side in ("base", "work") for seed in (1, 2, 3, 4)]
    out = capsys.readouterr().out
    assert "eval_detect, 3 pairs" in out
    assert "base   0 of 16 checks failed; 0 of 4 runs failed" in out
    assert "change 1 of 16 checks failed; 1 of 4 runs failed" in out


BOUNDS = {m["name"]: m for m in json.loads((Path(ab_bench.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]}


def test_the_last_line_is_the_record_of_the_comparison(tmp_path, capsys, monkeypatch):
    """Every base run reads 1.0 and every change run 0.5, and the change's
    run at seed 2 fails: the last line holds the workload, the seconds, the
    seeds with the side that ran first, every pair, the summary of the three
    full pairs per metric, each side's counts and its environment line."""
    dirs = ab_bench.side_dirs(tmp_path)

    def fake_run(cmd, cwd, **kwargs):
        seed, side = int(cmd[cmd.index("--seed") + 1]), Path(cwd).name
        failed = int(side == "work" and seed == 2)
        lines = [json.dumps({"environment": {"side": side}}), _result_line(failed, value=1.0 if side == "base" else 0.5)]
        return subprocess.CompletedProcess(cmd, failed, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    args = argparse.Namespace(workload="train_hybrid", seeds="1-4", seconds=2.0)
    assert ab_bench.compare(dirs, args) == 1
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (rec["workload"], rec["seconds"]) == ("train_hybrid", 2.0)
    assert rec["seeds"] == [{"seed": s, "first": first} for s, first in zip((1, 2, 3, 4), ("base", "change") * 2)]
    base, change = {name: 1.0 for name in METRICS}, {name: 0.5 for name in METRICS}
    assert rec["pairs"] == [{"seed": s, "base": base, "change": None if s == 2 else change} for s in (1, 2, 3, 4)]
    assert set(rec["metrics"]) == set(METRICS)
    for name, m in rec["metrics"].items():
        lower = BOUNDS[name]["better"] == "lower"
        assert m == {"base_median": 1.0, "base_quartiles": [1.0] * 3, "change_median": 0.5,
                     "better": 3 if lower else 0, "same": 0, "pairs": 3,
                     "verdict": "within bound" if lower else "worse", "bound": BOUNDS[name]["bound"],
                     "gain_shown": lower}, name
    assert rec["sides"] == {
        "base": {"checks_failed": 0, "checks_attempted": 16, "runs_failed": 0, "runs": 4, "environment": {"side": "base"}},
        "change": {"checks_failed": 1, "checks_attempted": 16, "runs_failed": 1, "runs": 4,
                   "environment": {"side": "work"}},
    }
