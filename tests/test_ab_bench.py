"""``scripts/ab_bench.py``'s seed parsing, verdicts, side copies and
refusals, on made-up values and directories; no benchmark runs."""

import importlib.util
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
