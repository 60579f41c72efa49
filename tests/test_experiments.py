"""Experiment harness and CLI surfaces, exercised on tiny budgets."""

import json

import numpy as np
import pytest

from regionkit.cli import CONFIG_FLAGS
from regionkit.cli import main as cli_main
from regionkit.config import ExperimentConfig
from regionkit.experiments import (
    evaluate_retrieval,
    make_eval_scenes,
    recall_ceiling_check,
    rejection_stats,
    run_ablations,
    run_benchmark,
)
from regionkit.metrics import box_recall
from regionkit.simworld import ProposalSimConfig, SceneConfig
from regionkit.training import TrainingDivergence
from regionkit.training import init_model_params, train


def test_eval_scenes_held_out_and_deterministic(tiny_config):
    a = make_eval_scenes(tiny_config)
    b = make_eval_scenes(tiny_config)
    assert [e.scene.image_id for e in a] == [e.scene.image_id for e in b]
    assert len(a) == tiny_config.n_eval_scenes


def test_recall_ceiling_on_untrained_model(tiny_config):
    """The subset property holds for any parameters, trained or not."""
    params = init_model_params(tiny_config)
    eval_scenes = make_eval_scenes(tiny_config, n_scenes=10)
    assert recall_ceiling_check(params, tiny_config, eval_scenes)


def test_detection_recall_never_exceeds_proposal_recall_random_configs():
    rng = np.random.default_rng(0)
    for trial in range(6):
        cfg = ExperimentConfig(
            seed=int(rng.integers(10_000)),
            world=SceneConfig(n_categories=4, min_objects=1, max_objects=3),
            proposals=ProposalSimConfig(
                jitter_sigma=float(rng.uniform(0, 0.05)),
                drop_rate=float(rng.uniform(0, 0.6)),
                clutter_rate=float(rng.uniform(0, 4)),
                max_proposals=12,
            ),
            encoder=tiny_encoder(),
            fp_channels=2,
            d_llm=8,
            threshold=float(rng.uniform(0.3, 0.7)),
            n_eval_scenes=5,
        )
        params = init_model_params(cfg)
        assert recall_ceiling_check(params, cfg, make_eval_scenes(cfg))


def tiny_encoder():
    from regionkit.simworld import EncoderConfig

    return EncoderConfig(primary_resolution=8, aux_base_resolution=16)


def test_run_benchmark_writes_artifacts(tiny_config, tmp_path):
    out = tmp_path / "bench"
    result = run_benchmark(tiny_config, out_dir=out)
    assert (out / "report.json").exists()
    assert (out / "report.tsv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [tiny_config.seed]
    assert set(manifest["artifacts"]) == {"report.json", "report.tsv", "bundle.json"}
    blob = json.loads((out / "report.json").read_text())
    assert 0.0 <= blob["retrieval"]["ap_mean"] <= 1.0
    assert result.tsv().startswith("model\t")


def test_run_ablations_rows(tiny_config, tmp_path):
    rows = run_ablations(tiny_config.replace(stage1_steps=10, stage2_steps=0, n_train_scenes=4,
                                             n_eval_scenes=3), n_seeds=1, out_dir=tmp_path / "abl")
    assert [r.variant for r in rows] == ["hybrid", "primary_only", "primary_only_no_fp", "auxiliary_only"]
    assert (tmp_path / "abl" / "ablations.tsv").exists()


def test_primary_only_with_aux_also_off_is_config_error(tiny_config):
    with pytest.raises(ValueError):
        tiny_config.replace(use_primary=False, use_auxiliary=False)


def test_rejection_stats_shape(tiny_config):
    params, _ = train(tiny_config)
    stats = rejection_stats(params, tiny_config, n_scenes=5)
    assert set(stats) == {"n_queries", "false_positives", "fp_rate"}
    assert 0.0 <= stats["fp_rate"] <= 1.0


# ------------------------------------------- seeded regression fixtures

def test_default_run_loss_halves(default_config, trained_default):
    """Final stage-2 training loss sits at least 50% below the initial
    stage-1 loss on the default seed-7 run (windowed means)."""
    _, log = trained_default
    initial = np.mean(log.losses["stage1"][:50])
    final = np.mean(log.losses["stage2"][-50:])
    assert final <= 0.5 * initial


def test_trained_head_near_ceiling_on_noiseless_world(default_config, trained_default):
    params, _ = trained_default
    noiseless = ProposalSimConfig(jitter_sigma=0.0, drop_rate=0.0, clutter_rate=0.0)
    eval_scenes = make_eval_scenes(default_config, proposal_config=noiseless)
    report = evaluate_retrieval(params, eval_scenes, default_config)
    assert report.ap_mean >= 0.90


def test_half_drop_rate_bounds_recall(default_config, trained_default):
    """With half the true proposals dropped, detection recall stays below
    the proposal recall exactly and near the 0.5 ceiling."""
    params, _ = trained_default
    dropped = ProposalSimConfig(jitter_sigma=0.005, drop_rate=0.5, clutter_rate=2.0)
    eval_scenes = make_eval_scenes(default_config, proposal_config=dropped)
    assert recall_ceiling_check(params, default_config, eval_scenes)
    report = evaluate_retrieval(params, eval_scenes, default_config)
    hits = total = 0.0
    for ev in eval_scenes:
        gt = [b for _, b in ev.scene.objects]
        hits += box_recall(ev.proposals, gt, 0.5) * len(gt)
        total += len(gt)
    proposal_recall = hits / total
    assert report.recall <= proposal_recall + 1e-12
    assert report.recall <= 0.5 + 0.15  # clutter-rescue margin


# -------------------------------------------------------------------- CLI

def test_cli_gen_writes_scene_json(tmp_path, capsys):
    rc = cli_main(["gen", "--n-scenes", "3", "--seed", "5", "--out", str(tmp_path / "g")])
    assert rc == 0
    blob = json.loads((tmp_path / "g" / "scenes.json").read_text())
    assert len(blob["images"]) == 3
    assert set(blob["proposals"].keys()) == {str(im["id"]) for im in blob["images"]}


def test_cli_train_and_bench_with_config_file(tmp_path, tiny_config, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(tiny_config.replace(stage1_steps=5, stage2_steps=2, n_train_scenes=3,
                                            n_eval_scenes=2).dumps())
    rc = cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")])
    assert rc == 0
    assert (tmp_path / "t" / "bundle.json").exists()
    assert (tmp_path / "t" / "train_log.json").exists()

    rc = cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "retrieval" in out and "baseline" in out


def test_cli_gradcheck_default_small_config(tmp_path, capsys):
    rc = cli_main(["gradcheck", "--out", str(tmp_path / "gc")])
    assert rc == 0
    blob = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
    assert blob["max_rel_error"] < 1e-4


def test_cli_gradcheck_flags_apply_to_its_small_config(tmp_path, capsys):
    argv = ["gradcheck", "--seed", "4", "--rejection-fraction", "1.0", "--out", str(tmp_path / "gc")]
    assert cli_main(argv) == 0
    config = json.loads((tmp_path / "gc" / "manifest.json").read_text())["config"]
    assert (config["seed"], config["rejection_fraction"], config["d_llm"]) == (4, 1.0, 8)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--config", "/nonexistent/config.json"], "No such file or directory"),
        (["train", "--stage1-lr", "inf"], "stage1_lr must be a finite positive number, got inf"),
    ],
)
def test_cli_reports_a_rejected_config_in_one_line(argv, message, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("regionkit: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_lets_a_run_error_propagate(tmp_path):
    argv = ["train", "--stage1-lr", "1e300", "--n-train-scenes", "2", "--out", str(tmp_path / "t")]
    with pytest.raises(TrainingDivergence):
        cli_main(argv)


def test_cli_validate_transcript(tmp_path, capsys):
    lines = [
        json.dumps("The <ground>people</ground><object><region2><region10></object> are dancing."),
        json.dumps("plain text"),
        json.dumps("<ground>broken"),
    ]
    path = tmp_path / "transcript.jsonl"
    path.write_text("\n".join(lines) + "\n")
    rc = cli_main(["validate-transcript", str(path), "--n-regions", "11"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "line 1: ok" in out and "line 2: ok" in out
    assert "line 3: offset" in out and "1 invalid line(s)" in out

    good = tmp_path / "good.jsonl"
    good.write_text(lines[0] + "\n")
    assert cli_main(["validate-transcript", str(good), "--n-regions", "11"]) == 0


def test_cli_flag_overrides(tmp_path):
    """Every override flag, set once, lands in the run's manifest."""
    values = {
        "--seed": "4", "--stage1-steps": "2", "--stage2-steps": "1", "--stage1-lr": "0.002",
        "--stage2-lr": "2e-05", "--threshold": "0.6", "--n-train-scenes": "2", "--n-eval-scenes": "3",
        "--rejection-fraction": "0.25",
    }
    assert set(values) == {flag for flag, _, _ in CONFIG_FLAGS}
    argv = ["train", "--out", str(tmp_path / "ov")]
    for flag, value in values.items():
        argv += [flag, value]
    assert cli_main(argv) == 0
    manifest = json.loads((tmp_path / "ov" / "manifest.json").read_text())
    for flag, name, kind in CONFIG_FLAGS:
        got = manifest["config"][name]
        assert type(got) is kind and got == kind(values[flag]), (flag, got)
