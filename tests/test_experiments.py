"""Experiment harness and CLI surfaces, exercised on tiny budgets."""

import json
from unittest import mock

import numpy as np
import pytest

from regionkit import experiments, training
from regionkit.baseline import regression_baseline_eval, train_baseline
from regionkit.cli import CONFIG_FLAGS
from regionkit.cli import main as cli_main
from regionkit.config import ExperimentConfig
from regionkit.experiments import (
    counting_stats,
    evaluate_retrieval,
    make_eval_scenes,
    recall_ceiling_check,
    rejection_stats,
    run_ablations,
    run_benchmark,
)
from regionkit.metrics import box_recall, counting_accuracy
from regionkit.retrieval import decode_detections, score_matrix
from regionkit.simworld import ProposalSimConfig, SceneConfig, vocabulary
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


def test_run_ablations_rows(tiny_config, tmp_path, monkeypatch):
    draws = mock.Mock(wraps=training.seeded_training_set)
    monkeypatch.setattr(training, "seeded_training_set", draws)
    monkeypatch.setattr(experiments, "seeded_training_set", draws)
    rows = run_ablations(tiny_config.replace(stage1_steps=10, stage2_steps=0, n_train_scenes=4,
                                             n_eval_scenes=3), n_seeds=2, out_dir=tmp_path / "abl")
    assert [r.variant for r in rows] == ["hybrid", "primary_only", "primary_only_no_fp", "auxiliary_only"]
    assert all(len(r.ap_per_seed) == 2 for r in rows)
    # each seed draws its training set once, for every variant
    assert [c.args[0].seed for c in draws.call_args_list] == [tiny_config.seed, tiny_config.seed + 1]
    assert (tmp_path / "abl" / "ablations.tsv").exists()


def test_run_ablations_rejects_no_seeds(tiny_config, tmp_path):
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        run_ablations(tiny_config, n_seeds=0, out_dir=tmp_path / "abl")
    assert not (tmp_path / "abl").exists()


@pytest.mark.parametrize(
    "changes, evaluate, message",
    [
        ({}, lambda params, cfg: evaluate_retrieval(params, [], cfg), "at least one eval scene, got none"),
        # every scene holds its one category, so no category is absent
        ({"world": SceneConfig(n_categories=1, min_objects=1, max_objects=2), "fp_channels": 1}, rejection_stats,
         "no absent-category query in 100 eval scenes"),
        # no scene has an object, so the noiseless world has no proposal either
        ({"world": SceneConfig(n_categories=4, min_objects=0, max_objects=0)}, counting_stats,
         "no category present in 0 eval scenes"),
        # clutter gives 2 of the 5 scenes a proposal, but no scene holds an object to measure AP against
        ({"world": SceneConfig(n_categories=4, min_objects=0, max_objects=0)},
         lambda params, cfg: evaluate_retrieval(params, make_eval_scenes(cfg), cfg),
         "at least one eval scene, got none with an object in 2 eval scenes"),
        ({"world": SceneConfig(n_categories=4, min_objects=0, max_objects=0)},
         lambda params, cfg: regression_baseline_eval(train_baseline(cfg)[0], [ev.scene for ev in make_eval_scenes(cfg)],
                                                      cfg),
         "at least one scene, got none with an object in 2 scenes"),
    ],
)
def test_an_eval_with_nothing_to_measure_raises(tiny_config, changes, evaluate, message):
    cfg = tiny_config.replace(**changes)
    with pytest.raises(ValueError, match=message):
        evaluate(init_model_params(cfg), cfg)


def oracle_counting_stats(params, config):
    """``counting_stats`` as it was when it decoded each present category's
    score column on its own: the loop is kept verbatim, with that
    ``detect_then_count`` inlined as the length of a one-column decode."""
    noiseless = ProposalSimConfig(jitter_sigma=0.0, drop_rate=0.0, clutter_rate=0.0,
                                  max_proposals=config.proposals.max_proposals)
    eval_scenes = make_eval_scenes(config, n_scenes=50, proposal_config=noiseless, salt=experiments._EVAL_SEED_SALT + 2)
    names = vocabulary(config.n_categories)
    predicted, true = [], []
    for ev in eval_scenes:
        tokens = training.region_token_matrix(params, training.prepare_sample(params, ev, config))
        scores = score_matrix(tokens, params.groups[training.GROUP_NEW_VOCAB]["queries"])
        for q, name in enumerate(names):
            true_count = len(ev.scene.boxes_of(name))
            if true_count == 0:
                continue
            predicted.append(len(decode_detections(scores[:, [q]], ev.proposals, [name], config.threshold)))
            true.append(true_count)
    return {"n_queries": float(len(true)), "accuracy": counting_accuracy(predicted, true)}


def test_counting_stats_equals_column_decode_oracle(default_config, trained_default, tiny_config):
    """Counting each category among a scene's one decode gives the repr of
    decoding each present category's column on its own: the seed-7 default
    model at three thresholds, and the tiny config untrained and trained."""
    cases = [(trained_default[0], default_config.replace(threshold=t)) for t in (0.2, 0.5, 0.8)]
    cases += [(init_model_params(tiny_config), tiny_config), (train(tiny_config)[0], tiny_config)]
    for params, cfg in cases:
        assert repr(counting_stats(params, cfg)) == repr(oracle_counting_stats(params, cfg))


def test_rejection_stats_shape(tiny_config):
    params, _ = train(tiny_config)
    stats = rejection_stats(params, tiny_config)
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


def test_cli_gen_is_a_function_of_its_config(tmp_path, tiny_config, capsys):
    """Nothing reads a scene file back: ``gen`` writes the same bytes for
    one config, and the config its manifest records draws them again."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(tiny_config.dumps())
    for run in ("a", "b"):
        assert cli_main(["gen", "--config", str(cfg_path), "--n-scenes", "4", "--out", str(tmp_path / run)]) == 0
    scenes = (tmp_path / "a" / "scenes.json").read_bytes()
    assert (tmp_path / "b" / "scenes.json").read_bytes() == scenes
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    cfg_path.write_text(json.dumps(manifest["config"]))
    assert cli_main(["gen", "--config", str(cfg_path), "--n-scenes", "4", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "scenes.json").read_bytes() == scenes


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


def test_cli_train_without_steps_prints_no_loss(tmp_path, capsys):
    out = tmp_path / "t"
    argv = ["train", "--stage1-steps", "0", "--stage2-steps", "0", "--n-train-scenes", "1", "--out", str(out)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == f"trained: 0 steps; bundle at {out}/bundle.json\n"


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


# config files a command refuses: a scene without objects or clutter has no
# proposal, so the first constructs no config; the second constructs, but at
# seeds 6 and 7 every eval scene drawn is without a proposal (seed 5 has one);
# in the third clutter gives every scene a proposal, but no scene an object
REJECTED_CONFIG_FILES = {
    "no_proposals.json": {"world": {"min_objects": 0, "max_objects": 0}, "proposals": {"clutter_rate": 0.0}},
    "empty_eval.json": {"world": {"min_objects": 0, "max_objects": 1},
                        "proposals": {"clutter_rate": 0.0, "drop_rate": 0.99}},
    "no_objects.json": {"world": {"min_objects": 0, "max_objects": 0}},
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--config", "/nonexistent/config.json"], "No such file or directory"),
        (["train", "--stage1-lr", "inf"], "stage1_lr must be a finite positive number, got inf"),
        (["bench", "--n-eval-scenes", "0"], "n_eval_scenes must be >= 1, got 0"),
        (["ablate", "--n-seeds", "0"], "--n-seeds must be >= 1, got 0"),
        (["gen", "--n-scenes", "-1", "--out", "scenes"], "--n-scenes must be >= 0, got -1"),
        (["validate-transcript", "transcript.jsonl", "--n-regions", "0"], "--n-regions must be >= 1, got 0"),
        (["validate-transcript", "transcript.jsonl", "--n-regions", "-1"], "--n-regions must be >= 1, got -1"),
        (["bench", "--config", "no_proposals.json"],
         "world.max_objects must be >= 1 when proposals.clutter_rate is 0"),
        (["bench", "--config", "empty_eval.json"], "seed 7 draws no eval scene with a proposal; raise "
         "proposals.clutter_rate or world.max_objects, or lower proposals.drop_rate"),
        (["ablate", "--config", "empty_eval.json", "--seed", "5", "--n-seeds", "2"],
         "seed 6 draws no eval scene with a proposal"),
        (["bench", "--config", "no_objects.json"],
         "seed 7 draws no eval scene with an object, so there is no AP to report; raise world.max_objects"),
    ],
)
def test_cli_reports_a_rejected_config_in_one_line(argv, message, capsys, tmp_path, tmp_path_factory, monkeypatch):
    configs = tmp_path_factory.mktemp("configs")  # outside the directory that must stay empty
    for name, doc in REJECTED_CONFIG_FILES.items():
        (configs / name).write_text(json.dumps(doc))
    argv = [str(configs / arg) if arg in REJECTED_CONFIG_FILES else arg for arg in argv]
    monkeypatch.chdir(tmp_path)  # where the commands' default output directories lie
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("regionkit: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("name", ["missing.jsonl", "a_directory", "binary.jsonl"])
def test_cli_validate_transcript_reports_an_unreadable_file_in_one_line(name, tmp_path, capsys):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe\x00")
    path = tmp_path / name
    assert cli_main(["validate-transcript", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"regionkit: error: cannot read transcript {path}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

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
