"""The synthetic world is fixed: the block draws replay the per-value oracle.

``world_oracle`` keeps the per-value generator; every scene, proposal list
and target matrix the production code draws must equal its, at configs that
reach each branch (retry budgets that run out, no jitter, half or all of
the objects dropped, no clutter, heavy clutter, truncation).  The sha256
pins fix the default config's datasets, as
``test_default_bundle_bytes_are_fixed`` fixes its initial bundle.  A
proposal's score passes through a BLAS ``ddot``, so these pins hold on the
OpenBLAS core and numpy version they record (``blas_pins``).
"""

import hashlib
import re
import types

import numpy as np
import pytest
import world_oracle
from blas_pins import pin_failure

from regionkit import experiments, metrics, simworld
from regionkit.cli import main as cli_main
from regionkit.config import ExperimentConfig
from regionkit.roialign import Box
from regionkit.simworld import ProposalSimConfig, SceneConfig
from regionkit.training import seeded_training_set

CONFIGS = {
    "default": (SceneConfig(), ProposalSimConfig()),
    "one_category": (SceneConfig(n_categories=1), ProposalSimConfig()),
    "seven_categories": (SceneConfig(n_categories=7), ProposalSimConfig()),
    "twenty_categories": (SceneConfig(n_categories=20), ProposalSimConfig()),
    "min_objects_0": (SceneConfig(min_objects=0), ProposalSimConfig()),
    "retries_run_out": (SceneConfig(max_objects=12, max_overlap=0.05), ProposalSimConfig()),
    "no_jitter": (SceneConfig(), ProposalSimConfig(jitter_sigma=0.0)),
    "half_dropped": (SceneConfig(), ProposalSimConfig(drop_rate=0.5)),
    "all_dropped": (SceneConfig(), ProposalSimConfig(drop_rate=1.0, clutter_rate=3.0)),
    "no_clutter": (SceneConfig(), ProposalSimConfig(clutter_rate=0.0)),
    "heavy_clutter": (SceneConfig(), ProposalSimConfig(clutter_rate=20.0)),
    "max_proposals_3": (SceneConfig(), ProposalSimConfig(max_proposals=3)),
}

SEEDS = range(60)


def _same_float(a: float, b: float) -> bool:
    return type(a) is type(b) and float.hex(a) == float.hex(b)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_world_draws_equal_the_per_value_oracle(name):
    scene_config, proposal_config = CONFIGS[name]
    retried_out = 0
    for seed in SEEDS:
        scene = simworld.generate_scene(seed, scene_config)
        assert repr(scene) == repr(world_oracle.generate_scene(seed, scene_config))
        proposals = simworld.simulate_opn(scene, proposal_config, seed + 1000)
        assert repr(proposals) == repr(world_oracle.simulate_opn(scene, proposal_config, seed + 1000))
        queries = list(scene_config.categories)
        targets = simworld.assignment_targets(proposals, scene, queries)
        expected = world_oracle.assignment_targets(proposals, scene, queries)
        assert targets.shape == expected.shape and targets.tobytes() == expected.tobytes()
        boxes = [b for _, b in scene.objects] + proposals
        for a in boxes:
            for b in boxes:
                assert _same_float(metrics.iou(a, b), world_oracle.iou(a, b))
        drawn = np.random.default_rng(seed).integers(scene_config.min_objects, scene_config.max_objects + 1)
        retried_out += len(scene.objects) < drawn
    if name == "retries_run_out":
        assert retried_out > 0


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_datasets_equal_the_per_value_oracle(seed, monkeypatch):
    config = ExperimentConfig(seed=seed)
    dataset = seeded_training_set(config)
    scenes = experiments.make_eval_scenes(config)
    for module in (simworld, experiments):
        for name in ("generate_scene", "simulate_opn", "assignment_targets"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(world_oracle, name))
    assert repr(dataset) == repr(seeded_training_set(config))
    assert [s.targets.tobytes() for s in dataset] == [s.targets.tobytes() for s in seeded_training_set(config)]
    assert repr(scenes) == repr(experiments.make_eval_scenes(config))


@pytest.mark.parametrize(
    "args",
    [
        (0.1, 0.2, 0.5, 0.6, None, None),
        (0.1, 0.2, 0.5, 0.6, 0.25, "ball"),
        (-0.5, 0.2, 1.5, 0.6, 1.0, None),
        (0.3, 0.3, 0.3, 0.3, 0.0, None),
        (np.float64(0.125), 0, 1, np.float64(1.0), np.float64(0.5), None),
        (0.0, 0.0, 1.0, 1.0, 1, None),
        (-0.0, -0.0, 2.0, 2.0, None, None),
        (0.6, 0.1, 0.5, 0.2, None, None),
        (0.1, 0.6, 0.5, 0.2, None, None),
        (float("nan"), 0.1, 0.5, 0.6, None, None),
        (0.1, float("inf"), 0.5, 0.6, None, None),
        (0.1, 0.1, -float("inf"), 0.6, None, None),
        (0.1, 0.1, 0.5, np.float64("nan"), None, None),
        (0.1, 0.1, 0.5, 0.6, float("nan"), None),
        (0.1, 0.1, 0.5, 0.6, 1.5, None),
        (0.1, 0.1, 0.5, 0.6, -0.1, None),
        ("0.1", "0.2", "0.5", "0.6", "0.5", None),
    ],
)
def test_box_validation_equals_the_oracle(args):
    fields = dict(zip(("x1", "y1", "x2", "y2", "score", "label"), args))
    oracle = types.SimpleNamespace(**fields)
    try:
        world_oracle.box_post_init(oracle)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            Box(*args)
        return
    box = Box(*args)
    for name, value in vars(oracle).items():
        got = getattr(box, name)
        assert got == value and type(got) is type(value)
        if isinstance(value, float):
            assert _same_float(got, value)


# ------------------------------------------------------------------ pins

def _digest(items) -> str:
    """sha256 over each item's repr and, for a training sample, its target
    matrix's shape and bytes (the repr leaves the targets out)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        targets = getattr(item, "targets", None)
        if targets is not None:
            h.update(repr(targets.shape).encode() + targets.tobytes())
    return h.hexdigest()


def _noiseless_counting_scenes(config):
    noiseless = ProposalSimConfig(jitter_sigma=0.0, drop_rate=0.0, clutter_rate=0.0,
                                  max_proposals=config.proposals.max_proposals)
    return experiments.make_eval_scenes(config, n_scenes=50, proposal_config=noiseless,
                                        salt=experiments._EVAL_SEED_SALT + 2)


#: what the world and ``gen`` pins were computed under
PINNED_UNDER = {"core": "SkylakeX", "numpy": "2.4.6"}

WORLD_PINS = {
    "training_set": (seeded_training_set, "f15f2f7e179b38f050ae1b49c5f428ba4ba7bf209e0624486179b058f805cf78"),
    "eval_scenes": (experiments.make_eval_scenes, "dd33e6c82534a27e6cd8030a018e6c6f73e227c5214e8f4ff4e2f88661441632"),
    "rejection_scenes": (
        lambda config: experiments.make_eval_scenes(config, n_scenes=100, salt=experiments._EVAL_SEED_SALT + 1),
        "ae0351d1723a58728c89a0bcb13115b48efd37c52a53055f6334c0645a6baa79",
    ),
    "counting_scenes": (_noiseless_counting_scenes, "9f8bbe96308927d84103582190dc4cafe0195f066c425c9e8e4b10a96fe2b67f"),
}


@pytest.mark.parametrize("name", sorted(WORLD_PINS))
def test_default_world_bytes_are_fixed(name):
    """The default config's seed-7 datasets hash as they always have."""
    draw, digest = WORLD_PINS[name]
    got = _digest(draw(ExperimentConfig()))
    assert got == digest, pin_failure(name, got, digest, PINNED_UNDER)


def test_gen_bytes_are_fixed(tmp_path, capsys):
    assert cli_main(["gen", "--n-scenes", "50", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "scenes.json").read_bytes()).hexdigest()
    want = "d3b46a479c3c154277102bb866cde936496636a549229fc5d50b38b6d3cbc7fd"
    assert digest == want, pin_failure("gen", digest, want, PINNED_UNDER)
