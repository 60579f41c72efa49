"""Trainer: freeze schedule, determinism, gradients, divergence handling."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from regionkit import experiments, gridops, pyramid, roialign, training
from regionkit.config import ExperimentConfig
from regionkit.experiments import evaluate_retrieval, make_eval_scenes
from regionkit.gridops import Kernel, conv2d, conv2d_backward
from regionkit.pyramid import SimpleFPParams, aux_fuse, aux_fuse_backward, simple_fp, simple_fp_backward
from regionkit.regionenc import Connector, connector_backward, connector_forward, positional_embedding_matrix
from regionkit.roialign import RoiConfig, pooled_weights, roi_align_pooled
from regionkit.simworld import EncoderConfig, SceneConfig, make_training_set, toy_encode
from regionkit.training import (
    GROUP_AUX,
    GROUP_CONNECTOR,
    GROUP_NEW_VOCAB,
    GROUP_ORIG_VOCAB,
    GROUP_PRIMARY,
    GROUP_SIMPLEFP,
    FreezeSchedule,
    ModelParams,
    TrainingDivergence,
    grad_check,
    init_model_params,
    loss_and_grads,
    prepare_sample,
    train,
)

VARIANTS = {
    "hybrid": {},
    "primary_only": {"use_auxiliary": False},
    "primary_only_no_fp": {"use_auxiliary": False, "use_simplefp": False},
    "auxiliary_only": {"use_primary": False, "use_simplefp": False},
}


# --------------------------------------------------------------- schedule

def test_schedule_defaults(tiny_config):
    sched = FreezeSchedule.from_config(tiny_config)
    assert sched.stage1 == {GROUP_SIMPLEFP, GROUP_CONNECTOR, GROUP_NEW_VOCAB}
    assert sched.stage2 == {GROUP_SIMPLEFP, GROUP_CONNECTOR, GROUP_NEW_VOCAB, GROUP_AUX}


def test_schedule_invariants_enforced():
    with pytest.raises(ValueError):
        FreezeSchedule(frozenset({GROUP_ORIG_VOCAB}), frozenset())
    with pytest.raises(ValueError):
        FreezeSchedule(frozenset({GROUP_PRIMARY}), frozenset())
    with pytest.raises(ValueError, match=GROUP_PRIMARY):
        FreezeSchedule(frozenset(), frozenset({GROUP_PRIMARY}))


def test_config_has_no_primary_unfreeze_switch():
    with pytest.raises(ValueError, match="unknown config field unfreeze_primary"):
        ExperimentConfig.from_json({"unfreeze_primary": False})


def test_config_requires_a_stream(tiny_config):
    with pytest.raises(ValueError):
        tiny_config.replace(use_primary=False, use_auxiliary=False)


@pytest.mark.parametrize(
    "field, build",
    [
        ("n_train_scenes", lambda cfg: cfg.replace(n_train_scenes=0)),
        ("aux_base_resolution", lambda cfg: cfg.replace(encoder=EncoderConfig(aux_base_resolution=4))),
        ("primary_resolution", lambda cfg: cfg.replace(encoder=EncoderConfig(primary_resolution=0))),
        ("encoder.primary_resolution", lambda cfg: cfg.replace(encoder=EncoderConfig(primary_resolution=3))),
        ("use_simplefp", lambda cfg: cfg.replace(use_primary=False, use_simplefp=True)),
        ("seed must be >= 0, got -1", lambda cfg: ExperimentConfig.from_json({"seed": -1})),
        ("noise_sigma .* got nan", lambda cfg: cfg.replace(encoder=EncoderConfig(noise_sigma=float("nan")))),
        ("noise_sigma .* got inf", lambda cfg: cfg.replace(encoder=EncoderConfig(noise_sigma=float("inf")))),
        ("distractor_intensity .* got nan",
         lambda cfg: cfg.replace(encoder=EncoderConfig(distractor_intensity=float("nan")))),
        ("distractor_intensity .* got 1.5", lambda cfg: cfg.replace(encoder=EncoderConfig(distractor_intensity=1.5))),
        ("primary_resolution must be <= 512",
         lambda cfg: cfg.replace(encoder=EncoderConfig(primary_resolution=513))),
        ("encoder.aux_base_resolution",
         lambda cfg: ExperimentConfig.from_json({"encoder": {"aux_base_resolution": 1000000}})),
        ("encoder.distractor_intensity",
         lambda cfg: ExperimentConfig.from_json({"encoder": {"distractor_intensity": -0.5}})),
        ("stage1_lr must be a finite positive number, got inf", lambda cfg: cfg.replace(stage1_lr=float("inf"))),
        ("stage2_lr must be a finite positive number, got inf", lambda cfg: cfg.replace(stage2_lr=float("inf"))),
    ],
)
def test_unusable_config_rejected_naming_field(tiny_config, field, build):
    with pytest.raises(ValueError, match=field):
        build(tiny_config)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(-3, 2**40),
    primary_resolution=st.integers(0, 10),
    aux_base_resolution=st.integers(4, 20),
    switches=st.sampled_from(sorted(VARIANTS)),
    n_train_scenes=st.integers(0, 3),
    n_categories=st.integers(0, 9),
    noise_sigma=st.floats(-0.1, 0.1) | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    distractor_intensity=st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    clutter_density=st.floats(-0.5, 0.5),
)
@example(seed=3, primary_resolution=9, aux_base_resolution=16, switches="hybrid", n_train_scenes=2,
         n_categories=4, noise_sigma=0.01, distractor_intensity=0.3, clutter_density=0.05)
# a negative seed is rejected at construction, not by numpy in train
@example(seed=-1, primary_resolution=9, aux_base_resolution=16, switches="hybrid", n_train_scenes=2,
         n_categories=4, noise_sigma=0.01, distractor_intensity=0.3, clutter_density=0.05)
@example(seed=3, primary_resolution=4, aux_base_resolution=8, switches="primary_only", n_train_scenes=1,
         n_categories=1, noise_sigma=0.0, distractor_intensity=1.0, clutter_density=0.0)
@example(seed=3, primary_resolution=1, aux_base_resolution=12, switches="auxiliary_only", n_train_scenes=1,
         n_categories=8, noise_sigma=0.01, distractor_intensity=0.0, clutter_density=0.05)
@example(seed=3, primary_resolution=8, aux_base_resolution=16, switches="primary_only", n_train_scenes=1,
         n_categories=0, noise_sigma=-0.01, distractor_intensity=0.3, clutter_density=-0.05)
# non-finite encoder floats are rejected at construction, not in toy_encode
@example(seed=3, primary_resolution=8, aux_base_resolution=16, switches="hybrid", n_train_scenes=1,
         n_categories=4, noise_sigma=float("nan"), distractor_intensity=0.3, clutter_density=0.05)
@example(seed=3, primary_resolution=8, aux_base_resolution=16, switches="hybrid", n_train_scenes=1,
         n_categories=4, noise_sigma=0.01, distractor_intensity=float("nan"), clutter_density=0.5)
def test_every_constructible_config_trains_and_evaluates(
    tiny_config, seed, primary_resolution, aux_base_resolution, switches, n_train_scenes,
    n_categories, noise_sigma, distractor_intensity, clutter_density,
):
    try:
        world = SceneConfig(n_categories=n_categories, min_objects=2, max_objects=3, clutter_density=clutter_density)
        encoder = EncoderConfig(
            primary_resolution=primary_resolution, aux_base_resolution=aux_base_resolution,
            noise_sigma=noise_sigma, distractor_intensity=distractor_intensity,
        )
        cfg = tiny_config.replace(
            seed=seed, world=world, encoder=encoder, n_train_scenes=n_train_scenes, n_eval_scenes=2,
            stage1_steps=3, stage2_steps=2, **VARIANTS[switches],
        )
    except ValueError:
        return
    params, _ = train(cfg)
    report = evaluate_retrieval(params, make_eval_scenes(cfg), cfg)
    assert 0.0 <= report.ap_mean <= 1.0


# ----------------------------------------------------------------- params

def test_init_params_groups_and_identity_mixes(tiny_config):
    params = init_model_params(tiny_config)
    assert set(params.groups) == {
        GROUP_PRIMARY, GROUP_AUX, GROUP_SIMPLEFP, GROUP_CONNECTOR, GROUP_NEW_VOCAB, GROUP_ORIG_VOCAB,
    }
    mix = params.groups[GROUP_PRIMARY]["mix_w"]
    np.testing.assert_array_equal(mix[:, :, 0, 0], np.eye(mix.shape[0]))


def test_params_are_views_into_one_vector(tiny_config):
    params = init_model_params(tiny_config)
    ends = [0]
    for group, arrs in params.groups.items():
        span = params.spans[group]
        assert span.start == ends[-1]
        ends.append(span.stop)
        flat = np.concatenate([arr.ravel() for arr in arrs.values()])
        assert flat.tobytes() == params.vector[span].tobytes()
        for arr in arrs.values():
            assert np.shares_memory(arr, params.vector)
    assert ends[-1] == params.vector.size
    before = {k: arr.copy() for k, arr in params.groups[GROUP_CONNECTOR].items()}
    params.vector[params.spans[GROUP_CONNECTOR]] += 1.0
    for k, arr in params.groups[GROUP_CONNECTOR].items():
        np.testing.assert_array_equal(arr, before[k] + 1.0)
    zeros = params.zeros_like()
    assert zeros.spans == params.spans and not zeros.vector.any()
    assert {g: {k: a.shape for k, a in arrs.items()} for g, arrs in zeros.groups.items()} == {
        g: {k: a.shape for k, a in arrs.items()} for g, arrs in params.groups.items()}


def test_params_json_round_trip(tiny_config):
    params = init_model_params(tiny_config)
    back = ModelParams.from_json(params.to_json())
    assert back.checksums() == params.checksums()


_MALFORMED_ARRAYS = {
    "not an object": lambda spec: [spec["data"]],
    "no shape": lambda spec: {"data": spec["data"]},
    "no data": lambda spec: {"shape": spec["shape"]},
    "one value short": lambda spec: {"shape": spec["shape"], "data": spec["data"][:-1]},
    "one value over": lambda spec: {"shape": spec["shape"], "data": spec["data"] + [0.0]},
    "shape not a list": lambda spec: {"shape": "4", "data": spec["data"]},
    "negative dimension": lambda spec: {"shape": [-1] + spec["shape"], "data": spec["data"]},
    "data not numbers": lambda spec: {"shape": spec["shape"], "data": ["x"] * len(spec["data"])},
    "nested data": lambda spec: {"shape": spec["shape"], "data": [spec["data"]]},
    "non-finite data": lambda spec: {"shape": spec["shape"], "data": [float("nan")] * len(spec["data"])},
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fault=st.sampled_from(sorted(_MALFORMED_ARRAYS)))
def test_params_json_rejects_malformed_arrays(tiny_config, data, fault):
    blob = init_model_params(tiny_config).to_json()
    group = data.draw(st.sampled_from(sorted(blob)))
    name = data.draw(st.sampled_from(sorted(blob[group])))
    blob[group][name] = _MALFORMED_ARRAYS[fault](blob[group][name])
    with pytest.raises(ValueError, match=f"{group}/{name}"):
        ModelParams.from_json(blob)


@pytest.mark.parametrize("blob", [[], "bundle", {"connector": []}, {"connector": None}])
def test_params_json_rejects_malformed_groups(blob):
    with pytest.raises(ValueError):
        ModelParams.from_json(blob)


# the factored forward against the dense maps: every variant, odd map sizes
# and a non-default pooling grid
ORACLE_CASES = {
    **VARIANTS,
    "primary_resolution_5": {"encoder": EncoderConfig(primary_resolution=5, aux_base_resolution=16)},
    "primary_resolution_9": {"encoder": EncoderConfig(primary_resolution=9, aux_base_resolution=16)},
    "aux_base_resolution_12": {"encoder": EncoderConfig(primary_resolution=8, aux_base_resolution=12)},
    "roi_3x3": {"roi": RoiConfig(pool_size=3, sampling_ratio=3)},
}
_BRANCHES = ("down", "same", "up2", "up4_a", "up4_b")


def dense_oracle(params, sample, s, cfg):
    """(loss, features, grads) through dense maps: simple_fp / aux_fuse ->
    roi_align_pooled forward; simple_fp_backward / aux_fuse_backward /
    conv2d_backward and the pooling-weight adjoint backward.  The grads are
    those of every group that can train."""
    g = params.groups

    def kernel(group, name):
        w = g[group][f"{name}_w"]
        return Kernel(*w.shape, w, g[group][f"{name}_b"])

    last_map, aux_maps = toy_encode(sample.scene, cfg.encoder)
    boxes = list(sample.proposals)
    maps = []
    if cfg.use_primary:
        mixed = conv2d(last_map, kernel(GROUP_PRIMARY, "mix"))
        fp = SimpleFPParams({b: kernel(GROUP_SIMPLEFP, b) for b in _BRANCHES})
        maps += simple_fp(mixed, fp) if cfg.use_simplefp else [mixed]
    if cfg.use_auxiliary:
        mixed_aux = [conv2d(m, kernel(GROUP_AUX, f"mix{i}")) for i, m in enumerate(aux_maps)]
        maps.append(aux_fuse(mixed_aux))
    pooled = [roi_align_pooled(m, boxes, cfg.roi) for m in maps]
    features = np.concatenate(pooled, axis=1) + positional_embedding_matrix(boxes, cfg.d_total)
    c = g[GROUP_CONNECTOR]
    conn = Connector(c["w1"], c["b1"], c["w2"], c["b2"])
    queries = g[GROUP_NEW_VOCAB]["queries"][s.query_idx]
    logits = connector_forward(conn, features) @ queries.T
    loss = float(np.sum(np.maximum(logits, 0.0) - logits * s.targets + np.log1p(np.exp(-np.abs(logits)))))
    d_logits = 1.0 / (1.0 + np.exp(-logits)) - s.targets
    grads = {}
    grads[GROUP_CONNECTOR], d_feats = connector_backward(conn, features, d_logits @ queries)
    cols = np.cumsum([0] + [m.channels for m in maps])
    d_maps = [
        (d_feats[:, c0:c1].T @ pooled_weights(m.height, m.width, boxes, cfg.roi)).reshape(m.shape)
        for m, c0, c1 in zip(maps, cols[:-1], cols[1:])
    ]
    if cfg.use_simplefp:
        branch_grads, _ = simple_fp_backward(mixed, fp, d_maps[:4])
        grads[GROUP_SIMPLEFP] = {f"{b}_{k}": d for b, ds in branch_grads.items() for k, d in zip("wb", ds)}
    if cfg.use_auxiliary:
        grads[GROUP_AUX] = {}
        for i, d in enumerate(aux_fuse_backward(mixed_aux, d_maps[-1])):
            d_w, d_b, _ = conv2d_backward(aux_maps[i], kernel(GROUP_AUX, f"mix{i}"), d)
            grads[GROUP_AUX][f"mix{i}_w"], grads[GROUP_AUX][f"mix{i}_b"] = d_w, d_b
    return loss, features, grads


def assert_rel_close(got, want, what):
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, what


@pytest.mark.parametrize("variant", sorted(ORACLE_CASES))
def test_training_forward_equals_oracle_composition(tiny_config, variant):
    """Pooled-tap features, loss and the gradient of every group with a path
    into the loss equal the dense oracle to 1e-12 relative; the gradient of
    every group not requested is exactly zero."""
    cfg = tiny_config.replace(**ORACLE_CASES[variant])
    params = init_model_params(cfg)
    rng = np.random.default_rng(11)
    for arrs in params.groups.values():  # move off the identity mixes
        for arr in arrs.values():
            arr += rng.normal(0.0, 0.1, size=arr.shape)
    for seed in (5, 6):
        sample = make_training_set(1, 0.5, seed=seed, scene_config=cfg.world, proposal_config=cfg.proposals)[0]
        s = prepare_sample(sample, cfg)
        loss, features, want = dense_oracle(params, sample, s, cfg)
        assert_rel_close(training._forward(params, s, cfg).features, features, "features")
        got_loss, got = loss_and_grads(params, s, cfg, frozenset(want))
        assert abs(got_loss - loss) <= 1e-12 * abs(loss)
        for group in set(got.groups) - set(want):
            assert not got.vector[got.spans[group]].any(), f"unrequested group {group} is not zero"
        for group, arrs in want.items():
            assert set(got.groups[group]) == set(arrs)
            for name, arr in arrs.items():
                assert_rel_close(got.groups[group][name], arr, f"{group}/{name}")


_DENSE_OPS = (
    "conv2d", "deconv2d", "bilinear_resize", "conv2d_backward", "deconv2d_backward",
    "bilinear_resize_grad", "pooled_apply",
)


def test_dense_ops_stay_off_the_hot_path(tiny_config, monkeypatch):
    """Training and evaluation run on pooled taps: they finish with every
    dense map op raising wherever the package binds it."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense map op ran on the training or evaluation path")

    for module in (gridops, roialign, pyramid, training, experiments):
        for name in _DENSE_OPS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    params, _ = train(tiny_config)
    report = evaluate_retrieval(params, make_eval_scenes(tiny_config), tiny_config)
    assert 0.0 <= report.ap_mean <= 1.0


# --------------------------------------------------------------- training

def test_train_rejects_empty_dataset(tiny_config):
    with pytest.raises(ValueError, match="training sample"):
        train(tiny_config, [])


def test_zero_steps_params_equal_init_bitwise(tiny_config):
    cfg = tiny_config.replace(stage1_steps=0, stage2_steps=0)
    params, log = train(cfg)
    assert log.checksums["init"] == log.checksums["after_stage2"]
    fresh = init_model_params(cfg)
    assert fresh.checksums() == params.checksums()


def test_frozen_groups_bitwise_constant(tiny_config):
    _, log = train(tiny_config)
    for group in (GROUP_PRIMARY, GROUP_ORIG_VOCAB):
        assert log.checksums["init"][group] == log.checksums["after_stage1"][group]
        assert log.checksums["after_stage1"][group] == log.checksums["after_stage2"][group]


def test_stage1_touches_only_its_groups(tiny_config):
    _, log = train(tiny_config)
    init, after1 = log.checksums["init"], log.checksums["after_stage1"]
    assert init[GROUP_AUX] == after1[GROUP_AUX]
    for group in (GROUP_SIMPLEFP, GROUP_CONNECTOR, GROUP_NEW_VOCAB):
        assert init[group] != after1[group]


def test_stage2_unfreezes_aux(tiny_config):
    cfg = tiny_config.replace(stage2_steps=40, stage2_lr=1e-2)
    _, log = train(cfg)
    assert log.checksums["after_stage1"][GROUP_AUX] != log.checksums["after_stage2"][GROUP_AUX]


def test_training_deterministic(tiny_config):
    params_a, log_a = train(tiny_config)
    params_b, log_b = train(tiny_config)
    assert params_a.checksums() == params_b.checksums()
    assert log_a.losses == log_b.losses


def test_loss_decreases_on_short_run(tiny_config):
    cfg = tiny_config.replace(stage1_steps=120, n_train_scenes=8)
    _, log = train(cfg)
    s1 = log.losses["stage1"]
    assert np.mean(s1[-10:]) < np.mean(s1[:10])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_diagnostic(tiny_config):
    cfg = tiny_config.replace(stage1_lr=1e9, stage1_steps=50)
    with pytest.raises(TrainingDivergence) as exc_info:
        train(cfg)
    assert exc_info.value.stage == 1
    assert exc_info.value.step > 0

    # a step this large overflows the region features before any loss exists
    with pytest.raises(TrainingDivergence) as exc_info:
        train(cfg.replace(stage1_lr=1e300))
    err = exc_info.value
    assert err.stage == 1 and err.step > 0
    assert err.loss is None
    assert "region feature matrix contains non-finite values" in str(err)
    assert "loss" not in str(err)


def test_log_shapes(tiny_config):
    _, log = train(tiny_config)
    assert len(log.losses["stage1"]) == tiny_config.stage1_steps
    assert len(log.losses["stage2"]) == tiny_config.stage2_steps
    assert set(log.checksums) == {"init", "after_stage1", "after_stage2"}


# -------------------------------------------------------------- gradients

def test_grad_check_all_groups_pass(tiny_config):
    report = grad_check(tiny_config)
    assert set(report.per_group) == {GROUP_CONNECTOR, GROUP_NEW_VOCAB, GROUP_SIMPLEFP, GROUP_AUX}
    assert report.max_rel_error < 1e-4
    assert report.frozen_zero == [GROUP_ORIG_VOCAB]


def test_grad_check_variant_configs(tiny_config):
    aux_only = tiny_config.replace(use_primary=False, use_simplefp=False)
    report = grad_check(aux_only)
    assert GROUP_SIMPLEFP not in report.per_group
    assert report.max_rel_error < 1e-4

    no_fp = tiny_config.replace(use_auxiliary=False, use_simplefp=False)
    report = grad_check(no_fp)
    assert GROUP_AUX not in report.per_group
    assert report.max_rel_error < 1e-4


def test_loss_and_grads_rejects_the_primary_encoder(tiny_config):
    s = prepare_sample(training.seeded_training_set(tiny_config)[0], tiny_config)
    with pytest.raises(ValueError, match=GROUP_PRIMARY):
        loss_and_grads(init_model_params(tiny_config), s, tiny_config, {GROUP_PRIMARY})


def test_grad_check_rejects_large_dims(default_config):
    with pytest.raises(ValueError):
        grad_check(default_config.replace(d_llm=128))


# ----------------------------------------------------------- ablation dims

def test_variant_dimension_bookkeeping(tiny_config):
    assert tiny_config.d_p == 8 and tiny_config.d_a == 16 and tiny_config.d_total == 24
    primary_only = tiny_config.replace(use_auxiliary=False)
    assert primary_only.d_total == 8
    no_fp = tiny_config.replace(use_auxiliary=False, use_simplefp=False)
    assert no_fp.d_total == tiny_config.primary_channels
    aux_only = tiny_config.replace(use_primary=False, use_simplefp=False)
    assert aux_only.d_total == 16


def test_config_json_round_trip(tiny_config):
    back = ExperimentConfig.loads(tiny_config.dumps())
    assert back == tiny_config


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_schema_is_the_default_config():
    schema = _README.read_text().split("## Configuration file schema", 1)[1]
    block = schema.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == ExperimentConfig().to_json()


def test_readme_freeze_table_is_the_default_schedule():
    section = _README.read_text().split("## Training stages and parameter groups", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\| (\w+) +\| (\w+)", section, flags=re.MULTILINE)
    assert {group for group, _, _ in rows} == set(init_model_params(ExperimentConfig()).groups)
    sched = FreezeSchedule.from_config(ExperimentConfig())
    for group, stage1, stage2 in rows:
        assert (stage1 == "trained", stage2 == "trained") == (group in sched.stage1, group in sched.stage2), group


_SECTIONS = ("world", "proposals", "encoder", "roi")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _wrong_values(value):
    """JSON values of a type that a field now holding ``value`` does not take."""
    others = st.text(max_size=4) | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
    if type(value) is bool:
        return others | st.integers() | st.none()
    if type(value) is int:
        return others | st.booleans() | st.none() | st.floats()
    if type(value) is float:
        return others | st.booleans() | st.none() | st.sampled_from([float("nan"), float("inf")])
    return others


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fault=st.sampled_from(["document", "unknown key", "section", "wrong type"]))
def test_config_json_rejects_malformed_input_naming_field(tiny_config, data, fault):
    doc = tiny_config.to_json()
    section = data.draw(st.sampled_from((None,) + _SECTIONS))
    where, prefix = (doc, "") if section is None else (doc[section], f"{section}.")
    if fault == "document":
        doc, field = data.draw(_JSON.filter(lambda v: not isinstance(v, dict))), "document"
    elif fault == "unknown key":
        key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in where))
        where[key], field = 0, prefix + key
    elif fault == "section":
        field = data.draw(st.sampled_from(_SECTIONS))
        doc[field] = data.draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    else:
        key = data.draw(st.sampled_from(sorted(k for k in where if k not in _SECTIONS)))
        where[key], field = data.draw(_wrong_values(where[key])), prefix + key
    with pytest.raises(ValueError, match=re.escape(field)):
        ExperimentConfig.from_json(doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"world": {"min_objects": 9}}, "world.min_objects"),
        ({"world": {"min_objects": -1}}, "world.min_objects"),
        ({"world": {"min_size": 0.5}}, "world.min_size"),
        ({"world": {"max_size": 1.5}}, "world.max_size"),
        ({"encoder": {"primary_resolution": 0}}, "encoder.primary_resolution"),
        ({"roi": {"pool_size": 0}}, "roi.pool_size"),
        ({"d_llm": 0}, "d_llm"),
        ({"fp_channels": 0}, "fp_channels"),
        ({"world": {"n_categories": 0}}, "world.n_categories"),
        ({"stage1_lr": 0}, "stage1_lr"),
        ({"stage2_lr": -1e-5}, "stage2_lr"),
        ({"stage2_steps": -1}, "stage2_steps"),
        ({"world": {"clutter_density": -1}}, "world.clutter_density"),
        ({"encoder": {"noise_sigma": -1}}, "encoder.noise_sigma"),
    ],
)
def test_config_json_range_errors_name_field(doc, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}\b"):
        ExperimentConfig.from_json(doc)


def test_config_json_float_field_rejects_int_beyond_float():
    # the same number check as scenes_from_json and Box.from_json
    with pytest.raises(ValueError, match="stage1_lr must be a finite number"):
        ExperimentConfig.from_json({"stage1_lr": 10**400})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=_JSON)
def test_config_json_any_value_builds_or_raises_value_error(tiny_config, data, value):
    doc = tiny_config.to_json()
    section = data.draw(st.sampled_from((None,) + _SECTIONS))
    where = doc if section is None else doc[section]
    where[data.draw(st.sampled_from(sorted(where)))] = value
    try:
        assert isinstance(ExperimentConfig.from_json(doc), ExperimentConfig)
    except ValueError:
        pass
