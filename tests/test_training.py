"""Trainer: freeze schedule, determinism, gradients, divergence handling."""

import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from regionkit import baseline, experiments, gridops, pyramid, roialign, simworld, training
from regionkit.config import STREAMS, ExperimentConfig
from regionkit.experiments import evaluate_retrieval, make_eval_scenes
from regionkit.gridops import Kernel, conv2d, conv2d_backward
from regionkit.pyramid import SimpleFPParams, aux_fuse, aux_fuse_backward, simple_fp, simple_fp_backward
from regionkit.regionenc import Connector, connector_backward, connector_forward, positional_embedding_matrix
from regionkit.roialign import RoiConfig, pooled_weights, roi_align_pooled
from regionkit.simworld import EncoderConfig, ProposalSimConfig, SceneConfig, make_training_set, toy_encode
from regionkit.training import (
    GROUP_AUX,
    GROUP_CONNECTOR,
    GROUP_NEW_VOCAB,
    GROUP_ORIG_VOCAB,
    GROUP_PRIMARY,
    GROUP_SIMPLEFP,
    ModelParams,
    TrainingDivergence,
    grad_check,
    init_model_params,
    loss_and_grads,
    prepare_sample,
    train,
)

# --------------------------------------------------------------- schedule

def first_sample(cfg):
    """The first sample ``train`` draws for ``cfg``, prepared, and the
    initial parameters."""
    params = init_model_params(cfg)
    return params, prepare_sample(params, training.seeded_training_set(cfg)[0], cfg)


def test_schedule_defaults(tiny_config):
    params, s = first_sample(tiny_config)
    assert training.bind(params, s, 1).trainable == {GROUP_SIMPLEFP, GROUP_CONNECTOR, GROUP_NEW_VOCAB}
    assert training.bind(params, s, 2).trainable == {GROUP_SIMPLEFP, GROUP_CONNECTOR, GROUP_NEW_VOCAB, GROUP_AUX}


def test_no_stage_trains_the_primary_encoder_or_the_original_vocabulary(tiny_config):
    for variant in STREAMS:
        params, s = first_sample(tiny_config.replace(streams=variant))
        for stage in (0, 1, 2):
            assert not training.bind(params, s, stage).trainable & {GROUP_PRIMARY, GROUP_ORIG_VOCAB}, (variant, stage)


def test_a_stage_past_the_second_is_refused(tiny_config):
    params, s = first_sample(tiny_config)
    for stage in (3, -1):
        with pytest.raises(ValueError, match=f"stage {stage} is not a stage"):
            training.bind(params, s, stage)


def test_config_has_no_primary_unfreeze_switch():
    with pytest.raises(ValueError, match="unknown config field unfreeze_primary"):
        ExperimentConfig.from_json({"unfreeze_primary": False})


def test_config_has_no_stream_switches():
    with pytest.raises(ValueError, match="unknown config field use_primary"):
        ExperimentConfig.from_json({"use_primary": False})


@pytest.mark.parametrize(
    "field, build",
    [
        ("n_train_scenes", lambda cfg: cfg.replace(n_train_scenes=0)),
        ("aux_base_resolution", lambda cfg: cfg.replace(encoder=EncoderConfig(aux_base_resolution=4))),
        ("primary_resolution", lambda cfg: cfg.replace(encoder=EncoderConfig(primary_resolution=0))),
        ("encoder.primary_resolution", lambda cfg: cfg.replace(encoder=EncoderConfig(primary_resolution=3))),
        ("streams must be one of hybrid, .*, auxiliary_only, got 'fused'",
         lambda cfg: ExperimentConfig.from_json({"streams": "fused"})),
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
        ("n_eval_scenes must be >= 1, got 0", lambda cfg: cfg.replace(n_eval_scenes=0)),
        ("rejection_fraction must lie in \\[0, 1\\], got 1.5", lambda cfg: cfg.replace(rejection_fraction=1.5)),
        ("rejection_fraction .* got -0.1", lambda cfg: cfg.replace(rejection_fraction=-0.1)),
        ("rejection_fraction .* got nan", lambda cfg: cfg.replace(rejection_fraction=float("nan"))),
        ("proposals.drop_rate must be < 1 when proposals.clutter_rate is 0",
         lambda cfg: cfg.replace(proposals=ProposalSimConfig(drop_rate=1.0, clutter_rate=0.0))),
        ("proposals.clutter_rate must lie in \\[0, 1000.0\\], got 10000000.0",
         lambda cfg: ExperimentConfig.from_json({"proposals": {"clutter_rate": 1e7}})),
        ("proposals.clutter_rate .* got 1e\\+300",
         lambda cfg: ExperimentConfig.from_json({"proposals": {"clutter_rate": 1e300}})),
        ("world.max_overlap must lie in \\[0, 1\\], got -1.0",
         lambda cfg: ExperimentConfig.from_json({"world": {"max_overlap": -1.0}})),
        ("max_objects must be <= 256, got 257", lambda cfg: cfg.replace(world=SceneConfig(max_objects=257))),
        ("max_objects must be <= 256, got 1000000000.0", lambda cfg: cfg.replace(world=SceneConfig(max_objects=1e9))),
        ("world.max_objects must be <= 256, got 1000000000",
         lambda cfg: ExperimentConfig.from_json({"world": {"max_objects": 10**9}})),
        ("world.max_objects must be >= 1 when proposals.clutter_rate is 0",
         lambda cfg: ExperimentConfig.from_json(
             {"world": {"min_objects": 0, "max_objects": 0}, "proposals": {"clutter_rate": 0.0}})),
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
    streams=st.sampled_from(sorted(STREAMS)),
    n_train_scenes=st.integers(0, 3),
    n_categories=st.integers(0, 9),
    noise_sigma=st.floats(-0.1, 0.1) | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    distractor_intensity=st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    clutter_density=st.floats(-0.5, 0.5),
)
@example(seed=3, primary_resolution=9, aux_base_resolution=16, streams="hybrid", n_train_scenes=2,
         n_categories=4, noise_sigma=0.01, distractor_intensity=0.3, clutter_density=0.05)
# a negative seed is rejected at construction, not by numpy in train
@example(seed=-1, primary_resolution=9, aux_base_resolution=16, streams="hybrid", n_train_scenes=2,
         n_categories=4, noise_sigma=0.01, distractor_intensity=0.3, clutter_density=0.05)
@example(seed=3, primary_resolution=4, aux_base_resolution=8, streams="primary_only", n_train_scenes=1,
         n_categories=1, noise_sigma=0.0, distractor_intensity=1.0, clutter_density=0.0)
@example(seed=3, primary_resolution=1, aux_base_resolution=12, streams="auxiliary_only", n_train_scenes=1,
         n_categories=8, noise_sigma=0.01, distractor_intensity=0.0, clutter_density=0.05)
@example(seed=3, primary_resolution=3, aux_base_resolution=16, streams="hybrid_no_fp", n_train_scenes=1,
         n_categories=4, noise_sigma=0.01, distractor_intensity=0.3, clutter_density=0.05)
@example(seed=3, primary_resolution=8, aux_base_resolution=16, streams="primary_only", n_train_scenes=1,
         n_categories=0, noise_sigma=-0.01, distractor_intensity=0.3, clutter_density=-0.05)
# non-finite encoder floats are rejected at construction, not in toy_encode
@example(seed=3, primary_resolution=8, aux_base_resolution=16, streams="hybrid", n_train_scenes=1,
         n_categories=4, noise_sigma=float("nan"), distractor_intensity=0.3, clutter_density=0.05)
@example(seed=3, primary_resolution=8, aux_base_resolution=16, streams="hybrid", n_train_scenes=1,
         n_categories=4, noise_sigma=0.01, distractor_intensity=float("nan"), clutter_density=0.5)
def test_every_constructible_config_trains_and_evaluates(
    tiny_config, seed, primary_resolution, aux_base_resolution, streams, n_train_scenes,
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
            stage1_steps=3, stage2_steps=2, streams=streams,
        )
    except ValueError:
        return
    params, _ = train(cfg)
    eval_scenes = make_eval_scenes(cfg)
    report = evaluate_retrieval(params, eval_scenes, cfg)
    assert 0.0 <= report.ap_mean <= 1.0
    # and the comparison baseline that ``bench`` trains and evaluates beside it
    head, _ = baseline.train_baseline(cfg)
    report = baseline.regression_baseline_eval(head, [ev.scene for ev in eval_scenes], cfg)
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
        for arr in arrs.values():
            assert np.shares_memory(arr, params.vector)
    assert ends[-1] == params.vector.size
    # the named views partition each span: each view's index, written through
    # it, fills exactly as many entries of the span as the view has
    marked = init_model_params(tiny_config)
    for group, arrs in marked.groups.items():
        for i, arr in enumerate(arrs.values()):
            arr[...] = i
        counts = np.bincount(marked.vector[marked.spans[group]].astype(int), minlength=len(arrs))
        assert counts.tolist() == [arr.size for arr in arrs.values()], group
    # each kernel and its bias are one C-contiguous slice of the span:
    # tap-major weights, then the bias, row by row
    kernels = {g: [k[:-2] for k, a in arrs.items() if k.endswith("_w") and a.ndim == 4]
               for g, arrs in params.groups.items()}
    assert kernels == {
        GROUP_PRIMARY: ["mix"], GROUP_AUX: [f"mix{i}" for i in range(4)],
        GROUP_SIMPLEFP: ["down", "same", "up2", "up4_a", "up4_b"], GROUP_CONNECTOR: [],
        GROUP_NEW_VOCAB: [], GROUP_ORIG_VOCAB: [],
    }
    for group, names in kernels.items():
        span = params.spans[group]
        for x in names:
            block, w, b = params.kernel(group, x), params.groups[group][f"{x}_w"], params.groups[group][f"{x}_b"]
            start = (block.__array_interface__["data"][0] - params.vector.__array_interface__["data"][0]) // 8
            assert np.shares_memory(block, params.vector) and block.flags.c_contiguous
            assert span.start <= start and start + block.size <= span.stop
            want = np.concatenate([w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1), b[:, None]], axis=1)
            assert block.tobytes() == want.tobytes(), (group, x)
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
    back = ModelParams.from_json(params.to_json(), tiny_config)
    assert back.checksums() == params.checksums()


def test_default_bundle_bytes_are_fixed():
    """The bundle is the named arrays in bundle order, however the vector
    stores them: the default initial bundle hashes as it always has, and
    loading it restores the vector byte for byte."""
    config = ExperimentConfig()
    params = init_model_params(config)
    bundle = params.to_json()
    digest = hashlib.sha256(json.dumps(bundle).encode()).hexdigest()
    assert digest == "24fca4c653526d0c7affafc20848ab55435e70747d967f529d3c9f30a647a121"
    assert ModelParams.from_json(bundle, config).vector.tobytes() == params.vector.tobytes()


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
    "numeric string": lambda spec: {"shape": spec["shape"], "data": ["1.5"] + spec["data"][1:]},
    "boolean": lambda spec: {"shape": spec["shape"], "data": [True] + spec["data"][1:]},
    "int beyond float": lambda spec: {"shape": spec["shape"], "data": [10**400] + spec["data"][1:]},
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fault=st.sampled_from(sorted(_MALFORMED_ARRAYS)))
def test_params_json_rejects_malformed_arrays(tiny_config, data, fault):
    blob = init_model_params(tiny_config).to_json()
    group = data.draw(st.sampled_from(sorted(blob)))
    name = data.draw(st.sampled_from(sorted(blob[group])))
    blob[group][name] = _MALFORMED_ARRAYS[fault](blob[group][name])
    with pytest.raises(ValueError, match=f"{group}/{name}"):
        ModelParams.from_json(blob, tiny_config)


@pytest.mark.parametrize("blob", [[], "bundle", {"connector": []}, {"connector": None}])
def test_params_json_rejects_malformed_groups(tiny_config, blob):
    with pytest.raises(ValueError):
        ModelParams.from_json(blob, tiny_config)


def _swap_first_groups(blob):
    first, second, *rest = blob.items()
    return dict([second, first, *rest])


def _edit_connector(**arrays):
    """A fault that sets the connector's ``arrays``, dropping those given as None."""
    def edit(blob):
        arrs = {**blob[GROUP_CONNECTOR], **arrays}
        return {**blob, GROUP_CONNECTOR: {k: v for k, v in arrs.items() if v is not None}}
    return edit


# each fault edits a valid bundle of the model; the error names where it is
_OFF_LAYOUT_BUNDLES = {
    "missing group": (lambda blob: {g: a for g, a in blob.items() if g != GROUP_CONNECTOR}, "group connector"),
    "extra group": (lambda blob: {**blob, "decoder": {}}, "group decoder"),
    "group not an object": (lambda blob: {**blob, GROUP_CONNECTOR: []}, "group 'connector'"),
    "swapped group order": (_swap_first_groups, f"group {GROUP_AUX}"),
    "missing array": (_edit_connector(b2=None), "connector/b2"),
    "extra array": (_edit_connector(w3={"shape": [0], "data": []}), "connector/w3"),
    "wrong shape": (_edit_connector(w1={"shape": [2, 2], "data": [0.0] * 4}), "connector/w1"),
}


@pytest.mark.parametrize("fault", sorted(_OFF_LAYOUT_BUNDLES))
def test_params_json_rejects_a_bundle_off_the_model_layout(tiny_config, fault):
    """A bundle loads only into the model of its config: groups, arrays,
    their order and every shape are those of ``init_model_params``."""
    edit, where = _OFF_LAYOUT_BUNDLES[fault]
    blob = edit(init_model_params(tiny_config).to_json())
    with pytest.raises(ValueError, match=re.escape(where)):
        ModelParams.from_json(blob, tiny_config)


# the factored forward against the dense maps: every variant, odd map sizes
# and a non-default pooling grid
ORACLE_CASES = {
    **{name: {"streams": name} for name in STREAMS},
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
    those of every group that stage 2 trains, the query table's in the
    queried rows."""
    g = params.groups

    def kernel(group, name):
        w = g[group][f"{name}_w"]
        return Kernel(*w.shape, w, g[group][f"{name}_b"])

    last_map, aux_maps = toy_encode(sample.scene, cfg.encoder)
    boxes = list(sample.proposals)
    maps = []
    if cfg.uses.primary:
        mixed = conv2d(last_map, kernel(GROUP_PRIMARY, "mix"))
        fp = SimpleFPParams({b: kernel(GROUP_SIMPLEFP, b) for b in _BRANCHES})
        maps += simple_fp(mixed, fp) if cfg.uses.simplefp else [mixed]
    if cfg.uses.auxiliary:
        mixed_aux = [conv2d(m, kernel(GROUP_AUX, f"mix{i}")) for i, m in enumerate(aux_maps)]
        maps.append(aux_fuse(mixed_aux))
    pooled = [roi_align_pooled(m, boxes, cfg.roi) for m in maps]
    features = np.concatenate(pooled, axis=1) + positional_embedding_matrix(boxes, cfg.d_total)
    c = g[GROUP_CONNECTOR]
    conn = Connector(c["w1"], c["b1"], c["w2"], c["b2"])
    queries = g[GROUP_NEW_VOCAB]["queries"][s.query_idx]
    tokens, hidden = connector_forward(conn, features)
    logits = tokens @ queries.T
    loss = float(np.sum(np.maximum(logits, 0.0) - logits * s.targets + np.log1p(np.exp(-np.abs(logits)))))
    d_logits = 1.0 / (1.0 + np.exp(-logits)) - s.targets
    grads = {GROUP_NEW_VOCAB: {"queries": np.zeros_like(g[GROUP_NEW_VOCAB]["queries"])}}
    grads[GROUP_NEW_VOCAB]["queries"][s.query_idx] = d_logits.T @ tokens
    grads[GROUP_CONNECTOR], d_feats = connector_backward(conn, features, d_logits @ queries, hidden)
    cols = np.cumsum([0] + [m.channels for m in maps])
    d_maps = [
        (d_feats[:, c0:c1].T @ pooled_weights(m.height, m.width, boxes, cfg.roi)).reshape(m.shape)
        for m, c0, c1 in zip(maps, cols[:-1], cols[1:])
    ]
    if cfg.uses.simplefp:
        branch_grads, _ = simple_fp_backward(mixed, fp, d_maps[:4])
        grads[GROUP_SIMPLEFP] = {f"{b}_{k}": d for b, ds in branch_grads.items() for k, d in zip("wb", ds)}
    if cfg.uses.auxiliary:
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
    """Pooled-tap features, and a stage-2 step's loss and the gradient of
    every group it trains, the query table's too, equal the dense oracle to
    1e-12 relative; every other group's gradient is exactly zero."""
    cfg = tiny_config.replace(**ORACLE_CASES[variant])
    params = init_model_params(cfg)
    rng = np.random.default_rng(11)
    for arrs in params.groups.values():  # move off the identity mixes
        for arr in arrs.values():
            arr += rng.normal(0.0, 0.1, size=arr.shape)
    for seed in (5, 6):
        sample = make_training_set(1, 0.5, seed=seed, scene_config=cfg.world, proposal_config=cfg.proposals)[0]
        s = prepare_sample(params, sample, cfg)
        loss, features, want = dense_oracle(params, sample, s, cfg)
        bound = training.bind(params, s)
        training._tokens(bound)
        assert_rel_close(bound.features, features, "features")
        got_loss, got = loss_and_grads(training.bind(params, s, 2))
        assert abs(got_loss - loss) <= 1e-12 * abs(loss)
        for group in set(got.groups) - set(want):
            assert not got.vector[got.spans[group]].any(), f"unrequested group {group} is not zero"
        for group, arrs in want.items():
            assert set(got.groups[group]) == set(arrs)
            for name, arr in arrs.items():
                assert_rel_close(got.groups[group][name], arr, f"{group}/{name}")


@pytest.mark.parametrize("variant", sorted(ORACLE_CASES))
def test_prepared_parts_pin_no_larger_array(tiny_config, variant):
    """A run keeps every prepared sample, as prepared and bound for a stage,
    with its frozen blocks as feature columns: each array of its parts owns
    its memory or views an array no larger than itself, and each array its
    binding holds owns its memory or views the sample, the scratch of its
    box count, the parameters or their gradient, so neither keeps a bigger
    one alive."""
    cfg = tiny_config.replace(**ORACLE_CASES[variant])
    params = init_model_params(cfg)
    for sample in make_training_set(3, 0.5, seed=5, scene_config=cfg.world, proposal_config=cfg.proposals):
        s = prepare_sample(params, sample, cfg)
        for grp, arrays in s.parts:
            for a in arrays:
                assert a.base is None or a.base.nbytes <= a.nbytes, (grp, a.shape, a.base.shape)
        kept = [a for _, arrays in s.parts for a in arrays] + [s.epos]
        for stage in (0, 2):
            out = params.zeros_like()
            bound = training.bind(params, s, stage, out)
            scratch = [a for frame, _ in (out if stage else params)._frames.values() for a in frame]
            owners = kept + scratch + [params.vector, out.vector]
            for f, *args in bound.forward + bound.backward:
                for a in args:
                    if isinstance(a, np.ndarray):
                        assert a.base is None or any(np.shares_memory(a, o) for o in owners), (f, a.shape)


@pytest.mark.parametrize("variant", sorted(ORACLE_CASES))
def test_untrained_forward_runs_twice_to_the_same_features(tiny_config, variant):
    """With nothing trained, the forward copies the frozen columns back in
    and adds the box embedding: running it twice gives the same bytes,
    which are those of a binding that trains every group and computes them
    in its forward."""
    cfg = tiny_config.replace(**ORACLE_CASES[variant])
    params = init_model_params(cfg)
    for sample in make_training_set(3, 0.5, seed=8, scene_config=cfg.world, proposal_config=cfg.proposals):
        s = prepare_sample(params, sample, cfg)
        bound = training.bind(params, s)
        assert [op[0] for op in bound.forward] == [np.copyto] * len(s.parts) + [np.add]
        tokens = training._tokens(bound)[0].copy()
        features = bound.features.copy()
        again = training._tokens(bound)[0]
        assert bound.features.tobytes() == features.tobytes() and again.tobytes() == tokens.tobytes()
        live = training.bind(params, s, 2)
        training._tokens(live)
        assert live.features.tobytes() == features.tobytes()
        assert training.region_token_matrix(params, s).tobytes() == tokens.tobytes()


def test_a_served_binding_is_not_overwritten_by_the_next_of_its_box_count(default_config):
    """Two served scenes with one box count share the frame cached on the
    parameters; binding the second leaves the first's forward computing the
    first's tokens, those of ``region_token_matrix``, bitwise."""
    params = init_model_params(default_config)
    by_count = {}
    for ev in make_eval_scenes(default_config.replace(n_eval_scenes=40)):
        by_count.setdefault(len(ev.proposals), []).append(prepare_sample(params, ev, default_config))
    first, second = next(statics for statics in by_count.values() if len(statics) > 1)[:2]
    bound = training.bind(params, first)
    training.bind(params, second)
    tokens = training._tokens(bound)[0].copy()
    assert tokens.tobytes() == training.region_token_matrix(params, first).tobytes()
    assert tokens.tobytes() != training.region_token_matrix(params, second).tobytes()


def test_one_buffer_bound_with_two_parameter_sets_steps_each(tiny_config):
    """A gradient buffer caches its frames per parameter set, so binding
    another set into it steps that set, with its own loss and gradient."""
    s = prepare_sample(init_model_params(tiny_config), training.seeded_training_set(tiny_config)[0], tiny_config)
    out = None
    for seed in (7, 8):
        params = init_model_params(tiny_config.replace(seed=seed))
        out = out or params.zeros_like()
        loss, grads = loss_and_grads(training.bind(params, s, 2, out))
        want_loss, want = loss_and_grads(training.bind(params, s, 2))
        assert repr(loss) == repr(want_loss) and grads.vector.tobytes() == want.vector.tobytes()


def test_prepare_sample_allocates_at_most_512_kib(default_config):
    """After one warm-up, preparing a default-config sample renders into the
    reused canvas: the most it holds at once of new memory stays under
    512 KiB (a render's own buffers are ~1 MiB)."""
    params = init_model_params(default_config)
    samples = make_training_set(6, 0.5, seed=3, scene_config=default_config.world,
                                proposal_config=default_config.proposals)
    prepare_sample(params, samples[0], default_config)
    for sample in samples[1:]:
        tracemalloc.start()
        try:
            prepare_sample(params, sample, default_config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, peak


_DENSE_OPS = (
    "conv2d", "deconv2d", "bilinear_resize", "conv2d_backward", "deconv2d_backward",
    "bilinear_resize_grad", "pooled_apply",
)


def test_dense_ops_stay_off_the_hot_path(tiny_config, monkeypatch):
    """Training and evaluation run on pooled taps: they finish with every
    dense map op raising wherever the package binds it, and with the
    oracle's ``Kernel`` and ``FeatureMap`` unable to be built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense map op or oracle type ran on the training or evaluation path")

    for module in (gridops, roialign, pyramid, training, experiments):
        for name in _DENSE_OPS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for cls in (gridops.Kernel, gridops.FeatureMap):
        monkeypatch.setattr(cls, "__post_init__", forbidden)
    params, _ = train(tiny_config)
    report = evaluate_retrieval(params, make_eval_scenes(tiny_config), tiny_config)
    assert 0.0 <= report.ap_mean <= 1.0
    assert experiments.rejection_stats(params, tiny_config)["n_queries"] > 0
    assert experiments.counting_stats(params, tiny_config)["n_queries"] > 0


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


@pytest.mark.parametrize("level", [None, 0, 2])
def test_non_finite_rendered_map_is_caught_before_pooling(tiny_config, monkeypatch, level):
    """``prepare_sample`` checks every map it pools and
    ``baseline.scene_feature`` the primary map, the one it reads."""
    render = simworld.render

    def poisoned(scene, enc, canvas):
        render(scene, enc, canvas)
        (canvas.primary if level is None else canvas.aux[level])[0, 1, 1] = np.nan  # the next render overwrites it
        return canvas

    monkeypatch.setattr(training, "render", poisoned)
    monkeypatch.setattr(baseline, "render", poisoned)
    scene = make_eval_scenes(tiny_config)[0]
    what = "the primary map" if level is None else "an auxiliary map"
    with pytest.raises(gridops.NonFiniteError, match=what):
        prepare_sample(init_model_params(tiny_config), scene, tiny_config)
    if level is None:
        with pytest.raises(gridops.NonFiniteError, match=what):
            baseline.scene_feature(scene.scene, tiny_config)
    else:
        assert np.isfinite(baseline.scene_feature(scene.scene, tiny_config)).all()


def test_infinite_connector_bias_is_caught_before_the_loss(tiny_config, monkeypatch):
    """tanh saturates, so an infinite connector bias leaves the tokens, and
    so the loss, finite: only the check on the connector parameters sees it."""
    params = init_model_params(tiny_config)
    connector = params.connector  # built on views of the vector, as training's is, before the update
    params.groups[GROUP_CONNECTOR]["b1"][0] = np.inf
    sample = prepare_sample(params, training.seeded_training_set(tiny_config)[0], tiny_config)
    bound = training.bind(params, sample, 1, params.zeros_like())
    with pytest.raises(gridops.NonFiniteError, match="connector parameters must be finite"):
        loss_and_grads(bound)
    assert np.isfinite(connector_forward(connector, bound.features)[0]).all()

    init = training.init_model_params

    def with_infinite_bias(config):
        p = init(config)
        _ = p.connector  # built while finite, so the check of every step is what fails
        p.groups[GROUP_CONNECTOR]["b1"][0] = np.inf
        return p

    monkeypatch.setattr(training, "init_model_params", with_infinite_bias)
    with pytest.raises(TrainingDivergence, match="connector parameters must be finite") as exc_info:
        train(tiny_config)
    assert (exc_info.value.stage, exc_info.value.step, exc_info.value.loss) == (1, 1, None)


def test_finiteness_check_sees_every_non_finite_entry_and_no_huge_finite_one(tiny_config):
    """The step's check passes on the sum of squares and looks entry by
    entry only when that sum is not finite: a NaN or an infinity anywhere
    fails it, and finite entries whose squares overflow pass it."""
    for bad in (np.nan, np.inf, -np.inf):
        for i in (0, 7, 63):
            a = np.zeros((8, 8))
            a.flat[i] = bad
            assert not training._finite(a)
    assert training._finite(np.full(8, 1e200)) and training._finite(np.zeros((0, 8)))

    params = init_model_params(tiny_config)
    params.groups[GROUP_CONNECTOR]["b1"][0] = 1e200  # its square overflows; tanh saturates
    sample = prepare_sample(params, training.seeded_training_set(tiny_config)[0], tiny_config)
    tokens, _ = training._tokens(training.bind(params, sample))
    assert np.isfinite(tokens).all()


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
    report = grad_check(tiny_config.replace(streams="auxiliary_only"))
    assert GROUP_SIMPLEFP not in report.per_group
    assert report.max_rel_error < 1e-4

    report = grad_check(tiny_config.replace(streams="primary_only_no_fp"))
    assert GROUP_AUX not in report.per_group
    assert report.max_rel_error < 1e-4


def test_grad_check_rejects_large_dims(default_config):
    with pytest.raises(ValueError):
        grad_check(default_config.replace(d_llm=128))


# ----------------------------------------------------------- ablation dims

def test_variant_dimension_bookkeeping(tiny_config):
    assert tiny_config.d_p == 8 and tiny_config.d_a == 16 and tiny_config.d_total == 24
    assert tiny_config.replace(streams="primary_only").d_total == 8
    assert tiny_config.replace(streams="primary_only_no_fp").d_total == tiny_config.primary_channels
    assert tiny_config.replace(streams="auxiliary_only").d_total == 16


@pytest.mark.parametrize("streams", sorted(STREAMS))
def test_stream_variant_sets_width_trained_groups_and_round_trips(tiny_config, streams):
    """A variant's parts fill exactly ``d_total`` feature columns (the
    forward writes each of them: one it left as NaN would be refused), they
    are of the groups beyond the connector and the new vocabulary that it
    trains, and its config survives JSON."""
    cfg = tiny_config.replace(streams=streams)
    params = init_model_params(cfg)
    s = prepare_sample(params, training.seeded_training_set(cfg)[0], cfg)
    bound = training.bind(params, s)
    assert bound.features.shape == (len(s.epos), cfg.d_total)
    bound.features.fill(np.nan)
    training._tokens(bound)
    assert {g for g, _ in s.parts} - {None} == training.bind(params, s, 2).trainable - {GROUP_CONNECTOR, GROUP_NEW_VOCAB}
    assert ExperimentConfig.loads(cfg.dumps()) == cfg


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
    params, s = first_sample(ExperimentConfig().replace(n_train_scenes=1))
    stage1, stage2 = (training.bind(params, s, stage).trainable for stage in (1, 2))
    for group, one, two in rows:
        assert (one == "trained", two == "trained") == (group in stage1, group in stage2), group


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
        # each would construct and then fail to allocate: 16 GB of pooling
        # samples, a 448 GB connector layer, a 115 GB pyramid kernel
        ({"roi": {"pool_size": 1000000000}}, "roi.pool_size"),
        ({"d_llm": 1000000000}, "d_llm"),
        ({"fp_channels": 100000000}, "fp_channels"),
        ({"roi": {"sampling_ratio": 1000000000}}, "roi.sampling_ratio"),
    ],
)
def test_config_json_range_errors_name_field(doc, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}\b"):
        ExperimentConfig.from_json(doc)


def test_config_json_float_field_rejects_int_beyond_float():
    # a number is finite as a float: an int this large is not
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
