"""The cached, fused training step and the one-pass pooling weights against
the code they replaced.

``oracle_train`` is ``training.train`` as it was before the parameters
became one vector and before a run cached its frozen work, kept verbatim
but for how it reads the gradient.  Each sample is prepared with the run's
initial parameters, and every step hands ``loss_and_grads`` the sample as
prepared, so every frozen block is contracted again at each step; each
step gets a fresh gradient, and each array of each requested group is
updated on its own (``p -= lr * d``).  ``train``, which turns frozen blocks
into feature columns once per stage, reuses one gradient buffer per stage
and updates one slice, must give bitwise the same losses and checksums.

``prepare_sample`` pools at every size from one pooling-weight pass; each
size's weights must be byte for byte those of a pass of its own.
"""

import numpy as np
import pytest

from regionkit import training
from regionkit.config import ExperimentConfig
from regionkit.gridops import NonFiniteError
from regionkit.roialign import pooled_axis_weights
from regionkit.simworld import EncoderConfig, SceneConfig, make_training_set
from regionkit.training import (
    FreezeSchedule,
    TrainingDivergence,
    TrainingLog,
    init_model_params,
    loss_and_grads,
    prepare_sample,
    seeded_training_set,
)

VARIANTS = {
    "hybrid": {},
    "primary_only": {"use_auxiliary": False},
    "primary_only_no_fp": {"use_auxiliary": False, "use_simplefp": False},
    "auxiliary_only": {"use_primary": False, "use_simplefp": False},
    "hybrid_no_fp": {"use_simplefp": False},
}


def oracle_train(config, dataset=None):
    if dataset is None:
        dataset = seeded_training_set(config)
    if not dataset:
        raise ValueError("train needs at least one training sample")
    params = init_model_params(config)
    statics = [prepare_sample(params, sample, config) for sample in dataset]
    schedule = FreezeSchedule.from_config(config)
    log = TrainingLog()
    log.checksums["init"] = params.checksums()

    step_counter = 0
    for stage, steps, lr in config.stages:
        trainable = schedule.trainable(stage)
        for _ in range(steps):
            s = statics[step_counter % len(statics)]
            step_counter += 1
            try:
                loss, grads = loss_and_grads(params, s, trainable)
            except NonFiniteError as exc:
                raise TrainingDivergence(stage, step_counter, cause=str(exc)) from exc
            if not np.isfinite(loss):
                raise TrainingDivergence(stage, step_counter, loss)
            # the gradient as the per-array loop received it: the requested groups
            grads = {grp: grads.groups[grp] for grp in trainable}
            for grp, arrs in grads.items():
                for name, d in arrs.items():
                    params.groups[grp][name] -= lr * d
            log.losses[f"stage{stage}"].append(loss)
        log.checksums[f"after_stage{stage}"] = params.checksums()
    return params, log


def assert_same_run(got, want):
    (got_params, got_log), (want_params, want_log) = got, want
    assert repr(got_log.losses) == repr(want_log.losses)
    assert got_log.checksums == want_log.checksums
    assert got_params.vector.tobytes() == want_params.vector.tobytes()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fused_update_equals_per_array_update(tiny_config, variant):
    cfg = tiny_config.replace(**VARIANTS[variant])
    assert_same_run(training.train(cfg), oracle_train(cfg))


def test_fused_update_equals_per_array_update_at_default(default_config, trained_default):
    assert_same_run(trained_default, oracle_train(default_config))


def test_reused_gradient_buffer_on_samples_without_queries(tiny_config):
    """A sample with no queries has a zero gradient: the step before it must
    not leak through the reused buffer."""
    cfg = tiny_config.replace(
        world=SceneConfig(n_categories=4, min_objects=0, max_objects=2), rejection_fraction=0.0, n_train_scenes=40
    )
    dataset = seeded_training_set(cfg)
    assert sum(not sample.queries for sample in dataset) >= 10
    assert_same_run(training.train(cfg, dataset), oracle_train(cfg, dataset))


def test_frozen_work_runs_once_per_run_or_stage(tiny_config, monkeypatch):
    """The primary mix is built once per sample per run, outside every step,
    and no step builds a mix it does not train: stage-1 steps build none,
    stage-2 steps only the four aux mixes."""
    primary_mixes = 0
    in_step = False
    step_mixes = []

    def counting_step(*args, _original=training.loss_and_grads, **kwargs):
        nonlocal in_step
        step_mixes.append([])
        in_step = True
        try:
            return _original(*args, **kwargs)
        finally:
            in_step = False

    def counting_mix(group, name, _original=training._mix):
        nonlocal primary_mixes
        primary_mixes += name == "mix"
        if in_step:
            step_mixes[-1].append(name)
        return _original(group, name)

    monkeypatch.setattr(training, "loss_and_grads", counting_step)
    monkeypatch.setattr(training, "_mix", counting_mix)
    training.train(tiny_config)
    assert primary_mixes == tiny_config.n_train_scenes
    assert step_mixes == (
        [[]] * tiny_config.stage1_steps + [[f"mix{i}" for i in range(4)]] * tiny_config.stage2_steps
    )


ENCODERS = {
    "default": EncoderConfig(),
    # 4 x primary (36) is not the aux fuse size (40), so nothing is shared
    "primary_9_aux_40": EncoderConfig(primary_resolution=9, aux_base_resolution=40),
    "primary_8": EncoderConfig(primary_resolution=8),
}


def expected_sizes(cfg):
    p, sizes = cfg.encoder.primary_resolution, set()
    if cfg.use_simplefp:
        sizes |= {((p + 1) // 2,) * 2, (p, p), (2 * p, 2 * p), (4 * p, 4 * p)}
    elif cfg.use_primary:
        sizes.add((p, p))
    if cfg.use_auxiliary:
        sizes.add((cfg.encoder.aux_base_resolution,) * 2)
    return sizes


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("encoder", sorted(ENCODERS))
def test_one_pass_pooling_weights_equal_per_size_weights(monkeypatch, encoder, variant):
    cfg = ExperimentConfig(seed=7, encoder=ENCODERS[encoder], **VARIANTS[variant])
    tables = []

    def recording(sizes, boxes, roi):
        table = one_pass(sizes, boxes, roi)
        tables.append((boxes, roi, table))
        return table

    one_pass = training.pooled_axis_weight_table
    monkeypatch.setattr(training, "pooled_axis_weight_table", recording)
    sample = make_training_set(1, 0.5, seed=5, scene_config=cfg.world, proposal_config=cfg.proposals)[0]
    prepare_sample(init_model_params(cfg), sample, cfg)
    assert len(tables) == 1
    boxes, roi, table = tables[0]
    assert set(table) == expected_sizes(cfg)
    for (h, w), (a_y, a_x) in table.items():
        want_y, want_x = pooled_axis_weights(h, w, boxes, roi)
        assert a_y.shape == want_y.shape and a_y.tobytes() == want_y.tobytes(), (h, w)
        assert a_x.shape == want_x.shape and a_x.tobytes() == want_x.tobytes(), (h, w)
