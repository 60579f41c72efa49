"""The cached, fused training step and the one-pass pooling weights against
the code they replaced.

``oracle_train`` is ``training.train`` as it was before the parameters
became one vector and before a run cached its frozen work, kept verbatim
but for how it reads the gradient and binds a sample for its stage.  Each sample is prepared with the run's
initial parameters, and every step gets the sample as prepared, so
every frozen block is contracted again at each step; each step gets a
fresh gradient, and each array of each requested group is updated on its
own (``p -= lr * d``).  ``train``, which turns frozen blocks
into feature columns once per stage, reuses one gradient buffer per stage
and updates one slice, must give bitwise the same losses and checksums.

``oracle_loss_and_grads`` is ``training.loss_and_grads`` as it was
before each kernel and its bias became one block of the parameter vector,
kept verbatim but for returning its gradient as named arrays: every step
builds each effective kernel from the named (O, C, kh, kw) arrays with
``_mix`` and ``simple_fp_kernels``, takes each kernel gradient back to
them with ``simple_fp_kernels_backward``, and copies every gradient into
the buffer.  SimpleFP's up4 level is one built kernel there, fed up4's
taps in the single-block order of that time (``built_up4_taps``).
``loss_and_grads``, which reads and writes the blocks in place and runs
up4 as its two stored blocks, must give the same loss repr and the same
bytes in every named gradient array without SimpleFP; with it the
summation order differs, and they must agree to 1e-12 relative.

``forward_loss_and_grads`` is ``training.loss_and_grads`` as it was
before a stage bound each sample once, kept verbatim: every step applies
each kernel block to its taps on its own, concatenates the columns, adds
the positional embedding and gathers up4_b's taps anew.  The bound step,
which runs a fixed list of products into views bound at the stage's
start, must give the same loss repr and the same bytes in every trained
group's gradient.  The oracle's step products are ``@`` and its query
gradient ``np.add.at``; the bound step's are ``np.dot`` and a write into
the query rows, so the cases include one proposal with one query.  A
sample queries each category once; one that repeats a query is refused.

The oracles read the four aux tap blocks one by one, as ``prepare_sample``
stored them before it stacked them (``unstacked``).

``prepare_sample`` pools at every size from one pooling-weight pass; each
size's weights must be byte for byte those of a pass of its own.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from regionkit import training
from regionkit.config import STREAMS, ExperimentConfig
from regionkit.gridops import NonFiniteError
from regionkit.pyramid import BRANCHES
from regionkit.regionenc import Connector, connector_backward, connector_forward
from regionkit.roialign import apply_taps, pooled_axis_weight_table
from regionkit.simworld import EncoderConfig, SceneConfig, make_training_set
from regionkit.training import (
    GROUP_AUX,
    GROUP_CONNECTOR,
    GROUP_NEW_VOCAB,
    GROUP_PRIMARY,
    GROUP_SIMPLEFP,
    ModelParams,
    SampleStatic,
    TrainingDivergence,
    TrainingLog,
    init_model_params,
    loss_and_grads,
    prepare_sample,
    seeded_training_set,
)

def oracle_schedule(config):
    """{stage: the groups it trains}, as ``FreezeSchedule.from_config``
    stated them from the config before a binding worked them out from its
    sample's parts; stage 0 serves and trains none."""
    base = {GROUP_CONNECTOR, GROUP_NEW_VOCAB}
    if config.uses.simplefp:
        base.add(GROUP_SIMPLEFP)
    stage2 = set(base)
    if config.uses.auxiliary:
        stage2.add(GROUP_AUX)
    return {0: frozenset(), 1: frozenset(base), 2: frozenset(stage2)}


@pytest.mark.parametrize("variant", sorted(STREAMS))
def test_a_binding_trains_the_groups_of_the_schedule(tiny_config, variant):
    cfg = tiny_config.replace(streams=variant)
    params = init_model_params(cfg)
    s = prepare_sample(params, seeded_training_set(cfg)[0], cfg)
    for stage, groups in oracle_schedule(cfg).items():
        assert training.bind(params, s, stage).trainable == groups, stage


def oracle_train(config, dataset=None):
    if dataset is None:
        dataset = seeded_training_set(config)
    if not dataset:
        raise ValueError("train needs at least one training sample")
    params = init_model_params(config)
    statics = [prepare_sample(params, sample, config) for sample in dataset]
    schedule = oracle_schedule(config)
    log = TrainingLog()
    log.checksums["init"] = params.checksums()

    step_counter = 0
    for stage, steps, lr in config.stages:
        trainable = schedule[stage]
        for _ in range(steps):
            s = statics[step_counter % len(statics)]
            step_counter += 1
            try:
                loss, grads = loss_and_grads(training.bind(params, s, stage))
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


def _mix(group, name):
    return np.concatenate([group[f"{name}_w"][:, :, 0, 0], group[f"{name}_b"][:, None]], axis=1)


def _tap_major(w):
    return w.transpose(0, 2, 3, 1)


def oracle_simple_fp_kernels(fp):
    o = fp["same_b"].shape[0]
    bias = {b: fp[f"{b}_b"][:, None] for b in ("down", "same", "up2", "up4_b")}
    down = _tap_major(fp["down_w"]).reshape(o, -1)
    same = fp["same_w"][:, :, 0, 0]
    up2 = _tap_major(fp["up2_w"]).reshape(o, -1)
    mid = _tap_major(fp["up4_a_w"])  # (F, a, b, C)
    outer = _tap_major(fp["up4_b_w"]).reshape(4 * o, -1)  # rows (o, c, d)
    up4 = (outer @ mid.reshape(mid.shape[0], -1)).reshape(o, 2, 2, 2, 2, -1)
    up4 = up4.transpose(0, 3, 1, 4, 2, 5).reshape(o, -1)  # columns (a, c, b, d, C)
    mid_bias = (outer @ fp["up4_a_b"]).reshape(o, 4)  # columns (c, d)
    return [
        np.concatenate([down, bias["down"]], axis=1),
        np.concatenate([same, bias["same"]], axis=1),
        np.concatenate([up2, bias["up2"]], axis=1),
        np.concatenate([up4, mid_bias, bias["up4_b"]], axis=1),
    ]


def oracle_simple_fp_kernels_backward(fp, d_kernels):
    d_down, d_same, d_up2, d_up4 = d_kernels
    o = fp["same_w"].shape[0]
    grads = {"down_b": d_down[:, -1], "same_b": d_same[:, -1], "up2_b": d_up2[:, -1]}

    mid = _tap_major(fp["up4_a_w"])  # (F, a, b, C)
    outer = _tap_major(fp["up4_b_w"]).reshape(4 * o, -1)
    d_up4, d_mid_bias, grads["up4_b_b"] = d_up4[:, :-5], d_up4[:, -5:-1].reshape(-1), d_up4[:, -1]
    d_prod = d_up4.reshape(o, 2, 2, 2, 2, -1).transpose(0, 2, 4, 1, 3, 5).reshape(4 * o, -1)
    d_outer = d_prod @ mid.reshape(mid.shape[0], -1).T + np.outer(d_mid_bias, fp["up4_a_b"])
    grads["up4_b_w"] = d_outer.reshape(o, 2, 2, -1).transpose(0, 3, 1, 2)
    grads["up4_a_b"] = outer.T @ d_mid_bias

    # each branch's effective kernel is its weights in tap-major order
    d_branch = {"down": d_down[:, :-1], "same": d_same[:, :-1], "up2": d_up2[:, :-1], "up4_a": outer.T @ d_prod}
    for branch, d_k in d_branch.items():
        n_out, _, kh, kw = fp[f"{branch}_w"].shape
        grads[f"{branch}_w"] = d_k.reshape(n_out, kh, kw, -1).transpose(0, 3, 1, 2)
    return grads


def built_up4_taps(levels):
    """SimpleFP's four tap blocks as the built up4 kernel reads them, from
    the five of ``simple_fp_taps``: up4's columns (a, c, b, d, C), then the
    parity sums R[c, d], then the row sum S."""
    down, same, up2, block, total = levels
    n = len(block)
    taps = block[:, :, :-1].reshape(n, 2, 2, 2, 2, -1).transpose(0, 3, 1, 4, 2, 5).reshape(n, -1)
    return [down, same, up2, np.concatenate([taps, block[:, :, -1], total], axis=1)]


def unstacked(s):
    """``s`` with its (N, 4, J) aux tap block as the four (N, J) blocks."""
    parts = [(grp, list(a[0].transpose(1, 0, 2)) if grp == GROUP_AUX else a) for grp, a in s.parts]
    return dataclasses.replace(s, parts=parts)


def _oracle_kernels(params, group):
    g = params.groups[group]
    if group == GROUP_SIMPLEFP:
        return oracle_simple_fp_kernels(g)
    return [_mix(g, f"mix{i}") for i in range(4)]


def oracle_loss_and_grads(params, s, trainable):
    """(loss, {group: {name: gradient}}) for every group of ``params``."""
    # assign as it was: each requested group's arrays by name, all others zero
    grads = {grp: {k: np.zeros_like(a) for k, a in arrs.items()} for grp, arrs in params.groups.items()}

    def assign(group, arrays):
        for k in grads[group]:
            grads[group][k] = np.asarray(arrays[k]).reshape(grads[group][k].shape)

    if s.query_idx.size == 0:
        return 0.0, grads
    g = params.groups
    columns, cache_live, width = [], [], 0
    for grp, arrays in unstacked(s).parts:
        if grp == GROUP_SIMPLEFP:
            arrays = built_up4_taps(arrays)
        if grp is not None:
            kernels = _oracle_kernels(params, grp)
            cache_live.append((grp, arrays, kernels, width))
            arrays = [apply_taps(t, k) for t, k in zip(arrays, kernels)]
        columns += arrays
        width += sum(a.shape[1] for a in arrays)
    features = np.concatenate(columns, axis=1) + s.epos
    conn = params.connector
    tokens, hidden = connector_forward(conn, features)
    queries = g[GROUP_NEW_VOCAB]["queries"][s.query_idx]
    logits = tokens @ queries.T
    loss = float(np.sum(training.bce_with_logits(logits, s.targets)))
    if not trainable:
        return loss, grads

    probs = 1.0 / (1.0 + np.exp(-logits))
    d_logits = probs - s.targets

    if GROUP_NEW_VOCAB in trainable:
        dq = np.zeros_like(g[GROUP_NEW_VOCAB]["queries"])
        np.add.at(dq, s.query_idx, d_logits.T @ tokens)
        assign(GROUP_NEW_VOCAB, {"queries": dq})

    live = {grp for grp, *_ in cache_live}
    block_path = bool(live & trainable)
    if block_path or GROUP_CONNECTOR in trainable:
        d_tokens = d_logits @ queries
        conn_grads, d_feats = connector_backward(conn, features, d_tokens, hidden=hidden, input_grad=block_path)
        if GROUP_CONNECTOR in trainable:
            assign(GROUP_CONNECTOR, conn_grads)
        for grp, taps, kernels, end in cache_live:
            if grp not in trainable:
                continue
            d_kernels = []
            for t, k in zip(taps, kernels):
                start, end = end, end + k.shape[0]
                d_kernels.append(d_feats[:, start:end].T @ t)
            if grp == GROUP_SIMPLEFP:
                assign(GROUP_SIMPLEFP, oracle_simple_fp_kernels_backward(g[GROUP_SIMPLEFP], d_kernels))
            else:  # each (out, in + 1) aux mix as its weight and bias
                d_aux = {}
                for i, d in enumerate(d_kernels):
                    d_aux[f"mix{i}_w"], d_aux[f"mix{i}_b"] = d[:, :-1, None, None], d[:, -1]
                assign(GROUP_AUX, d_aux)
    return loss, grads


# ``training.loss_and_grads`` as it was before a stage bound its samples,
# verbatim: every call applies each block with ``apply_taps``, concatenates
# the columns and gathers the taps of up4_b anew

# the kernel blocks of a group, in the order of its tap blocks
_BLOCKS = {GROUP_AUX: ("mix0", "mix1", "mix2", "mix3"), GROUP_SIMPLEFP: BRANCHES}


def _apply(params: ModelParams, group: str, arrays: list[np.ndarray]) -> tuple[list, list]:
    """(the taps each kernel block of ``group`` multiplies, the feature
    columns): each block applied to its tap block.  A 3-D (N, R, K) tap
    block is an inner branch: its (N, R, O) output, flattened per box and
    followed by the next array, is the next block's taps."""
    taps, columns = [], []
    for t, x in zip(arrays, _BLOCKS[group]):
        if taps and taps[-1].ndim == 3:
            t = np.concatenate([columns.pop().reshape(len(t), -1), t], axis=1)
        taps.append(t)
        columns.append(apply_taps(t, params.kernel(group, x)))
    return taps, columns


@dataclass
class _ForwardCache:
    # per part with tap blocks: its group, the taps of each kernel block and
    # its first feature column
    live: list[tuple[str, list[np.ndarray], int]]
    connector: Connector
    features: np.ndarray
    hidden: np.ndarray  # the connector's tanh activations
    tokens: np.ndarray


def _forward(params: ModelParams, s: SampleStatic) -> _ForwardCache:
    """Pooled features as each tap block contracted with its kernel block,
    beside the feature columns, then the connector.  No feature map or
    kernel is built."""
    columns, live, width = [], [], 0
    for grp, arrays in s.parts:
        if grp is not None:
            taps, arrays = _apply(params, grp, arrays)
            live.append((grp, taps, width))
        columns += arrays
        width += sum(a.shape[1] for a in arrays)
    features = np.concatenate(columns, axis=1) + s.epos
    if not np.isfinite(features).all():
        n, d = features.shape
        raise NonFiniteError(f"{n}x{d} region feature matrix contains non-finite values")
    if not np.isfinite(params.vector[params.spans[GROUP_CONNECTOR]]).all():
        raise NonFiniteError("connector parameters must be finite")
    conn = params.connector
    tokens, hidden = connector_forward(conn, features)
    return _ForwardCache(live, conn, features, hidden, tokens)


def forward_loss_and_grads(
    params: ModelParams,
    s: SampleStatic,
    trainable: frozenset | set = frozenset(),
    out: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Loss on one sample plus analytic gradients for the requested groups.

    The loss is binary cross-entropy per (region, query) pair, summed over
    all pairs of the sample.  The gradient has the layout of ``params``;
    a group that was not requested, or has no path into this config's
    loss, is exactly zero.  The primary encoder never trains and has a
    path, so requesting it raises.

    ``out`` is a gradient buffer to write into and return in place of a new
    one: the slice of every requested group is overwritten, and every other
    slice is left as it was.
    """
    if GROUP_PRIMARY in trainable:
        raise ValueError(f"{GROUP_PRIMARY} never trains: no gradient is computed for it")
    grads = params.zeros_like() if out is None else out
    if s.query_idx.size == 0:
        for grp in trainable:
            grads.vector[grads.spans[grp]] = 0.0
        return 0.0, grads
    cache = _forward(params, s)
    queries = params.groups[GROUP_NEW_VOCAB]["queries"][s.query_idx]
    logits = cache.tokens @ queries.T
    loss = float(np.sum(training.bce_with_logits(logits, s.targets)))
    if not trainable:
        return loss, grads

    probs = 1.0 / (1.0 + np.exp(-logits))
    d_logits = probs - s.targets

    if GROUP_NEW_VOCAB in trainable:
        dq = grads.groups[GROUP_NEW_VOCAB]["queries"]
        dq[...] = 0.0
        np.add.at(dq, s.query_idx, d_logits.T @ cache.tokens)

    live = {grp for grp, *_ in cache.live}
    for grp in trainable - live - {GROUP_CONNECTOR, GROUP_NEW_VOCAB}:  # no path into the loss
        grads.vector[grads.spans[grp]] = 0.0
    block_path = bool(live & trainable)
    if block_path or GROUP_CONNECTOR in trainable:
        d_tokens = d_logits @ queries
        _, d_feats = connector_backward(
            cache.connector, cache.features, d_tokens, hidden=cache.hidden, input_grad=block_path,
            out=grads.groups[GROUP_CONNECTOR] if GROUP_CONNECTOR in trainable else None,
        )
        # a block's kernel gradient is the gradient on its output against its
        # taps, written into the gradient's block of that kernel; an inner
        # branch's output gradient is that on the leading taps of the next block
        for grp, taps, col in cache.live:
            if grp not in trainable:
                continue
            names = _BLOCKS[grp]
            for i, t in enumerate(taps):
                d_kernel = grads.kernel(grp, names[i])
                o = d_kernel.shape[0]
                if t.ndim == 3:
                    outer = params.kernel(grp, names[i + 1])
                    d = (d_feats[:, col : col + outer.shape[0]] @ outer[:, : t.shape[1] * o]).reshape(-1, o)
                    t = t.reshape(-1, t.shape[2])
                else:
                    d, col = d_feats[:, col : col + o], col + o
                np.matmul(d.T, t, out=d_kernel)
    return loss, grads


def assert_same_step(params, s, stage, trainable, exact):
    """A step of ``stage`` and the oracle's of the groups it trains: bitwise
    equal when ``exact``, else within 1e-12 of each array's (and the
    loss's) largest magnitude."""
    loss, grads = loss_and_grads(training.bind(params, s, stage))
    want_loss, want = oracle_loss_and_grads(params, s, trainable)
    if exact:
        assert repr(loss) == repr(want_loss)
    else:
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert set(grads.groups) == set(want)
    for grp, arrs in want.items():
        assert list(grads.groups[grp]) == list(arrs), grp
        for name, d in arrs.items():
            got = grads.groups[grp][name]
            assert got.shape == d.shape, (grp, name)
            if exact:
                assert np.ascontiguousarray(got).tobytes() == d.tobytes(), (grp, name)
            else:
                assert np.max(np.abs(got - d), initial=0.0) <= 1e-12 * np.max(np.abs(d), initial=0.0), (grp, name)


def perturbed_params(config):
    """The initial parameters with the aux mixes moved off identity, so their
    weights and biases all reach the loss."""
    params = init_model_params(config)
    rng = np.random.default_rng(11)
    for arr in params.groups[GROUP_AUX].values():
        arr += rng.normal(0.0, 0.1, size=arr.shape)
    return params


def test_step_in_place_equals_step_through_named_arrays_at_default(default_config):
    params = perturbed_params(default_config)
    samples = seeded_training_set(default_config)[:60]
    schedule = oracle_schedule(default_config)
    for sample in samples:
        s = prepare_sample(params, sample, default_config)
        for stage in (1, 2):
            assert_same_step(params, s, stage, schedule[stage], exact=False)


@pytest.mark.parametrize("variant", sorted(STREAMS))
def test_step_in_place_equals_step_through_named_arrays(tiny_config, variant):
    cfg = tiny_config.replace(streams=variant)
    params = perturbed_params(cfg)
    schedule = oracle_schedule(cfg)
    for sample in seeded_training_set(cfg):
        s = prepare_sample(params, sample, cfg)
        for stage in (1, 2):
            assert_same_step(params, s, stage, schedule[stage], exact=not cfg.uses.simplefp)


def assert_same_run(got, want):
    (got_params, got_log), (want_params, want_log) = got, want
    assert repr(got_log.losses) == repr(want_log.losses)
    assert got_log.checksums == want_log.checksums
    assert got_params.vector.tobytes() == want_params.vector.tobytes()


@pytest.mark.parametrize("variant", sorted(STREAMS))
def test_fused_update_equals_per_array_update(tiny_config, variant):
    cfg = tiny_config.replace(streams=variant)
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
    """The primary mix is read once per sample per run, outside every step,
    and each stage binds each sample once, reading every kernel then: no
    step reads a kernel.  Every kernel a bound step multiplies is a view of
    the parameter vector, and none is one a stage does not train: stage 1
    multiplies SimpleFP's five blocks, stage 2 those and the four aux mixes
    as one stacked view of their span."""
    primary_reads = 0
    in_step = False
    step_reads, bound_kernels = [], []

    def counting_step(*args, _original=training.loss_and_grads, **kwargs):
        nonlocal in_step
        step_reads.append(0)
        in_step = True
        try:
            return _original(*args, **kwargs)
        finally:
            in_step = False

    def counting_kernel(self, group, x, _original=training.ModelParams.kernel):
        nonlocal primary_reads
        primary_reads += (group, x) == (GROUP_PRIMARY, "mix")
        if in_step:
            step_reads[-1] += 1
        return _original(self, group, x)

    def recording_bind(params, s, stage, *args, _original=training.bind):
        bound = _original(params, s, stage, *args)
        kernels = [op[2] for op in bound.forward if op[0] is np.matmul]
        groups = [[g for g, span in params.spans.items() if np.shares_memory(k, params.vector[span])] for k in kernels]
        bound_kernels.append((bound.trainable, [g[0] if len(g) == 1 else g for g in groups]))
        return bound

    monkeypatch.setattr(training, "loss_and_grads", counting_step)
    monkeypatch.setattr(training.ModelParams, "kernel", counting_kernel)
    monkeypatch.setattr(training, "bind", recording_bind)
    training.train(tiny_config)
    stage1, stage2 = tiny_config.stage1_steps, tiny_config.stage2_steps
    schedule = oracle_schedule(tiny_config)
    assert primary_reads == tiny_config.n_train_scenes
    assert step_reads == [0] * (stage1 + stage2)
    assert bound_kernels == (
        [(schedule[1], [GROUP_SIMPLEFP] * 5)] * tiny_config.n_train_scenes
        + [(schedule[2], [GROUP_SIMPLEFP] * 5 + [GROUP_AUX])] * tiny_config.n_train_scenes
    )


def assert_bound_steps_equal_forward_steps(cfg, samples):
    """Every sample, bound for each stage to one gradient buffer as
    ``train`` binds them, gives the loss repr and the gradient bytes of
    ``forward_loss_and_grads`` in every trained group."""
    params = perturbed_params(cfg)
    statics = [prepare_sample(params, sample, cfg) for sample in samples]
    for stage in (1, 2):
        trainable = oracle_schedule(cfg)[stage]
        out = params.zeros_like()
        bound = [training.bind(params, s, stage, out) for s in statics]
        for i, (s, b) in enumerate(zip(statics, bound)):
            loss, grads = loss_and_grads(b)
            want_loss, want = forward_loss_and_grads(params, unstacked(s), trainable)
            assert repr(loss) == repr(want_loss), (stage, i)
            for grp in trainable:
                got, expected = grads.vector[grads.spans[grp]], want.vector[want.spans[grp]]
                assert got.tobytes() == expected.tobytes(), (stage, i, grp)


def one_box_one_query(cfg):
    """A sample of ``cfg``'s training set cut to its first proposal and
    first query: the step's products at N = 1 and Q = 1."""
    sample = next(s for s in seeded_training_set(cfg) if s.queries)
    return dataclasses.replace(
        sample, proposals=sample.proposals[:1], queries=sample.queries[:1], targets=sample.targets[:1, :1]
    )


@pytest.mark.parametrize("variant", sorted(STREAMS))
def test_bound_step_equals_unbound_forward_step(default_config, tiny_config, variant):
    """Every sample of the seed-7 training set, and a tiny-config sample
    with one proposal and one query, bound as ``train`` binds them, give
    the loss repr and the gradient bytes of ``forward_loss_and_grads``,
    whose products are ``@`` and whose query gradient is ``np.add.at``."""
    cfg = default_config.replace(streams=variant)
    assert_bound_steps_equal_forward_steps(cfg, seeded_training_set(cfg))
    tiny = tiny_config.replace(streams=variant)
    assert_bound_steps_equal_forward_steps(tiny, [one_box_one_query(tiny)])


def test_a_sample_that_repeats_a_query_is_refused(tiny_config):
    """A step writes each query's gradient into its row of the table, so a
    sample queries each category once; querying one twice is refused at
    construction, naming the category."""
    sample = next(s for s in seeded_training_set(tiny_config) if s.queries)
    with pytest.raises(ValueError, match=f"but {sample.queries[0]!r} twice"):
        dataclasses.replace(
            sample, queries=sample.queries + sample.queries[:1],
            targets=np.concatenate([sample.targets, sample.targets[:, :1]], axis=1),
        )


ENCODERS = {
    "default": EncoderConfig(),
    # 4 x primary (36) is not the aux fuse size (40), so nothing is shared
    "primary_9_aux_40": EncoderConfig(primary_resolution=9, aux_base_resolution=40),
    "primary_8": EncoderConfig(primary_resolution=8),
}


def expected_sizes(cfg):
    p, sizes = cfg.encoder.primary_resolution, set()
    if cfg.uses.simplefp:
        sizes |= {((p + 1) // 2,) * 2, (p, p), (2 * p, 2 * p), (4 * p, 4 * p)}
    elif cfg.uses.primary:
        sizes.add((p, p))
    if cfg.uses.auxiliary:
        sizes.add((cfg.encoder.aux_base_resolution,) * 2)
    return sizes


@pytest.mark.parametrize("variant", sorted(STREAMS))
@pytest.mark.parametrize("encoder", sorted(ENCODERS))
def test_one_pass_pooling_weights_equal_per_size_weights(monkeypatch, encoder, variant):
    cfg = ExperimentConfig(seed=7, encoder=ENCODERS[encoder], streams=variant)
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
        want_y, want_x = pooled_axis_weight_table([(h, w)], boxes, roi)[h, w]
        assert a_y.shape == want_y.shape and a_y.tobytes() == want_y.tobytes(), (h, w)
        assert a_x.shape == want_x.shape and a_x.tobytes() == want_x.tobytes(), (h, w)
