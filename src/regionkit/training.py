"""Two-stage training of the region-retrieval head.

Parameters live in named groups so the freeze schedule can be stated and
audited exactly:

* ``primary_encoder`` — a 1x1 channel-mixing kernel on the primary map,
  identity-initialized; never trained (it stands in for the pretrained
  primary tower), so no gradient is ever computed for it.
* ``aux_encoder`` — per-level 1x1 kernels on the auxiliary maps,
  identity-initialized; frozen in stage 1, unfrozen in stage 2.
* ``simplefp`` — the pyramid branch kernels; trained in both stages.
* ``connector`` — the feature-to-token projection; trained in both stages.
* ``new_token_embeddings`` — the per-category query vectors the retrieval
  head scores against (the newly added protocol symbols); trained in both
  stages.
* ``original_embeddings`` — a fixed table standing in for the preexisting
  text vocabulary; never trained.

Stage 1 aligns regions to token space (lr 1e-3 by default); stage 2
finetunes with the auxiliary group unfrozen (lr 1e-5).  The loss is
per-(region, query) binary cross-entropy against the synthetic-world
assignment targets, summed over pairs.  The optimizer is plain gradient
descent so every gradient stays auditable, and everything is deterministic
given the config seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .gridops import NonFiniteError
from .pyramid import (
    SimpleFPParams,
    aux_fuse_pooled,
    aux_fuse_pooled_backward,
    aux_fuse_taps,
    simple_fp_pooled,
    simple_fp_pooled_backward,
    simple_fp_taps,
)
from .regionenc import Connector, connector_backward, connector_forward, positional_embedding_matrix
from .roialign import apply_taps, pooled_axis_weights, pooled_taps
from .simworld import TrainingSample, make_training_set, toy_encode, vocabulary

__all__ = [
    "GROUP_PRIMARY",
    "GROUP_AUX",
    "GROUP_SIMPLEFP",
    "GROUP_CONNECTOR",
    "GROUP_NEW_VOCAB",
    "GROUP_ORIG_VOCAB",
    "ModelParams",
    "FreezeSchedule",
    "TrainingLog",
    "TrainingDivergence",
    "SampleStatic",
    "bce_with_logits",
    "seeded_training_set",
    "init_model_params",
    "prepare_sample",
    "loss_and_grads",
    "region_token_matrix",
    "train",
    "grad_check",
]

GROUP_PRIMARY = "primary_encoder"
GROUP_AUX = "aux_encoder"
GROUP_SIMPLEFP = "simplefp"
GROUP_CONNECTOR = "connector"
GROUP_NEW_VOCAB = "new_token_embeddings"
GROUP_ORIG_VOCAB = "original_embeddings"


class TrainingDivergence(RuntimeError):
    """Raised when the loss, or the region features or connector on the way to it,
    stops being finite.  ``loss`` is None when no loss was computed."""

    def __init__(self, stage: int, step: int, loss: float | None = None, cause: str | None = None):
        what = f"non-finite loss {loss!r}" if cause is None else cause
        super().__init__(f"{what} at stage {stage} step {step}")
        self.stage = stage
        self.step = step
        self.loss = loss


@dataclass
class ModelParams:
    """All trainable state, as named arrays in named groups."""

    groups: dict[str, dict[str, np.ndarray]]

    def checksum(self, group: str) -> str:
        h = hashlib.sha256()
        for name in sorted(self.groups[group]):
            arr = self.groups[group][name]
            h.update(name.encode())
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def checksums(self) -> dict[str, str]:
        return {g: self.checksum(g) for g in sorted(self.groups)}

    def to_json(self) -> dict:
        return {
            g: {k: {"shape": list(v.shape), "data": v.ravel().tolist()} for k, v in arrs.items()}
            for g, arrs in self.groups.items()
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelParams":
        """Inverse of :meth:`to_json`; malformed input raises ValueError
        naming the group and array."""
        if not isinstance(obj, dict):
            raise ValueError("a parameter bundle must be an object of groups")
        groups = {}
        for g, arrs in obj.items():
            if not isinstance(arrs, dict):
                raise ValueError(f"parameter group {g!r} must be an object of arrays")
            groups[g] = {k: _array_from_json(spec, f"{g}/{k}") for k, spec in arrs.items()}
        return cls(groups)


def _array_from_json(spec, name: str) -> np.ndarray:
    if not isinstance(spec, dict) or "shape" not in spec or "data" not in spec:
        raise ValueError(f"array {name} must be an object with 'shape' and 'data'")
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"array {name}: shape must be a list of non-negative integers")
    try:
        data = np.asarray(spec["data"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"array {name}: data must be a flat list of numbers") from None
    if data.ndim != 1 or not np.all(np.isfinite(data)):
        raise ValueError(f"array {name}: data must be a flat list of finite numbers")
    if data.size != int(np.prod(shape)):
        raise ValueError(f"array {name}: {data.size} values do not fill shape {shape}")
    return data.reshape(shape)


@dataclass(frozen=True)
class FreezeSchedule:
    """Trainable group names per stage; everything else is frozen."""

    stage1: frozenset
    stage2: frozenset

    def __post_init__(self):
        never = sorted((self.stage1 | self.stage2) & {GROUP_PRIMARY, GROUP_ORIG_VOCAB})
        if never:
            raise ValueError(f"{', '.join(never)} cannot train in either stage")

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "FreezeSchedule":
        base = {GROUP_CONNECTOR, GROUP_NEW_VOCAB}
        if config.use_simplefp:
            base.add(GROUP_SIMPLEFP)
        stage2 = set(base)
        if config.use_auxiliary:
            stage2.add(GROUP_AUX)
        return cls(frozenset(base), frozenset(stage2))

    def trainable(self, stage: int) -> frozenset:
        if stage == 1:
            return self.stage1
        if stage == 2:
            return self.stage2
        raise ValueError("stage must be 1 or 2")


def init_model_params(config: ExperimentConfig, rng: np.random.Generator | None = None) -> ModelParams:
    """Seeded initialization of every parameter group.

    Encoder mixing kernels start at identity (they stand in for pretrained
    towers); pyramid and connector weights draw from the seeded uniform.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    n_cat = config.n_categories
    groups: dict[str, dict[str, np.ndarray]] = {}

    c_pri = config.primary_channels
    groups[GROUP_PRIMARY] = {
        "mix_w": np.eye(c_pri).reshape(c_pri, c_pri, 1, 1),
        "mix_b": np.zeros(c_pri),
    }

    c_aux = config.encoder.aux_channels(n_cat)
    aux: dict[str, np.ndarray] = {}
    for level in range(4):
        aux[f"mix{level}_w"] = np.eye(c_aux).reshape(c_aux, c_aux, 1, 1)
        aux[f"mix{level}_b"] = np.zeros(c_aux)
    groups[GROUP_AUX] = aux

    fp = SimpleFPParams.seeded(c_pri, config.fp_channels, rng)
    groups[GROUP_SIMPLEFP] = {}
    for branch, k in fp.kernels.items():
        groups[GROUP_SIMPLEFP][f"{branch}_w"] = k.weights
        groups[GROUP_SIMPLEFP][f"{branch}_b"] = k.bias

    conn = Connector.seeded(config.d_total, config.d_llm, rng)
    groups[GROUP_CONNECTOR] = {"w1": conn.w1, "b1": conn.b1, "w2": conn.w2, "b2": conn.b2}

    # near-unit-norm query rows: the scoring is bilinear in (token, query),
    # so a timid query init throttles the connector's early gradients
    groups[GROUP_NEW_VOCAB] = {
        "queries": rng.uniform(-1.0, 1.0, size=(n_cat, config.d_llm))
    }
    groups[GROUP_ORIG_VOCAB] = {
        "table": rng.normal(0.0, 0.02, size=(64, config.d_llm))
    }
    return ModelParams(groups)


def _with_ones(data: np.ndarray) -> np.ndarray:
    """A (C, H, W) map with a constant-one channel appended, so that taps
    of it carry a 1x1 mix's bias (:func:`_mix`)."""
    return np.concatenate([data, np.ones((1,) + data.shape[1:])])


def _mix(group: dict[str, np.ndarray], name: str) -> np.ndarray:
    """A 1x1 mix kernel as (out, in + 1), its bias the last column: it acts
    on taps of a map with a ones channel appended."""
    return np.concatenate([group[f"{name}_w"][:, :, 0, 0], group[f"{name}_b"][:, None]], axis=1)


def _mix_grads(d_mix: np.ndarray, name: str) -> dict[str, np.ndarray]:
    """Adjoint of :func:`_mix`: the gradient of an (out, in + 1) mix as
    the group's weight and bias arrays."""
    return {f"{name}_w": d_mix[:, :-1, None, None], f"{name}_b": d_mix[:, -1]}


def _connector(groups: dict) -> Connector:
    c = groups[GROUP_CONNECTOR]
    return Connector(c["w1"], c["b1"], c["w2"], c["b2"])


# ---------------------------------------------------------- sample prep

@dataclass
class SampleStatic:
    """Everything about one sample that does not depend on the parameters:
    the pooled taps of its rendered maps, positional embeddings, query
    indices, and targets.

    ``primary_taps`` is :func:`pyramid.simple_fp_taps` of the primary map
    with SimpleFP on, or the map's own (N, J) pooled taps with it off, and
    None without the primary stream; ``aux_taps`` is
    :func:`pyramid.aux_fuse_taps` of the auxiliary maps, or None.  Every
    map carries a ones channel for its mix bias.
    """

    primary_taps: list[np.ndarray] | np.ndarray | None
    aux_taps: list[np.ndarray] | None
    epos: np.ndarray
    query_idx: np.ndarray
    targets: np.ndarray


def prepare_sample(sample, config: ExperimentConfig) -> SampleStatic:
    """Render one scene with its proposals and pool the maps into taps.

    ``sample`` is a :class:`TrainingSample`, or any scene-with-proposals
    (``.scene``, ``.proposals``) such as an eval scene, which has no
    queries or targets.
    """
    last_map, aux_maps = toy_encode(sample.scene, config.encoder)
    boxes = list(sample.proposals)
    primary_taps = aux_taps = None
    if config.use_primary:
        raw = _with_ones(last_map.data)
        if config.use_simplefp:
            primary_taps = simple_fp_taps(raw, boxes, config.roi)
        else:
            a_y, a_x = pooled_axis_weights(last_map.height, last_map.width, boxes, config.roi)
            primary_taps = pooled_taps(raw, a_y[:, None], a_x[:, None])
    if config.use_auxiliary:
        aux_taps = aux_fuse_taps([_with_ones(m.data) for m in aux_maps], boxes, config.roi)
    if isinstance(sample, TrainingSample):
        index = {n: i for i, n in enumerate(vocabulary(config.n_categories))}
        query_idx = np.array([index[q] for q in sample.queries], dtype=int)
        targets = np.asarray(sample.targets, dtype=np.float64)
    else:
        query_idx = np.zeros(0, dtype=int)
        targets = np.zeros((len(boxes), 0))
    return SampleStatic(
        primary_taps=primary_taps,
        aux_taps=aux_taps,
        epos=positional_embedding_matrix(boxes, config.d_total),
        query_idx=query_idx,
        targets=targets,
    )


# ------------------------------------------------------------- forward

@dataclass
class _ForwardCache:
    mix: np.ndarray | None  # the primary mix as (out, in + 1)
    aux_mixes: list[np.ndarray] | None
    connector: Connector
    features: np.ndarray
    hidden: np.ndarray  # the connector's tanh activations
    tokens: np.ndarray


def _forward(params: ModelParams, s: SampleStatic, config: ExperimentConfig) -> _ForwardCache:
    """Pooled features as contractions of the sample's taps with effective
    kernels, then the connector.  No feature map is built."""
    g = params.groups
    parts = []
    mix = aux_mixes = None
    if config.use_primary:
        mix = _mix(g[GROUP_PRIMARY], "mix")
        if config.use_simplefp:
            parts += simple_fp_pooled(s.primary_taps, mix, g[GROUP_SIMPLEFP])
        else:
            parts.append(apply_taps(s.primary_taps, mix))
    if config.use_auxiliary:
        aux_mixes = [_mix(g[GROUP_AUX], f"mix{i}") for i in range(4)]
        parts.append(aux_fuse_pooled(s.aux_taps, aux_mixes))
    features = np.concatenate(parts, axis=1) + s.epos
    if not np.isfinite(features).all():
        n, d = features.shape
        raise NonFiniteError(f"{n}x{d} region feature matrix contains non-finite values")
    conn = _connector(g)
    tokens, hidden = connector_forward(conn, features, with_hidden=True)
    return _ForwardCache(mix, aux_mixes, conn, features, hidden, tokens)


def region_token_matrix(params: ModelParams, s: SampleStatic, config: ExperimentConfig) -> np.ndarray:
    """Token-space embeddings for every proposal of a prepared sample."""
    return _forward(params, s, config).tokens


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy of ``logits`` against ``targets``,
    in the log(1 + exp(-|z|)) form that stays finite for large |z|."""
    return np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))


def loss_and_grads(
    params: ModelParams,
    s: SampleStatic,
    config: ExperimentConfig,
    trainable: frozenset | set = frozenset(),
) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
    """Loss on one sample plus analytic gradients for the requested groups.

    The loss is binary cross-entropy per (region, query) pair, summed over
    all pairs of the sample.  A requested group with no path into this
    config's loss gets zero gradients.  The primary encoder never trains
    (:class:`FreezeSchedule`) and has a path, so requesting it raises.
    """
    if GROUP_PRIMARY in trainable:
        raise ValueError(f"{GROUP_PRIMARY} never trains: no gradient is computed for it")
    g = params.groups
    if s.query_idx.size == 0:
        return 0.0, {grp: {k: np.zeros_like(v) for k, v in g[grp].items()} for grp in trainable}
    cache = _forward(params, s, config)
    queries = g[GROUP_NEW_VOCAB]["queries"][s.query_idx]
    logits = cache.tokens @ queries.T
    loss = float(np.sum(bce_with_logits(logits, s.targets)))

    grads: dict[str, dict[str, np.ndarray]] = {}
    want = set(trainable)
    if not want:
        return loss, grads

    probs = 1.0 / (1.0 + np.exp(-logits))
    d_logits = probs - s.targets

    if GROUP_NEW_VOCAB in want:
        dq = np.zeros_like(g[GROUP_NEW_VOCAB]["queries"])
        np.add.at(dq, s.query_idx, d_logits.T @ cache.tokens)
        grads[GROUP_NEW_VOCAB] = {"queries": dq}

    fp_path = config.use_simplefp and GROUP_SIMPLEFP in want
    aux_path = config.use_auxiliary and GROUP_AUX in want
    if fp_path or aux_path or GROUP_CONNECTOR in want:
        d_tokens = d_logits @ queries
        conn_grads, d_feats = connector_backward(
            cache.connector, cache.features, d_tokens, hidden=cache.hidden, input_grad=fp_path or aux_path
        )
        if GROUP_CONNECTOR in want:
            grads[GROUP_CONNECTOR] = conn_grads
        if fp_path:
            w = config.fp_channels
            d_levels = [d_feats[:, k * w : (k + 1) * w] for k in range(4)]
            grads[GROUP_SIMPLEFP] = simple_fp_pooled_backward(s.primary_taps, cache.mix, g[GROUP_SIMPLEFP], d_levels)
        if aux_path:
            d_mixes = aux_fuse_pooled_backward(s.aux_taps, cache.aux_mixes, d_feats[:, config.d_p :])
            grads[GROUP_AUX] = {k: v for i, d in enumerate(d_mixes) for k, v in _mix_grads(d, f"mix{i}").items()}

    for grp in want - grads.keys():
        grads[grp] = {k: np.zeros_like(v) for k, v in g[grp].items()}
    return loss, grads


# -------------------------------------------------------------- training

@dataclass
class TrainingLog:
    losses: dict[str, list[float]] = field(default_factory=lambda: {"stage1": [], "stage2": []})
    checksums: dict[str, dict[str, str]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"losses": self.losses, "checksums": self.checksums}


def seeded_training_set(config: ExperimentConfig) -> list[TrainingSample]:
    """The training set :func:`train` draws when given none: the first
    child of the config seed, the second seeding the parameters."""
    return make_training_set(
        config.n_train_scenes,
        config.rejection_fraction,
        seed=np.random.SeedSequence(config.seed).spawn(2)[0],
        scene_config=config.world,
        proposal_config=config.proposals,
    )


def train(
    config: ExperimentConfig,
    dataset: list[TrainingSample] | None = None,
) -> tuple[ModelParams, TrainingLog]:
    """Run the two-stage schedule and return (parameter bundle, log).

    The log records the per-step loss of both stages and per-group
    parameter checksums at initialization and after each stage.
    """
    if dataset is None:
        dataset = seeded_training_set(config)
    statics = [prepare_sample(sample, config) for sample in dataset]
    if not statics:
        raise ValueError("train needs at least one training sample")
    params = init_model_params(config)
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
                loss, grads = loss_and_grads(params, s, config, trainable)
            except NonFiniteError as exc:
                raise TrainingDivergence(stage, step_counter, cause=str(exc)) from exc
            if not np.isfinite(loss):
                raise TrainingDivergence(stage, step_counter, loss)
            for grp, arrs in grads.items():
                for name, d in arrs.items():
                    params.groups[grp][name] -= lr * d
            log.losses[f"stage{stage}"].append(loss)
        log.checksums[f"after_stage{stage}"] = params.checksums()
    return params, log


# ------------------------------------------------------------ grad check

@dataclass
class GradCheckReport:
    per_group: dict[str, dict]
    frozen_zero: list[str]

    @property
    def max_rel_error(self) -> float:
        return max((v["max_rel_error"] for v in self.per_group.values()), default=0.0)

    def to_json(self) -> dict:
        return {"per_group": self.per_group, "frozen_zero": self.frozen_zero, "max_rel_error": self.max_rel_error}


def grad_check(config: ExperimentConfig) -> GradCheckReport:
    """Central finite differences against the analytic gradients.

    Checks every entry of every group the freeze schedule ever trains (its
    stage 2, which contains stage 1), with a step of 1e-5.  The relative
    error per entry is |a - n| / max(|a|, |n|, 1e-5); intended for small configurations
    (dims <= 64).  The original-vocabulary table has no path into the
    loss, so it is reported in ``frozen_zero`` rather than differenced.
    """
    if config.d_llm > 64:
        raise ValueError("grad_check is meant for small dimensions (<= 64)")
    # samples are drawn in sequence, so this is the first sample train() sees
    s = prepare_sample(seeded_training_set(config.replace(n_train_scenes=1))[0], config)
    params = init_model_params(config)

    check_groups = FreezeSchedule.from_config(config).stage2
    _, analytic = loss_and_grads(params, s, config, check_groups)

    step = 1e-5
    report: dict[str, dict] = {}
    for grp in sorted(check_groups):
        worst = 0.0
        for name, arr in params.groups[grp].items():
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up, _ = loss_and_grads(params, s, config)
                flat[i] = orig - step
                down, _ = loss_and_grads(params, s, config)
                flat[i] = orig
                numeric = (up - down) / (2 * step)
                a = analytic[grp][name].ravel()[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
                worst = max(worst, rel)
        n_checked = sum(arr.size for arr in params.groups[grp].values())
        report[grp] = {"max_rel_error": worst, "entries_checked": n_checked}
    return GradCheckReport(per_group=report, frozen_zero=[GROUP_ORIG_VOCAB])
