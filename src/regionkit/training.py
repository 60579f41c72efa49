"""Two-stage training of the region-retrieval head.

Parameters live in named groups so the freeze schedule can be stated and
audited exactly:

* ``primary_encoder`` — a 1x1 channel-mixing kernel on the primary map,
  identity-initialized; never trained (it stands in for the pretrained
  primary tower), so :func:`prepare_sample` applies it once per sample and
  no gradient is ever computed for it.
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
given the config seed.  All groups share one parameter vector, each a
slice of it, and a step updates the slice from the first group a stage
trains to the last with one operation; a frozen group inside that slice
has a zero gradient, so no step changes it.

A step does only the work a step can change.  The primary mix never
trains, so :func:`prepare_sample` applies it to the rendered map once, as
the frozen encoder's output.  Each kernel is stored as the block a step
multiplies (:class:`ModelParams`).  At each stage's start every sample is
bound once: a group the stage freezes has constant kernels, so its blocks
become feature columns, and each block that trains becomes one product
over views of the vector, of the stage's gradient buffer and of a scratch
all samples share.  A step runs that fixed list of in-place products
and reads every other view and buffer it writes from the binding.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .gridops import NonFiniteError, check_finite
from .pyramid import (
    BRANCHES,
    aux_fuse_size,
    aux_fuse_taps,
    initial_kernels,
    simple_fp_sizes,
    simple_fp_taps,
)
from .regionenc import Connector, connector_backward, connector_forward, positional_embedding_matrix
from .roialign import pooled_axis_weight_table, pooled_taps
from .simworld import TrainingSample, make_training_set, render, reused_canvas, vocabulary

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


class ModelParams:
    """All trainable state: one contiguous float64 vector, seen as named
    arrays in named groups.

    ``groups[group][name]`` is a view into ``vector``; each group is one
    slice of it, ``spans[group]``, holding its arrays in bundle order but
    for a kernel ``<x>_w`` (O, C, kh, kw) and its bias ``<x>_b`` (O,).
    Those are one C-contiguous (O, kh * kw * C + 1) block, :meth:`kernel`,
    each row the tap-major (kh, kw, C) weights, then the bias: the
    effective kernel ``roialign.apply_taps`` multiplies.  An in-place
    update of the vector is an update of the named arrays, and the other
    way round.
    """

    def __init__(self, groups: dict[str, dict[str, np.ndarray]]):
        self._layout = {g: {k: np.shape(a) for k, a in arrs.items()} for g, arrs in groups.items()}
        self.spans: dict[str, slice] = {}
        end = 0
        for g, shapes in self._layout.items():
            size = sum(math.prod(shape) for shape in shapes.values())
            self.spans[g] = slice(end, end + size)
            end += size
        self.vector = np.empty(end)
        self._frames: dict = {}  # what region_token_matrix binds each sample to, reused (``_bind``)
        for g, arrs in groups.items():
            for k, view in self.groups[g].items():
                view[...] = arrs[k]

    @functools.cached_property
    def _views(self) -> tuple[dict, dict]:
        """({group: {name: view}} in bundle order, {group: {x: kernel block}})."""
        views, blocks = {}, {}
        for g, shapes in self._layout.items():
            weights = {k for k, s in shapes.items() if k.endswith("_w") and len(s) == 4
                       and shapes.get(k[:-2] + "_b") == s[:1]}
            biases = {k[:-2] + "_b" for k in weights}
            placed, blocks[g], start = {}, {}, self.spans[g].start
            for k, shape in shapes.items():
                if k in weights:
                    o, c, kh, kw = shape
                    block = self.vector[start : start + o * (kh * kw * c + 1)].reshape(o, kh * kw * c + 1)
                    blocks[g][k[:-2]] = block
                    placed[k] = block[:, :-1].reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
                    placed[k[:-2] + "_b"] = block[:, -1]
                    start += block.size
                elif k not in biases:
                    placed[k] = self.vector[start : start + math.prod(shape)].reshape(shape)
                    start += placed[k].size
            views[g] = {k: placed[k] for k in shapes}
        return views, blocks

    @property
    def groups(self) -> dict[str, dict[str, np.ndarray]]:
        """{group: {name: view into the vector}}, in bundle order."""
        return self._views[0]

    def kernel(self, group: str, x: str) -> np.ndarray:
        """The (O, kh * kw * C + 1) block that stores ``<x>_w`` and ``<x>_b``
        of ``group``, a C-contiguous slice of the vector."""
        return self._views[1][group][x]

    def zeros_like(self) -> "ModelParams":
        """All-zero parameters of the same layout, e.g. a gradient."""
        out = ModelParams.__new__(ModelParams)
        out._layout, out.spans, out.vector, out._frames = self._layout, self.spans, np.zeros(self.vector.size), {}
        return out

    @functools.cached_property
    def connector(self) -> Connector:
        """The connector group as a :class:`Connector` over its views, so it
        follows every in-place update of the vector."""
        c = self.groups[GROUP_CONNECTOR]
        return Connector(c["w1"], c["b1"], c["w2"], c["b2"])

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
    def from_json(cls, obj: dict, config: ExperimentConfig) -> "ModelParams":
        """Inverse of :meth:`to_json` for ``config``'s model.  The bundle must
        have the layout of :func:`init_model_params`: the same groups and
        arrays, in the same order, of the same shapes.  Anything else, or a
        malformed array, raises ValueError naming the group and array."""
        if not isinstance(obj, dict):
            raise ValueError("a parameter bundle must be an object of groups")
        params = init_model_params(config)
        _same_names(list(obj), list(params._layout), "group ")
        for g, shapes in params._layout.items():
            arrs = obj[g]
            if not isinstance(arrs, dict):
                raise ValueError(f"parameter group {g!r} must be an object of arrays")
            _same_names(list(arrs), list(shapes), f"array {g}/")
            for k, shape in shapes.items():
                data = _array_from_json(arrs[k], f"{g}/{k}")
                if data.shape != shape:
                    raise ValueError(f"array {g}/{k}: shape {list(data.shape)} is not the model's {list(shape)}")
                params.groups[g][k][...] = data
        return params


def _same_names(got: list, want: list, what: str) -> None:
    """Refuse a bundle whose names at one level are not ``want``, in order."""
    for name in want:
        if name not in got:
            raise ValueError(f"the bundle has no {what}{name}")
    for name in got:
        if name not in want:
            raise ValueError(f"the bundle's {what}{name} is not in the model")
    for name, expected in zip(got, want):
        if name != expected:
            raise ValueError(f"the bundle's {what}{name} is out of order: the model's order is {', '.join(want)}")


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
        if config.uses.simplefp:
            base.add(GROUP_SIMPLEFP)
        stage2 = set(base)
        if config.uses.auxiliary:
            stage2.add(GROUP_AUX)
        return cls(frozenset(base), frozenset(stage2))

    def trainable(self, stage: int) -> frozenset:
        if stage == 1:
            return self.stage1
        if stage == 2:
            return self.stage2
        raise ValueError("stage must be 1 or 2")


def init_model_params(config: ExperimentConfig) -> ModelParams:
    """Seeded initialization of every parameter group.

    Encoder mixing kernels start at identity (they stand in for pretrained
    towers); pyramid and connector weights draw from the seeded uniform.
    """
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

    groups[GROUP_SIMPLEFP] = initial_kernels(c_pri, config.fp_channels, rng)

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


# ---------------------------------------------------------- sample prep

@dataclass
class SampleStatic:
    """One sample as the frozen encoder leaves it: everything about it that
    no parameter a step trains can change.

    ``parts`` are the region feature's parts in order, each (group, arrays):
    the tap blocks of that group's kernel blocks, one per block in order,
    or, with group None, feature columns.  With SimpleFP
    on, the primary part is the five arrays of :func:`pyramid.simple_fp_taps`
    of the mixed primary map (group ``simplefp``): three levels, then up4's
    (N, 4, K) ``up4_a`` block, whose output leads ``up4_b``'s taps, and the
    row-sum column that ends them.  Without it, that map's own pooled
    columns.  Then the four blocks of :func:`pyramid.aux_fuse_taps` of the
    auxiliary maps, with a ones channel for the mix bias, stacked as one
    (N, 4, J) block (group ``aux_encoder``).  A stream left out has none.
    """

    parts: list[tuple[str | None, list[np.ndarray]]]
    epos: np.ndarray
    query_idx: np.ndarray
    targets: np.ndarray


def prepare_sample(params: ModelParams, sample, config: ExperimentConfig) -> SampleStatic:
    """Render one scene with its proposals, mix the primary map with the
    primary encoder's frozen (C, C + 1) kernel block, and pool the maps
    into parts.

    ``sample`` is a :class:`TrainingSample`, or any scene-with-proposals
    (``.scene``, ``.proposals``) such as an eval scene, which has no
    queries or targets.  The pooling weights of every size the parts pool
    at come from one pass.  The scene renders into the reused canvas
    (:func:`simworld.reused_canvas`), whose maps end in the ones channel
    that a kernel block's bias column reads; no part views it.  Each map
    pooled must be finite: one check covers the canvas's buffer of all
    five, and only when it fails are the maps pooled checked one by one,
    to name the one at fault."""
    canvas = render(sample.scene, config.encoder, reused_canvas(sample.scene.n_categories, config.encoder))
    if not np.isfinite(canvas.maps).all():
        if config.uses.primary:
            check_finite(canvas.primary, "the primary map")
        if config.uses.auxiliary:
            for m in canvas.aux:
                check_finite(m, "an auxiliary map")
    boxes = list(sample.proposals)
    h, w = canvas.primary.shape[1:]
    sizes = []
    if config.uses.primary:
        sizes += simple_fp_sizes(h, w) if config.uses.simplefp else [(h, w)]
    if config.uses.auxiliary:
        sizes.append(aux_fuse_size([m.shape[1:] for m in canvas.aux]))
    weights = pooled_axis_weight_table(sizes, boxes, config.roi)
    parts = []
    if config.uses.primary:
        mix = params.kernel(GROUP_PRIMARY, "mix")
        mixed = (mix @ canvas.primary.reshape(mix.shape[1], -1)).reshape(-1, h, w)
        if config.uses.simplefp:
            parts.append((GROUP_SIMPLEFP, simple_fp_taps(mixed, weights)))
        else:
            a_y, a_x = weights[h, w]
            parts.append((None, [pooled_taps(mixed, a_y[:, None], a_x[:, None])]))
    if config.uses.auxiliary:
        parts.append((GROUP_AUX, [np.stack(aux_fuse_taps(canvas.aux, weights), axis=1)]))
    if isinstance(sample, TrainingSample):
        index = {n: i for i, n in enumerate(vocabulary(config.n_categories))}
        query_idx = np.array([index[q] for q in sample.queries], dtype=int)
        targets = np.asarray(sample.targets, dtype=np.float64)
    else:
        query_idx = np.zeros(0, dtype=int)
        targets = np.zeros((len(boxes), 0))
    return SampleStatic(
        parts=parts,
        epos=positional_embedding_matrix(boxes, config.d_total),
        query_idx=query_idx,
        targets=targets,
    )


# ------------------------------------------------------------- forward

def _kernels(p: ModelParams, group: str) -> list[np.ndarray]:
    """The kernel blocks of ``group`` in the order of its tap blocks; the
    four aux mixes are one (4, O, J) block, their span of the vector."""
    if group == GROUP_AUX:
        return [p.vector[p.spans[group]].reshape(-1, *p.kernel(group, "mix0").shape)]
    return [p.kernel(group, x) for x in BRANCHES]


def _scratch(params: ModelParams, n: int, width: int) -> list[np.ndarray]:
    """What a bound step on up to ``n`` boxes writes: the features, their
    gradient, up4_b's taps [mid | S] and the gradient on mid."""
    k = params.kernel(GROUP_SIMPLEFP, "up4_b").shape[1]
    return [np.empty(shape) for shape in ((n, width), (n, width), (n, k), (n, k - 1))]


def _frame(params: ModelParams, s: SampleStatic, trainable: frozenset, out: ModelParams | None, scratch) -> tuple:
    """What the samples of ``len(s.epos)`` boxes bound alike share: their
    rows of ``scratch`` (or of a new one) and, per part, its columns, per
    tap block (the kernel block transposed, its output, the block of
    ``out`` or None, the gradient on the output as its product reads it),
    and the products no tap block varies.  An inner branch, whose (N, R, K)
    rows share one kernel, writes mid, which the next array ends."""
    x, d_x, mid, d_mid = (a[: len(s.epos)] for a in scratch or _scratch(params, *s.epos.shape))
    n, parts, col = len(x), [], 0
    for grp, arrays in s.parts:
        start, blocks, forward, backward, inner = col, [], [], [], False
        kernels = [] if grp is None else _kernels(params, grp)
        d_kernels = _kernels(out, grp) if grp in trainable else [None] * len(kernels)
        for t, k, dk in zip(arrays, kernels, d_kernels):
            if k.ndim < t.ndim:
                blocks.append((k.T, mid[:, :-1].reshape(n, t.shape[1], 1, -1), dk, d_mid.reshape(-1, len(k)).T))
                inner = True
                continue
            w, rows = k.size // k.shape[-1], t.shape[1:-1]
            y, d_y = x[:, col : col + w].reshape(n, *rows, 1, -1), d_x[:, col : col + w].reshape(n, *rows, -1)
            col += w
            if inner:  # this array is S: it is copied in after mid, and the product reads no tap block
                blocks.append((None, mid[:, -1:], None, None))
                forward.append((np.matmul, mid[:, None, :], k.T, y))
                backward += [(np.matmul, d_y.T, mid, dk), (np.matmul, d_y, k[:, :-1], d_mid)]
            else:
                blocks.append((k.swapaxes(-1, -2), y, dk, d_y.transpose(*range(1, d_y.ndim), 0)))
        col += 0 if kernels else sum(a.shape[1] for a in arrays)
        parts.append((x[:, start:col], blocks, forward, backward))
    return x, d_x, parts


@dataclass(slots=True)
class _Bound:
    """A sample bound for steps that train ``trainable``: ``forward`` fills
    ``features``, ``backward`` writes each trained kernel gradient from
    ``d_features``; each is a fixed list of calls ``f(a, b, c)``.  The rest
    is what a step would otherwise look up or build: the query table, its
    gradient when the queries train (else None), the connector's ``out``
    (its gradients, when it trains, and ``d_features`` at ``"input"``;
    None when no gradient reaches it) and the gradients of the trained
    groups with no path into the loss, which every step zeroes."""

    params: ModelParams
    out: ModelParams | None
    trainable: frozenset
    features: np.ndarray
    d_features: np.ndarray
    static: SampleStatic
    forward: list[tuple]
    backward: list[tuple]
    queries: np.ndarray
    d_queries: np.ndarray | None = None
    connector_out: dict | None = None
    unreached: list[np.ndarray] = field(default_factory=list)


def _bind(params: ModelParams, s: SampleStatic, trainable: frozenset = frozenset(),
          out: ModelParams | None = None, frames: dict | None = None) -> _Bound:
    """``s`` bound for steps that write the gradient of the ``trainable``
    groups into ``out``.  ``frames`` holds what a stage's samples share: a
    :func:`_frame` per box count and parts, and at 0 the :func:`_scratch`
    they slice, else each has its own.

    A frozen group's blocks are applied here, once, into feature columns.
    Each trained block is one product into its output and one into its
    gradient block, each summed as the block on its own is.  While some
    group trains, the forward copies the frozen columns back in from a
    saved copy, since the samples of a stage share the features it writes.
    When nothing trains, the features are complete here: the frozen
    columns and the positional embedding are written once, and the
    forward is empty, so running it again changes nothing, until the next
    binding that shares these features.  What else a step reads is bound
    here too (:class:`_Bound`).
    """
    frames, key = {} if frames is None else frames, (len(s.epos), *(grp for grp, _ in s.parts))
    x, d_x, parts = frames[key] = frames.get(key) or _frame(params, s, trainable, out, frames.get(0))
    bound = _Bound(params, out, trainable, x, d_x, s, [], [], params.groups[GROUP_NEW_VOCAB]["queries"])
    for (grp, arrays), (cols, blocks, forward, backward) in zip(s.parts, parts):
        ops, grads, live = [], list(backward), grp in trainable
        for t, (k, y, dk, d_y) in zip(arrays, blocks):
            ops.append((np.copyto, y, t, "no") if k is None else (np.matmul, t[..., None, :], k, y))
            if live and k is not None:  # a kernel that all rows of a block share sums over them
                t = t.reshape(-1, t.shape[-1]) if k.ndim < t.ndim else t if t.ndim == 2 else t.swapaxes(0, 1)
                grads.append((np.matmul, d_y, t, dk))
        if live:
            bound.forward += ops + forward
            bound.backward += grads
        else:
            for f, a, b, c in ops + forward:
                f(a, b, c)
            if not ops:  # columns as prepared
                np.concatenate(arrays, axis=1, out=cols)
            if trainable:
                bound.forward.append((np.copyto, cols, cols.copy(), "no"))
    if not trainable:
        x += s.epos
        return bound
    bound.forward.append((np.add, x, s.epos, x))
    if GROUP_NEW_VOCAB in trainable:
        bound.d_queries = out.groups[GROUP_NEW_VOCAB]["queries"]
    if bound.backward or GROUP_CONNECTOR in trainable:
        bound.connector_out = dict(out.groups[GROUP_CONNECTOR]) if GROUP_CONNECTOR in trainable else {}
        bound.connector_out["input"] = d_x
    unreached = trainable - {grp for grp, _ in s.parts} - {GROUP_CONNECTOR, GROUP_NEW_VOCAB}
    bound.unreached = [out.vector[out.spans[grp]] for grp in sorted(unreached)]
    return bound


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.  A NaN or an infinity makes
    the sum of squares non-finite, so only then, or when that sum
    overflows, are the entries checked one by one."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _tokens(b: _Bound) -> tuple[np.ndarray, np.ndarray]:
    """Run ``b``'s forward: (tokens, the connector's tanh activations)."""
    for f, a, c, d in b.forward:
        f(a, c, d)
    if not _finite(b.features):
        n, d = b.features.shape
        raise NonFiniteError(f"{n}x{d} region feature matrix contains non-finite values")
    if not _finite(b.params.vector[b.params.spans[GROUP_CONNECTOR]]):
        raise NonFiniteError("connector parameters must be finite")
    return connector_forward(b.params.connector, b.features, with_hidden=True)


def region_token_matrix(params: ModelParams, s: SampleStatic) -> np.ndarray:
    """Token-space embeddings for every proposal of a prepared sample: the
    rows permute with the proposals, bitwise, and a box alone in a scene
    gets its row to 1e-12 relative, not bitwise: BLAS takes a one-row
    product down another path, in the pooling's y contraction at a level
    with one tap row and in the connector."""
    return _tokens(_bind(params, s, frames=params._frames))[0]


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy of ``logits`` against ``targets``,
    in the log(1 + exp(-|z|)) form that stays finite for large |z|."""
    return np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))


def loss_and_grads(
    params: ModelParams,
    s: SampleStatic,
    trainable: frozenset | set = frozenset(),
    out: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Loss on one sample plus analytic gradients for the requested groups.

    The loss is binary cross-entropy per (region, query) pair, summed over
    all pairs of the sample.  The gradient has the layout of ``params``;
    a group that was not requested, or has no path into this config's
    loss, is exactly zero.  The primary encoder never trains
    (:class:`FreezeSchedule`) and has a path, so requesting it raises.

    ``out`` is a gradient buffer to write into and return in place of a new
    one: the slice of every requested group is overwritten, and every other
    slice is left as it was.  ``s`` may be bound for a stage by :func:`train`;
    then it needs the ``params``, ``out`` and ``trainable`` it was bound to.
    A step reads the views and the connector's ``out`` bound with it
    (:class:`_Bound`), writes the query gradient straight into its rows
    (a sample queries each category once), and runs its 2-D products as
    ``np.dot``, which has the bytes of ``@`` without its ufunc dispatch.
    """
    if GROUP_PRIMARY in trainable:
        raise ValueError(f"{GROUP_PRIMARY} never trains: no gradient is computed for it")
    if not isinstance(s, _Bound):
        s = _bind(params, s, frozenset(trainable), params.zeros_like() if out is None else out)
    elif params is not s.params or out is not s.out or trainable != s.trainable:
        name = "params" if params is not s.params else "out" if out is not s.out else "trainable"
        raise ValueError(f"a bound sample needs the {name} it was bound to")
    grads, query_idx, targets = s.out, s.static.query_idx, s.static.targets
    if query_idx.size == 0:
        for grp in trainable:
            grads.vector[grads.spans[grp]] = 0.0
        return 0.0, grads
    tokens, hidden = _tokens(s)
    queries = s.queries[query_idx]
    logits = np.dot(tokens, queries.T)
    loss = float(bce_with_logits(logits, targets).sum())
    if not trainable:
        return loss, grads
    d_logits = 1.0 / (1.0 + np.exp(-logits)) - targets
    if s.d_queries is not None:
        d_queries = np.dot(d_logits.T, tokens)
        s.d_queries.fill(0.0)
        # each row once: v is 0.0 + v, as BLAS sums each entry from +0.0, so none is -0.0
        s.d_queries[query_idx] = d_queries
    for d in s.unreached:  # no path into the loss
        d.fill(0.0)
    if s.connector_out is not None:
        connector_backward(
            params.connector, s.features, np.dot(d_logits, queries), hidden=hidden, input_grad=bool(s.backward),
            out=s.connector_out,
        )
        for f, a, b, c in s.backward:
            f(a, b, c)
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
        grads = params.zeros_like()
        samples = None  # the previous stage's bindings go before this stage's are made
        frames = {0: _scratch(params, max(len(s.epos) for s in statics), config.d_total)}
        samples = [_bind(params, s, trainable, grads, frames) for s in statics]
        # one slice from the first trained group to the last: a group inside
        # it that does not train has a zero gradient, so the update keeps it
        spans = [params.spans[grp] for grp in trainable]
        span = slice(min(sp.start for sp in spans), max(sp.stop for sp in spans))
        vector, grad, update = params.vector[span], grads.vector[span], np.empty(span.stop - span.start)
        for _ in range(steps):
            s = samples[step_counter % len(samples)]
            step_counter += 1
            try:
                loss, _ = loss_and_grads(params, s, trainable, out=grads)
            except NonFiniteError as exc:
                raise TrainingDivergence(stage, step_counter, cause=str(exc)) from exc
            if not math.isfinite(loss):
                raise TrainingDivergence(stage, step_counter, loss)
            vector -= np.multiply(grad, lr, out=update)
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
    params = init_model_params(config)
    # samples are drawn in sequence, so this is the first sample train() sees
    s = prepare_sample(params, seeded_training_set(config.replace(n_train_scenes=1))[0], config)

    check_groups = FreezeSchedule.from_config(config).stage2
    _, analytic = loss_and_grads(params, s, check_groups)

    step = 1e-5
    flat = params.vector
    report: dict[str, dict] = {}
    for grp in sorted(check_groups):
        worst = 0.0
        span = params.spans[grp]
        for i in range(span.start, span.stop):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = loss_and_grads(params, s)
            flat[i] = orig - step
            down, _ = loss_and_grads(params, s)
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            a = analytic.vector[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            worst = max(worst, rel)
        report[grp] = {"max_rel_error": worst, "entries_checked": span.stop - span.start}
    return GradCheckReport(per_group=report, frozen_zero=[GROUP_ORIG_VOCAB])
