"""Span recorder for the traced run.

While a :class:`Tracer` is active, every function named in ``TRACED`` is
replaced, in every ``regionkit`` module that binds it, by a wrapper that
records one span per call: name, start, end and parent.  Modules import
each other with ``from .x import f``, so a function is patched wherever
its object is bound (``regionkit.training.conv2d`` as well as
``regionkit.gridops.conv2d``).  ``FeatureMap`` and ``Kernel`` construction
is counted, not timed.  Spans stay in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus the durations of its direct
children; one caller runs at a time, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from regionkit import gridops

# layer -> public functions wrapped in the traced run
TRACED = {
    "simworld": ("toy_encode", "make_training_set"),
    "roialign": ("pooled_weights", "pooled_apply"),
    "gridops": (
        "conv2d", "deconv2d", "bilinear_resize", "concat_channels",
        "conv2d_backward", "deconv2d_backward", "bilinear_resize_grad",
    ),
    "pyramid": ("simple_fp", "aux_fuse"),
    "regionenc": ("connector_forward", "connector_backward", "positional_embedding_matrix"),
    "training": ("prepare_sample", "loss_and_grads", "region_token_matrix", "train"),
    "retrieval": ("score_matrix", "decode_detections", "detect_then_count", "emit_grounded_summary"),
    "tokenproto": ("parse_grounded", "serialize_grounded"),
    "metrics": ("coco_map",),
    "experiments": (
        "detections_for_scene", "evaluate_retrieval", "rejection_stats", "counting_stats", "make_eval_scenes",
    ),
}

# functions reported by call count alone
_COUNTED_ONLY = {"simple_fp", "aux_fuse"}
# functions whose per-call latency (inclusive of children) is also reported
_LATENCY = ("loss_and_grads", "detections_for_scene")


def _count_pooled_weights(counters, args, out):
    counters["pooled_weights.bytes"] += out.nbytes


def _count_decode(counters, args, out):
    counters["retrieval.detections"] += len(out)
    counters["retrieval.pairs"] += np.size(args[0])


def _count_serialize(counters, args, out):
    counters["tokenproto.bytes"] += len(out.encode())


def _count_coco(counters, args, out):
    counters["coco_map.detections"] += sum(len(d) for d in args[0].values())


_HOOKS = {
    "pooled_weights": _count_pooled_weights,
    "decode_detections": _count_decode,
    "serialize_grounded": _count_serialize,
    "coco_map": _count_coco,
}


def span_cost(calls: int = 20000) -> float:
    """Seconds that recording one span adds to a call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    return ((clock() - t1) - (t1 - t0)) / calls


class Tracer:
    """Context manager that patches the traced functions and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, args, out)
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "regionkit" or n.startswith("regionkit.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"regionkit.{mod_name}"]
            for name in funcs:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        counters = self.counters
        for cls, key in ((gridops.FeatureMap, "featuremap.count"), (gridops.Kernel, "kernel.count")):
            original = cls.__post_init__

            def counted(obj, _original=original, _key=key):
                counters[_key] += 1
                _original(obj)

            self._set(cls, "__post_init__", counted)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # ------------------------------------------------------------- results

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= durations[i]
        return own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self seconds, plus the derived layer metrics."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        latency_ms: dict[str, list[float]] = {name: [] for name in _LATENCY}
        for i, name in enumerate(self.names):
            calls[name] += 1
            secs[name] += own[i]
            if name in latency_ms:
                latency_ms[name].append(1e3 * (self.ends[i] - self.starts[i]))
        out: dict[str, tuple[float, str]] = {}
        for funcs in TRACED.values():
            for name in funcs:
                out[f"{name}.calls"] = (calls[name], "count")
                if name not in _COUNTED_ONLY:
                    out[f"{name}.s"] = (secs[name], "s")
        c = self.counters
        out["pooled_weights.mb"] = (c["pooled_weights.bytes"] / 1e6, "MB")
        out["roialign.reuse"] = (
            calls["pooled_apply"] / calls["pooled_weights"] if calls["pooled_weights"] else 0.0, "1")
        out["featuremap.count"] = (c["featuremap.count"], "count")
        out["kernel.count"] = (c["kernel.count"], "count")
        for name, ms in latency_ms.items():
            if len(ms) >= 2:
                p50, p99 = statistics.median(ms), statistics.quantiles(ms, n=100)[98]
            else:
                p50 = p99 = ms[0] if ms else 0.0
            out[f"{name}.ms_p50"] = (p50, "ms")
            out[f"{name}.ms_p99"] = (p99, "ms")
        out["retrieval.detections"] = (c["retrieval.detections"], "count")
        out["retrieval.keep_ratio"] = (
            c["retrieval.detections"] / c["retrieval.pairs"] if c["retrieval.pairs"] else 0.0, "1")
        out["tokenproto.bytes"] = (c["tokenproto.bytes"], "bytes")
        out["coco_map.detections"] = (c["coco_map.detections"], "count")
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span, and ``extra``, as gzipped JSON."""
        index = {n: i for i, n in enumerate(dict.fromkeys(self.names))}
        doc = dict(extra)
        doc["span_names"] = list(index)
        doc["spans"] = [
            [index[n], s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt") as f:
            json.dump(doc, f)
