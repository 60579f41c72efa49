"""Retrieval-based detection decoding.

Detection here is a lookup, not a generation problem: each region token (a
row of the token matrix) is scored independently against every category
query (a row of the query table) with a logistic over the dot product, and
any (region, category) pair above the threshold becomes a detection that
reuses the proposal's box verbatim.  A category whose scores all stay
below the threshold yields nothing — rejection is the default outcome, not
an error.  Counting is decode-then-count: decode a scene's detections
once, then count each category's among them.

There is no non-maximum suppression; proposals are assumed to come from a
detector that already deduplicates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .roialign import Box
from .tokenproto import GroundedResponse, GroundedSpan

__all__ = [
    "Detection",
    "logistic",
    "score_matrix",
    "decode_detections",
    "detect_then_count",
    "grounded_to_detections",
    "emit_grounded_summary",
]


@dataclass(frozen=True)
class Detection:
    """One decoded detection; the box is always the source proposal's box."""

    box: Box
    label: str
    confidence: float
    source_region: int


def logistic(z: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-z)), in a form that never overflows: with
    e = exp(-|z|), 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere.
    ``min(z, -z)`` is -|z| but keeps a NaN's sign, which flows through."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def score_matrix(token_embeddings: np.ndarray, query_embeddings: np.ndarray) -> np.ndarray:
    """(N, Q) logistic scores of every region token (row of ``token_embeddings``)
    against every category query (row of ``query_embeddings``); entries in [0, 1].

    The product is ``np.dot``: the same BLAS routine and bytes as ``@``,
    without the ufunc dispatch, which is a third of a product this small."""
    t = np.atleast_2d(token_embeddings)
    q = np.atleast_2d(query_embeddings)
    if t.shape[1] != q.shape[1]:
        raise ValueError(f"token dim {t.shape[1]} does not match query dim {q.shape[1]}")
    return logistic(np.dot(t, q.T))


def decode_detections(
    scores: np.ndarray,
    proposals: list[Box],
    labels: Sequence[str],
    threshold: float = 0.5,
) -> list[Detection]:
    """One detection per (region, category) score strictly above the threshold;
    column q of ``scores`` belongs to category ``labels[q]``.

    Output is ordered by confidence descending, ties broken by lower region
    index then category order.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    scores = np.atleast_2d(scores)
    if scores.shape != (len(proposals), len(labels)):
        raise ValueError("score matrix shape must be (n_proposals, n_labels)")
    rows, cols = np.nonzero(scores > threshold)
    hits = sorted(zip((-scores[rows, cols]).tolist(), rows.tolist(), cols.tolist()))
    return [
        Detection(box=proposals[i], label=labels[q], confidence=-neg, source_region=i)
        for neg, i, q in hits
    ]


def detect_then_count(detections: list[Detection], label: str) -> int:
    """Count instances of one category among decoded detections: each
    detection reuses one proposal, so the count is their number."""
    return sum(d.label == label for d in detections)


def grounded_to_detections(resp: GroundedResponse, proposals: list[Box]) -> list[Detection]:
    """Turn each grounded span's region references into confidence-1.0
    detections labelled with the span's phrase."""
    out = []
    for node in resp.nodes:
        if not isinstance(node, GroundedSpan):
            continue
        for idx in node.regions:
            if idx >= len(proposals):
                raise ValueError(f"region index {idx} out of range for {len(proposals)} proposals")
            out.append(Detection(box=proposals[idx], label=node.phrase, confidence=1.0, source_region=idx))
    return out


def emit_grounded_summary(detections: list[Detection]) -> str:
    """Template emitter: render detections as one grounded sentence per category.

    Categories appear in first-detection order; regions within a span are
    ordered by region index.
    """
    by_label: dict[str, list[int]] = {}
    for d in detections:
        by_label.setdefault(d.label, []).append(d.source_region)
    parts = []
    for label, regions in by_label.items():
        refs = "".join(f"<region{r}>" for r in sorted(set(regions)))
        parts.append(f"<ground>{label}</ground><object>{refs}</object>")
    if not parts:
        return "nothing detected"
    return "found " + " ".join(parts)
