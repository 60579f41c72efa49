"""Retrieval scoring and decoding against enumeration oracles.

``oracle_logistic`` and ``oracle_decode_detections`` are ``logistic`` and
``decode_detections`` as they were before they became one ``np.where``
and one ``np.nonzero`` over the scores, kept verbatim (but for the
names): the production functions must give the same bytes.
"""

import numpy as np
import pytest

from regionkit.retrieval import (
    Detection,
    decode_detections,
    detect_then_count,
    emit_grounded_summary,
    grounded_to_detections,
    logistic,
    score_matrix,
)
from regionkit.roialign import Box
from regionkit.tokenproto import parse_grounded


def boxes(n):
    out = []
    for i in range(n):
        x = 0.05 + 0.08 * i
        out.append(Box(x, 0.1, x + 0.07, 0.3))
    return out


# ---------------------------------------------------------------- scoring

def test_zero_token_scores_half():
    s = score_matrix(np.zeros((1, 3)), np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]]))
    np.testing.assert_allclose(s, 0.5)


def test_aligned_token_saturates():
    q = np.array([1.0, 2.0, 0.5])
    s = score_matrix(q * 50, q)
    assert s[0, 0] > 0.999999
    # logits far beyond exp's range in either sign score 1 and 0, never overflow
    with np.errstate(over="raise"):
        s = score_matrix(np.array([[1e3], [-1e3]]), np.array([[1e3]]))
    assert s[0, 0] == 1.0 and s[1, 0] == 0.0


def test_scores_match_dot_product_oracle():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(4, 6))
    q = rng.normal(size=(3, 6))
    s = score_matrix(t, q)
    want = 1.0 / (1.0 + np.exp(-(t @ q.T)))
    np.testing.assert_allclose(s, want, atol=1e-9)


def test_score_dimension_mismatch():
    with pytest.raises(ValueError, match="token dim 2 does not match query dim 3"):
        score_matrix(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0, 3.0]]))


def oracle_logistic(z: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-z)), in a form that never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_logistic_equals_the_masked_oracle_bytewise():
    """Signed zeros, subnormal-range and overflow-range exponents, infinities
    and NaNs of both signs, in (N, Q) blocks as ``score_matrix`` passes them."""
    special = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
               np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 36.7, -36.7, 0.5, -0.5]
    rng = np.random.default_rng(12)
    grids = [np.array(special), np.array(special).reshape(2, -1), rng.normal(0.0, 30.0, size=(40, 8)),
             np.zeros((0, 8)), np.array(special[:1])]
    with np.errstate(all="ignore"):
        for z in grids:
            got, want = logistic(z), oracle_logistic(z)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------- decoding

def oracle_decode_detections(scores, proposals, labels, threshold=0.5):
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
    hits = []
    for i in range(scores.shape[0]):
        for q in range(scores.shape[1]):
            s = float(scores[i, q])
            if s > threshold:
                hits.append((-s, i, q))
    hits.sort()
    return [
        Detection(box=proposals[i], label=labels[q], confidence=-neg, source_region=i)
        for neg, i, q in hits
    ]


def test_decode_equals_the_loop_oracle():
    """Ties across regions and across categories, scores exactly at the
    threshold, NaNs, and empty and one-row matrices decode as the loop did."""
    rng = np.random.default_rng(21)
    levels = np.array([0.25, 0.5, 0.5, 0.625, 0.75, 0.75, 0.875, 1.0, np.nan])
    cases = []
    for _ in range(200):
        n, q = int(rng.integers(0, 9)), int(rng.integers(1, 6))
        tied = rng.choice(levels, size=(n, q))  # exact binary fractions: many ties, many at 0.5
        drawn = rng.uniform(size=(n, q))
        cases.append((np.where(rng.uniform(size=(n, q)) < 0.7, tied, drawn), float(rng.choice([0.5, 0.75, 0.3]))))
    cases.append((np.full((3, 4), 0.75), 0.75))  # every score exactly at the threshold
    cases.append((np.array([0.9, 0.9, 0.6]), 0.5))  # one row of ties across categories
    seen_ties = 0
    for scores, threshold in cases:
        props = boxes(np.atleast_2d(scores).shape[0])
        labels = [f"c{k}" for k in range(np.atleast_2d(scores).shape[1])]
        got = decode_detections(scores, props, labels, threshold)
        want = oracle_decode_detections(scores, props, labels, threshold)
        assert repr(got) == repr(want)
        assert all(type(d.confidence) is float and type(d.source_region) is int for d in got)
        confs = [d.confidence for d in want]
        seen_ties += len(confs) - len(set(confs))
    assert seen_ties > 100

def test_all_below_threshold_rejects_everything():
    scores = np.full((3, 2), 0.4)
    assert decode_detections(scores, boxes(3), ["a", "b"], 0.5) == []


def test_single_hit_reuses_proposal_box():
    props = boxes(2)
    scores = np.array([[0.2], [0.9]])
    dets = decode_detections(scores, props, ["a"], 0.5)
    assert len(dets) == 1
    assert dets[0].box == props[1]
    assert dets[0].confidence == 0.9
    assert dets[0].source_region == 1


def test_decode_matches_enumeration_oracle():
    scores = np.array([[0.9, 0.1], [0.55, 0.55], [0.2, 0.8]])
    props = boxes(3)
    labels = ["a", "b"]
    dets = decode_detections(scores, props, labels, 0.5)
    expected = set()
    for i in range(3):
        for q, label in enumerate(labels):
            if scores[i, q] > 0.5:
                expected.add((i, label, scores[i, q]))
    assert {(d.source_region, d.label, d.confidence) for d in dets} == expected
    # sorted by confidence desc, ties by lower region index
    confs = [d.confidence for d in dets]
    assert confs == sorted(confs, reverse=True)
    tied = [d.source_region for d in dets if d.confidence == 0.55]
    assert tied == sorted(tied)


def test_threshold_monotonicity():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=(6, 3))
    props = boxes(6)
    labels = [f"c{i}" for i in range(3)]
    counts = [len(decode_detections(scores, props, labels, t)) for t in (0.2, 0.4, 0.6, 0.8)]
    assert counts == sorted(counts, reverse=True)


def test_zero_query_embedding_rejected_above_half():
    tokens = np.random.default_rng(2).normal(size=(5, 4))
    scores = score_matrix(tokens, np.zeros((1, 4)))
    assert decode_detections(scores, boxes(5), ["void"], 0.51) == []


def test_decode_threshold_validation():
    with pytest.raises(ValueError):
        decode_detections(np.zeros((1, 1)), boxes(1), ["a"], 1.0)


# ---------------------------------------------------------------- counting

def test_count_zero_and_three():
    scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.2], [0.4, 0.7]])
    dets = decode_detections(scores, boxes(4), ["a", "b"], 0.5)
    assert detect_then_count(dets, "a") == 0
    assert detect_then_count(dets, "b") == 3


def test_count_equals_decode_length_randomized():
    """A label's count among a scene's detections is the length of the
    decode of that label's score column alone."""
    rng, labels, props = np.random.default_rng(3), ["a", "b", "c"], boxes(5)
    for _ in range(20):
        scores, threshold = rng.uniform(size=(5, 3)), float(rng.uniform(0.2, 0.8))
        dets = decode_detections(scores, props, labels, threshold)
        for q, label in enumerate(labels):
            assert detect_then_count(dets, label) == len(decode_detections(scores[:, [q]], props, [label], threshold))


# --------------------------------------------------------- grounded route

def test_grounded_response_to_detections():
    s = "The <ground>people</ground><object><region2><region10></object> are dancing."
    resp = parse_grounded(s, 11)
    props = boxes(11)
    dets = grounded_to_detections(resp, props)
    assert [(d.source_region, d.label, d.confidence) for d in dets] == [
        (2, "people", 1.0),
        (10, "people", 1.0),
    ]
    assert dets[0].box == props[2]


def test_grounded_empty_response():
    assert grounded_to_detections(parse_grounded("nothing here", 4), boxes(4)) == []


def test_grounded_duplicate_region_across_spans():
    s = "<ground>a</ground><object><region1></object><ground>b</ground><object><region1></object>"
    dets = grounded_to_detections(parse_grounded(s, 4), boxes(4))
    assert len(dets) == 2
    assert dets[0].box == dets[1].box
    assert {d.label for d in dets} == {"a", "b"}


def test_grounded_out_of_range_region():
    resp = parse_grounded("<ground>a</ground><object><region3></object>", 4)
    with pytest.raises(ValueError):
        grounded_to_detections(resp, boxes(2))


# ------------------------------------------------------------- interfaces

def test_template_emitter_round_trips_through_parser():
    props = boxes(6)
    dets = [
        Detection(box=props[2], label="car", confidence=0.9, source_region=2),
        Detection(box=props[0], label="car", confidence=0.8, source_region=0),
        Detection(box=props[5], label="tree", confidence=0.7, source_region=5),
    ]
    text = emit_grounded_summary(dets)
    resp = parse_grounded(text, 6)
    back = grounded_to_detections(resp, props)
    assert {(d.label, d.source_region) for d in back} == {("car", 0), ("car", 2), ("tree", 5)}
    assert emit_grounded_summary([]) == "nothing detected"
