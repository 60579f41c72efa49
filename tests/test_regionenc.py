"""Hybrid region encoding: pooling composition, positional embeddings, connector."""

import dataclasses

import numpy as np
import pytest

from regionkit.config import STREAMS
from regionkit.gridops import FeatureMap
from regionkit.regionenc import (
    Connector,
    connector_backward,
    connector_forward,
    positional_embedding_matrix,
)
from regionkit.roialign import Box, RoiConfig, pooled_apply, pooled_weights, roi_align_pooled
from regionkit import baseline, training
from regionkit.experiments import EvalScene, make_eval_scenes
from regionkit.simworld import make_training_set
from regionkit.training import GROUP_CONNECTOR, init_model_params, prepare_sample, region_token_matrix


def oracle_positional_embedding(box: Box, dim: int) -> np.ndarray:
    """Direct evaluation of the stated formula, scalar by scalar."""
    block = dim // 4
    out = np.zeros(dim)
    for ci, coord in enumerate((box.x1, box.y1, box.x2, box.y2)):
        v = 2.0 * np.pi * coord
        for i in range(block // 2):
            omega = 1.0 / (10000.0 ** (2.0 * i / block))
            out[ci * block + 2 * i] = np.sin(v * omega)
            out[ci * block + 2 * i + 1] = np.cos(v * omega)
    return out


def per_box_positional_embedding(box: Box, dim: int) -> np.ndarray:
    """The per-box loop the embedding ran before the matrix form:
    the same arithmetic, one coordinate block at a time."""
    block = dim // 4
    freqs = 10000.0 ** (-2.0 * np.arange(block // 2) / block)
    out = np.empty(dim)
    for i, coord in enumerate((box.x1, box.y1, box.x2, box.y2)):
        phase = (2.0 * np.pi * coord) * freqs
        out[i * block : (i + 1) * block : 2] = np.sin(phase)
        out[i * block + 1 : (i + 1) * block : 2] = np.cos(phase)
    return out


def make_pyramid(rng, channels=2, value=None):
    maps = []
    for i, size in enumerate((4, 8, 16, 32)):
        if value is None:
            data = rng.normal(size=(channels, size, size))
        else:
            data = np.full((channels, size, size), float(value(i)))
        maps.append(FeatureMap.from_array(data))
    return maps


def pool_pyramid(pyramid, boxes, cfg=RoiConfig()):
    """Per-region primary features: the pooled scales side by side."""
    return np.concatenate([roi_align_pooled(level, boxes, cfg) for level in pyramid], axis=1)


# ------------------------------------------------------- region pooling

def test_constant_pyramid_blocks_survive_pooling():
    rng = np.random.default_rng(0)
    pyramid = make_pyramid(rng, channels=3, value=lambda i: i + 1.0)
    aux = FeatureMap.full(2, 16, 16, 7.0)
    boxes = [Box(0.1, 0.1, 0.6, 0.6), Box(0.2, 0.3, 0.9, 0.8)]
    pri, auxf = pool_pyramid(pyramid, boxes), roi_align_pooled(aux, boxes)
    assert pri.shape == (2, 12) and auxf.shape == (2, 2)
    for i, expected in enumerate((1.0, 2.0, 3.0, 4.0)):
        np.testing.assert_allclose(pri[:, 3 * i : 3 * (i + 1)], expected, atol=1e-12)
    np.testing.assert_allclose(auxf, 7.0, atol=1e-12)


def test_extract_matches_per_scale_pooling():
    """Pooling weights depend only on the map size, so the training
    forward's per-size cache pools every scale as roi_align_pooled does."""
    rng = np.random.default_rng(1)
    boxes = [Box(0.05, 0.1, 0.5, 0.7), Box(0.3, 0.2, 0.9, 0.6)]
    for level, other in zip(make_pyramid(rng), make_pyramid(rng, channels=3)):
        weights = pooled_weights(level.height, level.width, boxes)
        for fmap in (level, other):
            np.testing.assert_array_equal(pooled_apply(weights, fmap.data), roi_align_pooled(fmap, boxes))


def test_extract_row_count_and_order():
    rng = np.random.default_rng(2)
    pyramid = make_pyramid(rng)
    boxes = [Box(0.0, 0.0, 0.3, 0.3), Box(0.4, 0.4, 0.9, 0.9), Box(0.1, 0.5, 0.3, 0.8)]
    pri = pool_pyramid(pyramid, boxes)
    assert pri.shape[0] == 3
    single = pool_pyramid(pyramid, [boxes[1]])
    np.testing.assert_allclose(pri[1], single[0], atol=1e-12)


# ---------------------------------------------------- positional embedding

def test_zero_box_embedding_is_sin0_cos1():
    e = positional_embedding_matrix([Box(0, 0, 0, 0)], 16)[0]
    np.testing.assert_allclose(e[0::2], 0.0, atol=1e-15)
    np.testing.assert_allclose(e[1::2], 1.0, atol=1e-15)


def test_embedding_pairs_on_unit_circle():
    e = positional_embedding_matrix([Box(0.3, 0.7, 0.8, 0.95)], 32)[0]
    pair_norm = e[0::2] ** 2 + e[1::2] ** 2
    np.testing.assert_allclose(pair_norm, 1.0, atol=1e-12)


def test_embedding_matches_formula_oracle():
    box = Box(0.25, 0.5, 0.75, 1.0)
    got = positional_embedding_matrix([box], 16)[0]
    np.testing.assert_allclose(got, oracle_positional_embedding(box, 16), atol=1e-12)


def test_embedding_rejects_bad_dim():
    with pytest.raises(ValueError):
        positional_embedding_matrix([Box(0, 0, 1, 1)], 12)


def test_embedding_matrix_equals_stacked_per_box_arithmetic_bitwise():
    rng = np.random.default_rng(12)
    for dim in (8, 16, 40, 104, 472):
        for n in (1, 2, 5, 33):
            corners = np.sort(rng.uniform(size=(n, 2, 2)), axis=2)  # (box, axis, lo/hi)
            boxes = [Box(c[0, 0], c[1, 0], c[0, 1], c[1, 1]) for c in corners]
            got = positional_embedding_matrix(boxes, dim)
            want = np.stack([per_box_positional_embedding(b, dim) for b in boxes])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    np.testing.assert_allclose(
        positional_embedding_matrix(boxes, 16), np.stack([oracle_positional_embedding(b, 16) for b in boxes]), atol=1e-12
    )


def test_embedding_depends_only_on_coordinates():
    a = positional_embedding_matrix([Box(0.1, 0.2, 0.5, 0.6, score=0.9, label="car")], 24)[0]
    b = positional_embedding_matrix([Box(0.1, 0.2, 0.5, 0.6)], 24)[0]
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------ hybrid features

def test_zero_features_fuse_to_positional_embedding(tiny_config):
    """With every map zero, each region's hybrid feature is its box
    embedding alone, so its token is the connector applied to that."""
    params = init_model_params(tiny_config)
    for group, arrs in params.groups.items():
        if group != GROUP_CONNECTOR:
            for arr in arrs.values():
                arr[...] = 0.0
    sample = make_training_set(1, 0.0, seed=5, scene_config=tiny_config.world,
                               proposal_config=tiny_config.proposals)[0]
    s = prepare_sample(params, sample, tiny_config)
    np.testing.assert_array_equal(s.epos, positional_embedding_matrix(list(sample.proposals), tiny_config.d_total))
    c = params.groups[GROUP_CONNECTOR]
    expected = connector_forward(Connector(c["w1"], c["b1"], c["w2"], c["b2"]), s.epos)
    np.testing.assert_array_equal(region_token_matrix(params, s), expected)


def test_fuse_reference_scale_dimension():
    boxes = [Box(0.1, 0.1, 0.5, 0.5)]
    f_hybrid = np.concatenate([np.zeros((1, 2048)), np.zeros((1, 3840))], axis=1)
    f_hybrid = f_hybrid + positional_embedding_matrix(boxes, f_hybrid.shape[1])
    assert f_hybrid.shape == (1, 5888)


# ---------------------------------------------------------------- connector

def test_connector_zero_weights_collapse_to_final_bias():
    conn = Connector(
        w1=np.zeros((4, 6)), b1=np.full(4, 0.3), w2=np.zeros((5, 4)), b2=np.arange(5.0)
    )
    out = connector_forward(conn, np.random.default_rng(0).normal(size=(3, 6)))
    for row in out:
        np.testing.assert_array_equal(row, np.arange(5.0))


def test_connector_matches_matmul_oracle():
    rng = np.random.default_rng(2)
    conn = Connector.seeded(6, 3, rng, hidden_dim=5)
    x = rng.normal(size=(4, 6))
    got = connector_forward(conn, x)
    want = np.tanh(x @ conn.w1.T + conn.b1) @ conn.w2.T + conn.b2
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_connector_rejects_width_mismatch():
    conn = Connector.seeded(6, 3, np.random.default_rng(3))
    with pytest.raises(ValueError):
        connector_forward(conn, np.zeros((2, 5)))


def test_connector_backward_zero_upstream():
    rng = np.random.default_rng(4)
    conn = Connector.seeded(5, 4, rng)
    grads, d_in = connector_backward(conn, rng.normal(size=(3, 5)), np.zeros((3, 4)))
    assert all(np.all(g == 0) for g in grads.values())
    assert np.all(d_in == 0)


def test_connector_final_bias_gradient_is_column_sum():
    rng = np.random.default_rng(5)
    conn = Connector.seeded(5, 4, rng)
    upstream = rng.normal(size=(6, 4))
    grads, _ = connector_backward(conn, rng.normal(size=(6, 5)), upstream)
    np.testing.assert_allclose(grads["b2"], upstream.sum(axis=0), atol=1e-12)


def test_connector_gradcheck_wide_configuration():
    """Finite differences on a sampled subset of a 5888 -> 64 -> 32 connector."""
    rng = np.random.default_rng(6)
    conn = Connector.seeded(5888, 32, rng, hidden_dim=64)
    x = rng.normal(size=(3, 5888))
    upstream = rng.normal(size=(3, 32))
    grads, d_in = connector_backward(conn, x, upstream)

    def loss():
        return float(np.sum(connector_forward(conn, x) * upstream))

    step = 1e-5
    checks = [(conn.w1, grads["w1"]), (conn.b1, grads["b1"]), (conn.w2, grads["w2"]),
              (conn.b2, grads["b2"]), (x, d_in)]
    worst = 0.0
    pick_rng = np.random.default_rng(7)
    for arr, grad in checks:
        flat = arr.ravel()
        picks = pick_rng.choice(flat.size, size=min(30, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            a = grad.ravel()[i]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-5))
    assert worst < 1e-4


def oracle_connector_backward(conn, f_hybrid, upstream, hidden=None, input_grad=True, out=None):
    """The backward before it took the forward's activations: it recomputes
    the tanh layer and always returns the input gradient.  ``hidden`` and
    ``input_grad`` are accepted and ignored; each gradient that ``out``
    names (the input's at ``"input"``) is copied into its array, and that
    array returned."""
    f = np.atleast_2d(f_hybrid)
    g = np.atleast_2d(upstream)
    hidden = np.tanh(f @ conn.w1.T + conn.b1)
    d_w2 = g.T @ hidden
    d_b2 = g.sum(axis=0)
    d_hidden = g @ conn.w2
    d_pre = d_hidden * (1.0 - hidden**2)
    d_w1 = d_pre.T @ f
    d_b1 = d_pre.sum(axis=0)
    d_f = d_pre @ conn.w1
    grads = {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2, "input": d_f}
    for name, d in grads.items():
        if name in (out or {}):
            out[name][...] = d
            grads[name] = out[name]
    return grads, grads.pop("input")


def test_connector_backward_with_forward_activations_matches_recompute_bitwise():
    rng = np.random.default_rng(9)
    conn = Connector.seeded(7, 5, rng, hidden_dim=6)
    x, upstream = rng.normal(size=(4, 7)), rng.normal(size=(4, 5))
    out, hidden = connector_forward(conn, x, with_hidden=True)
    assert out.tobytes() == connector_forward(conn, x).tobytes()
    grads, d_in = connector_backward(conn, x, upstream, hidden=hidden)
    want, want_d_in = oracle_connector_backward(conn, x, upstream)
    assert d_in.tobytes() == want_d_in.tobytes()
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes()
    assert connector_backward(conn, x, upstream, hidden=hidden, input_grad=False)[1] is None


def test_connector_backward_writes_its_gradients_into_out():
    rng = np.random.default_rng(10)
    conn = Connector.seeded(7, 5, rng, hidden_dim=6)
    x, upstream = rng.normal(size=(4, 7)), rng.normal(size=(4, 5))
    want, want_d_in = connector_backward(conn, x, upstream)
    buffer = np.full(sum(d.size for d in want.values()), np.nan)
    out, start = {}, 0
    for name, d in want.items():
        out[name] = buffer[start : start + d.size].reshape(d.shape)
        start += d.size
    grads, d_in = connector_backward(conn, x, upstream, out=out)
    assert d_in.tobytes() == want_d_in.tobytes()
    for name, d in want.items():
        assert grads[name] is out[name] and out[name].tobytes() == d.tobytes()
    assert buffer.tobytes() == np.concatenate([d.ravel() for d in want.values()]).tobytes()


def test_connector_backward_writes_the_input_gradient_into_out():
    """``out["input"]`` receives the input gradient, alone or beside the
    parameter gradients; a gradient ``out`` does not name is a new array."""
    rng = np.random.default_rng(11)
    conn = Connector.seeded(7, 5, rng, hidden_dim=6)
    x, upstream = rng.normal(size=(4, 7)), rng.normal(size=(4, 5))
    want, want_d_in = connector_backward(conn, x, upstream)
    for names in ((), ("w1", "b2")):
        out = {name: np.full_like(want[name], np.nan) for name in names}
        out["input"] = np.full_like(want_d_in, np.nan)
        grads, d_in = connector_backward(conn, x, upstream, out=out)
        assert d_in is out["input"] and d_in.tobytes() == want_d_in.tobytes()
        for name, d in want.items():
            assert (grads[name] is out.get(name)) == (name in names) and grads[name].tobytes() == d.tobytes()
        oracle_grads, oracle_d_in = oracle_connector_backward(conn, x, upstream, out=out)
        assert oracle_d_in is out["input"] and all((oracle_grads[n] is out.get(n)) == (n in names) for n in want)
    assert connector_backward(conn, x, upstream, input_grad=False, out=out)[1] is None


def _route_shapes(configs):
    """(N, Q, D, H, O, categories) of every product the retrieval head's
    step and scoring meet under ``configs``, and the baseline head's
    one-row connector: N from one proposal up, Q from one query up."""
    shapes = set()
    for cfg in configs:
        for n in [*range(1, 21), cfg.proposals.max_proposals]:
            for q in range(1, cfg.n_categories + 1):
                shapes.add((n, q, cfg.d_total, cfg.d_llm, cfg.d_llm, cfg.n_categories))
        out = baseline.SLOTS * (5 + cfg.n_categories)
        shapes.add((1, 1, cfg.primary_channels * baseline.POOL**2, cfg.d_llm, out, cfg.n_categories))
    return sorted(shapes)


def _dot_route_products(rng, n, q, d, h, o, categories):
    """Each 2-D product the code runs as ``np.dot``, by name, its operands
    laid out as the code lays them out (a transpose is a view)."""
    f, w1, w2 = rng.normal(size=(n, d)), rng.normal(size=(h, d)), rng.normal(size=(o, h))
    hidden, g, d_pre = np.tanh(rng.normal(size=(n, h))), rng.normal(size=(n, o)), rng.normal(size=(n, h))
    table = rng.normal(size=(categories, o))
    queries, d_logits = table[rng.permutation(categories)[:q]], rng.normal(size=(n, q))
    return {
        "connector forward, first layer": (f, w1.T),
        "connector forward, second layer": (hidden, w2.T),
        "connector backward, w2": (g.T, hidden),
        "connector backward, hidden": (g, w2),
        "connector backward, w1": (d_pre.T, f),
        "connector backward, input": (d_pre, w1),
        "step logits": (g, queries.T),
        "step query gradient": (d_logits.T, g),
        "step upstream": (d_logits, queries),
        "score_matrix": (g, table[:q].T),
    }


def test_dot_route_has_matmul_bytes_at_every_shape_met(default_config, tiny_config):
    """``np.dot`` and ``np.matmul`` reach the same BLAS routine: each
    product moved to ``np.dot``, with or without ``out``, has the bytes of
    ``np.matmul`` at every shape the default and tiny configs' variants
    meet, one proposal and one query among them."""
    configs = [cfg.replace(streams=v) for cfg in (default_config, tiny_config) for v in sorted(STREAMS)]
    rng = np.random.default_rng(12)
    for shape in _route_shapes(configs):
        for name, (a, b) in _dot_route_products(rng, *shape).items():
            want = np.matmul(a, b).tobytes()
            into = np.empty((a.shape[0], b.shape[1]))
            assert np.dot(a, b).tobytes() == want, (name, shape)
            assert np.dot(a, b, out=into) is into and into.tobytes() == want, (name, shape)


def test_trained_parameters_equal_under_recomputing_backward(default_config, trained_default, monkeypatch):
    """Seed 7, default budget: the retrieval head and the baseline train to
    the same bits with the old, recomputing backward."""
    head, _ = baseline.train_baseline(default_config)
    monkeypatch.setattr(training, "connector_backward", oracle_connector_backward)
    monkeypatch.setattr(baseline, "connector_backward", oracle_connector_backward)
    params, _ = training.train(default_config)
    assert params.checksums() == trained_default[0].checksums()
    oracle_head, _ = baseline.train_baseline(default_config)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(head.mlp, name).tobytes() == getattr(oracle_head.mlp, name).tobytes()


# ------------------------------------------------------------ region tokens

def test_region_tokens_deterministic_and_equivariant(tiny_config):
    """Permuting a sample's proposals permutes the token rows, bitwise."""
    params = init_model_params(tiny_config)
    sample = make_training_set(1, 0.0, seed=8, scene_config=tiny_config.world,
                               proposal_config=tiny_config.proposals)[0]
    assert len(sample.proposals) >= 3
    tokens = region_token_matrix(params, prepare_sample(params, sample, tiny_config))
    again = region_token_matrix(params, prepare_sample(params, sample, tiny_config))
    np.testing.assert_array_equal(tokens, again)

    perm = np.random.default_rng(8).permutation(len(sample.proposals))
    assert list(perm) != sorted(perm)
    permuted_sample = dataclasses.replace(
        sample, proposals=tuple(sample.proposals[i] for i in perm), targets=sample.targets[perm]
    )
    permuted = region_token_matrix(params, prepare_sample(params, permuted_sample, tiny_config))
    np.testing.assert_array_equal(permuted, tokens[perm])


def test_default_scenes_parts_and_tokens_permute_with_their_proposals(default_config):
    """Over default eval scenes of 2 to 14 proposals, permuting the
    proposals permutes every prepared part and the token rows, bitwise: the
    pooling's 2-D product over all (box, tap) rows keeps a box's row
    independent of where the box sits."""
    params = init_model_params(default_config)
    rng = np.random.default_rng(22)
    checked = set()
    for k, full in enumerate(make_eval_scenes(default_config, n_scenes=80)):
        # the first 2, 3, ..., 14 proposals in turn, as many as the scene has
        scene = EvalScene(full.scene, full.proposals[: 2 + k % 13])
        n = len(scene.proposals)
        perm = rng.permutation(n)
        if list(perm) == sorted(perm):
            perm = perm[::-1]
        static = prepare_sample(params, scene, default_config)
        tokens = region_token_matrix(params, static)
        permuted = prepare_sample(params, EvalScene(scene.scene, [scene.proposals[i] for i in perm]), default_config)
        for (_, arrays), (_, permuted_arrays) in zip(static.parts, permuted.parts, strict=True):
            for a, b in zip(arrays, permuted_arrays, strict=True):
                assert a[perm].tobytes() == b.tobytes()
        assert region_token_matrix(params, permuted).tobytes() == tokens[perm].tobytes()
        checked.add((scene.scene.seed, n))
    assert len(checked) >= 50 and min(n for _, n in checked) == 2 and max(n for _, n in checked) == 14


def test_one_proposal_scene_token_agrees_to_1e12(default_config):
    """A box alone in a scene gets its region token to 1e-12 relative of
    its row among the scene's other proposals.  Not bitwise: the
    connector's products take another BLAS path for a single row."""
    params = init_model_params(default_config)
    for scene in make_eval_scenes(default_config)[:20]:
        tokens = region_token_matrix(params, prepare_sample(params, scene, default_config))
        for i, box in enumerate(scene.proposals[:3]):
            alone = prepare_sample(params, EvalScene(scene.scene, [box]), default_config)
            row = region_token_matrix(params, alone)
            assert row.shape == (1, tokens.shape[1])
            assert np.max(np.abs(row[0] - tokens[i])) <= 1e-12 * np.max(np.abs(tokens[i]))
