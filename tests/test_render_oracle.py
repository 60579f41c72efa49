"""The batched renderer against the per-box renderer it replaced.

The functions below are ``simworld``'s renderer as it was before painting
was batched, kept verbatim as the oracle: ``toy_encode`` (renamed
``oracle_toy_encode``), ``_coverage``, the per-slice ``_blur3`` and
``_edge_maps``.  The batched ``toy_encode`` must give bitwise the same
maps, whether it renders into a new canvas or into one it reuses.
"""

import numpy as np
import pytest

from regionkit.gridops import FeatureMap
from regionkit.roialign import Box
from regionkit.simworld import (
    Canvas, EncoderConfig, Scene, SceneConfig, generate_scene, reused_canvas, toy_encode, vocabulary,
)


def _coverage(box: Box, res: int) -> np.ndarray:
    """Fraction of each grid cell covered by the box (res x res, values in [0, 1])."""
    edges = np.arange(res + 1) / res
    cy = np.clip(np.minimum(box.y2, edges[1:]) - np.maximum(box.y1, edges[:-1]), 0.0, None) * res
    cx = np.clip(np.minimum(box.x2, edges[1:]) - np.maximum(box.x1, edges[:-1]), 0.0, None) * res
    return np.outer(cy, cx)


def _blur3(img: np.ndarray) -> np.ndarray:
    """3x3 binomial blur with zero padding, applied per 2-D slice."""
    pad = np.pad(img, 1)
    out = np.zeros_like(img)
    weights = {(-1, -1): 1, (-1, 0): 2, (-1, 1): 1, (0, -1): 2, (0, 0): 4, (0, 1): 2, (1, -1): 1, (1, 0): 2, (1, 1): 1}
    h, w = img.shape
    for (dy, dx), wt in weights.items():
        out += wt * pad[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    return out / 16.0


def _edge_maps(occupancy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ey = np.zeros_like(occupancy)
    ex = np.zeros_like(occupancy)
    ey[1:-1, :] = np.abs(occupancy[2:, :] - occupancy[:-2, :]) / 2.0
    ex[:, 1:-1] = np.abs(occupancy[:, 2:] - occupancy[:, :-2]) / 2.0
    return ey, ex


def oracle_toy_encode(scene: Scene, enc: EncoderConfig = EncoderConfig()) -> tuple[FeatureMap, list[FeatureMap]]:
    """Render a scene into (primary last map, four auxiliary maps).

    Deterministic in the scene seed: encoding the same scene twice yields
    bitwise-identical maps.
    """
    rng = np.random.default_rng([scene.seed, 0xE0C0DE])
    n_cat = scene.n_categories
    names = vocabulary(n_cat)
    cat_index = {name: i for i, name in enumerate(names)}

    # distractor smudges shared by both streams
    n_distract = int(rng.poisson(scene.clutter_density * 8))
    distractors: list[tuple[int, Box]] = []
    for _ in range(n_distract):
        w = float(rng.uniform(0.03, 0.10))
        h = float(rng.uniform(0.03, 0.10))
        x1 = float(rng.uniform(0.0, 1.0 - w))
        y1 = float(rng.uniform(0.0, 1.0 - h))
        distractors.append((int(rng.integers(n_cat)), Box(x1, y1, x1 + w, y1 + h)))

    def painted(res: int) -> np.ndarray:
        sig = np.zeros((n_cat, res, res))
        for cat, box in scene.objects:
            sig[cat_index[cat]] += _coverage(box, res)
        for ci, box in distractors:
            sig[ci] += enc.distractor_intensity * _coverage(box, res)
        return sig

    # primary stream: blurred semantics at low resolution
    pr = enc.primary_resolution
    c_pri = enc.primary_channels(n_cat)
    primary = np.zeros((c_pri, pr, pr))
    sig = painted(pr)
    occupancy = sig.sum(axis=0)
    for c in range(n_cat):
        primary[c] = _blur3(sig[c])
    primary[n_cat] = np.clip(1.0 - occupancy, 0.0, None)
    ramp = (np.arange(pr) + 0.5) / pr
    primary[n_cat + 1] = np.tile(ramp, (pr, 1))
    primary[n_cat + 2] = np.tile(ramp[:, None], (1, pr))
    primary += rng.normal(0.0, enc.noise_sigma, size=primary.shape)

    # auxiliary stream: sharp paired-category textures plus edges, four scales
    n_groups = (n_cat + 1) // 2
    aux_maps = []
    for level in range(4):
        res = enc.aux_base_resolution // (2**level)
        ch = EncoderConfig.aux_channels(n_cat)
        level_map = np.zeros((ch, res, res))
        sig_l = painted(res)
        for c in range(n_cat):
            level_map[c // 2] += sig_l[c]
        ey, ex = _edge_maps(sig_l.sum(axis=0))
        level_map[n_groups] = ey
        level_map[n_groups + 1] = ex
        level_map += rng.normal(0.0, enc.noise_sigma, size=level_map.shape)
        aux_maps.append(FeatureMap.from_array(level_map))

    return FeatureMap.from_array(primary), aux_maps


# odd and even category counts, 11 for the ``thing*`` names; no clutter and
# heavy clutter; scenes with no objects
_WORLDS = [
    SceneConfig(n_categories=n, min_objects=0, max_objects=8, clutter_density=c)
    for n in (1, 3, 5, 8, 11)
    for c in (0.0, 0.05, 0.5)
]
# the default encoder shares 16 between the primary map and aux level 2;
# 9 with base 40 shares none; 8 equals the default aux level 3; base 8
# makes aux level 3 a single cell, its own border on every side
_ENCODERS = [
    EncoderConfig(),
    EncoderConfig(primary_resolution=9, aux_base_resolution=40),
    EncoderConfig(primary_resolution=8),
    EncoderConfig(primary_resolution=4, aux_base_resolution=8),
]


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _scenes():
    return [generate_scene(1000 * k + seed, world) for k, world in enumerate(_WORLDS) for seed in range(14)]


def test_oracle_scenes_cover_the_cases():
    scenes = _scenes()
    assert len(scenes) >= 200
    assert {s.n_categories for s in scenes} == {1, 3, 5, 8, 11}
    assert any(not s.objects for s in scenes)
    assert {s.clutter_density for s in scenes} >= {0.0, 0.5}


def test_batched_render_matches_per_box_oracle_bitwise():
    rendered_distractors = False
    for scene in _scenes():
        rendered_distractors |= np.random.default_rng([scene.seed, 0xE0C0DE]).poisson(scene.clutter_density * 8) > 0
        for enc in _ENCODERS:
            primary, aux = toy_encode(scene, enc)
            want_primary, want_aux = oracle_toy_encode(scene, enc)
            _assert_bitwise(primary.data, want_primary.data)
            assert len(aux) == len(want_aux) == 4
            for got, want in zip(aux, want_aux):
                _assert_bitwise(got.data, want.data)
    assert rendered_distractors


# ------------------------------------------------------------- the canvas

# a render into a canvas overwrites every value it returns: consecutive
# renders go from many boxes to none, from padded primary channels to none
# and back, and from one category count and resolution set to another and
# back; at sigma 0 the scaled noise is +-0.0 where rng.normal gave +0.0
_CANVAS_RUNS = [
    (SceneConfig(n_categories=8, min_objects=8, max_objects=8, clutter_density=10.0), EncoderConfig()),
    (SceneConfig(n_categories=8, min_objects=0, max_objects=0, clutter_density=0.0), EncoderConfig()),
    (SceneConfig(n_categories=8, min_objects=0, max_objects=3, clutter_density=0.5), EncoderConfig()),
    (SceneConfig(n_categories=5, min_objects=0, max_objects=8, clutter_density=2.0),
     EncoderConfig(primary_resolution=9, aux_base_resolution=40)),
    (SceneConfig(n_categories=11, min_objects=0, max_objects=2, clutter_density=0.05),
     EncoderConfig(primary_resolution=9, aux_base_resolution=40, noise_sigma=0.0)),
    (SceneConfig(n_categories=8, min_objects=1, max_objects=8, clutter_density=0.05), EncoderConfig()),
]


def _canvas_scenes():
    for k, (world, enc) in enumerate(_CANVAS_RUNS):
        for seed in range(6):
            yield generate_scene(500 * k + seed, world), enc


def _assert_maps_equal(maps, want) -> None:
    (primary, aux), (want_primary, want_aux) = maps, want
    _assert_bitwise(primary.data, want_primary.data)
    assert len(aux) == len(want_aux) == 4
    for got, w in zip(aux, want_aux):
        _assert_bitwise(got.data, w.data)


def test_consecutive_renders_into_one_canvas_match_oracle_bitwise():
    """Each render into a reused canvas, the slot's or one held across the
    scenes of a config, is bitwise the oracle's; the slot keeps its canvas
    while the config stays and replaces it when the config changes."""
    box_counts, held, last = set(), {}, None
    for scene, enc in _canvas_scenes():
        key = (scene.n_categories, enc)
        slot = reused_canvas(*key)
        assert slot is reused_canvas(*key) and slot.key == key
        assert last is None or (slot is last) == (key == last.key)
        last = slot
        canvas = held.setdefault(key, Canvas(*key))
        want = oracle_toy_encode(scene, enc)
        _assert_maps_equal(toy_encode(scene, enc, slot), want)
        _assert_maps_equal(toy_encode(scene, enc, canvas), want)
        for m in [canvas.primary, *canvas.aux, slot.primary, *slot.aux]:
            assert np.all(m[-1] == 1.0)
        n_distract = np.random.default_rng([scene.seed, 0xE0C0DE]).poisson(scene.clutter_density * 8)
        box_counts.add(len(scene.objects) + n_distract)
    assert 0 in box_counts and max(box_counts) > 16
    with pytest.raises(ValueError, match="canvas"):
        toy_encode(scene, EncoderConfig(primary_resolution=8), canvas)


def test_maps_rendered_without_a_canvas_are_the_callers():
    """A render with no canvas returns maps that no later render writes."""
    scenes = [scene for scene, enc in _canvas_scenes() if enc == EncoderConfig() and scene.n_categories == 8]
    first = toy_encode(scenes[0])
    kept = [m.data.copy() for m in [first[0], *first[1]]]
    for scene in scenes[1:]:
        again = toy_encode(scene)
        into_slot = toy_encode(scene, EncoderConfig(), reused_canvas(8, EncoderConfig()))
        for m in [first[0], *first[1]]:
            assert not any(np.shares_memory(m.data, o.data) for o in [*again[1], again[0], *into_slot[1], into_slot[0]])
    for m, k in zip([first[0], *first[1]], kept):
        _assert_bitwise(m.data, k)
