"""The serving path is fixed: a trained bundle serves the same bits.

The default config's seed-7 bundle (``trained_default``) serves the first
60 default eval scenes through ``prepare_sample``, ``region_token_matrix``,
``experiments.detections_for_scene`` and ``metrics.coco_map``.  Each stage's
output hashes as it always has, as ``test_world_oracle`` pins the world:
any rewrite of that path must keep every bit it hands on.
"""

import hashlib

import numpy as np
import pytest

from regionkit import experiments
from regionkit.metrics import coco_map
from regionkit.simworld import vocabulary
from regionkit.training import prepare_sample, region_token_matrix

SCENES = 60

SERVING_PINS = {
    "parts": "d72dc1a46f0aab4e917b236ab9b6431f75c5af962edbd05c3ce071dd4560b37e",
    "tokens": "0f865081b75c903b024dedbfe426502dc7869f8df69a7514e53e7a6221f10f0a",
    "detections": "f738e4351909a259ff6b859388b8c6b6607b8b836d8870992787ca2af10c1eee",
    "report": "a87a96ad2dcac685e9a70705ccc99260df098636bcbdc2fa43e32aaad7ae74e9",
}


def _update(h, a: np.ndarray) -> None:
    h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())


@pytest.fixture(scope="module")
def served(default_config, trained_default):
    """{stage: sha256} over the served scenes, in scene order."""
    params, _ = trained_default
    scenes = experiments.make_eval_scenes(default_config, n_scenes=SCENES)
    h = {name: hashlib.sha256() for name in SERVING_PINS}
    detections, truth = {}, {}
    for ev in scenes:
        s = prepare_sample(params, ev, default_config)
        for grp, arrays in s.parts:
            h["parts"].update(repr(grp).encode())
            for a in arrays:
                _update(h["parts"], a)
        _update(h["parts"], s.epos)
        _update(h["tokens"], region_token_matrix(params, s))
        dets = experiments.detections_for_scene(params, ev, default_config)
        h["detections"].update(repr(dets).encode())
        detections[ev.scene.image_id] = dets
        truth[ev.scene.image_id] = list(ev.scene.objects)
    report = coco_map(detections, truth, categories=list(vocabulary(default_config.n_categories)))
    h["report"].update(repr(report).encode())
    assert len(scenes) == SCENES
    return {name: d.hexdigest() for name, d in h.items()}


@pytest.mark.parametrize("name", sorted(SERVING_PINS))
def test_served_bits_are_fixed(served, name):
    assert served[name] == SERVING_PINS[name]
