"""What the benchmark needs from regionkit.

``perfbench/spans.py`` looks every ``TRACED`` name up in its module and
patches ``FeatureMap.__post_init__`` and ``Kernel.__post_init__``, and its
``pooled_weights`` hook reads ``.nbytes`` of the returned array.  The
workloads pace their reference slices by wrapping
``training.loss_and_grads``, which ``train`` must call through the module
attribute, once per step.  A change that breaks one of these fails here
rather than in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from regionkit import training  # noqa: E402
from regionkit.gridops import FeatureMap, Kernel  # noqa: E402
from regionkit.roialign import Box, pooled_weights  # noqa: E402


def test_traced_names_resolve_to_callables():
    missing = [
        f"regionkit.{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"regionkit.{module}"), name, None))
    ]
    assert not missing


def test_counted_classes_define_post_init():
    for cls in (FeatureMap, Kernel):
        assert "__post_init__" in vars(cls)


def test_pooled_weights_returns_ndarray():
    assert isinstance(pooled_weights(4, 4, [Box(0.1, 0.1, 0.6, 0.6)]), np.ndarray)


def test_train_calls_the_wrapped_step_functions_once_per_step(tiny_config, monkeypatch):
    calls = {"loss_and_grads": 0, "connector_backward": 0}
    for name in calls:
        original = getattr(training, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counting)
    training.train(tiny_config)
    steps = tiny_config.stage1_steps + tiny_config.stage2_steps
    assert calls == {"loss_and_grads": steps, "connector_backward": steps}
