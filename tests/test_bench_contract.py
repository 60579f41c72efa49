"""What the benchmark's traced run needs from regionkit.

``perfbench/spans.py`` looks every ``TRACED`` name up in its module and
patches ``FeatureMap.__post_init__`` and ``Kernel.__post_init__``, and its
``pooled_weights`` hook reads ``.nbytes`` of the returned array.  A change
that breaks one of these fails here rather than in a traced run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

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
