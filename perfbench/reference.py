"""A fixed reference loop that measures the machine's speed while a pass runs.

The machine's speed drifts by up to a third over minutes, and a whole set
of runs can land in a slow period (see NOTES.md).  So every timed pass is
cut into pieces, and after each piece the benchmark runs one slice of this
loop and times it.  A slice is small-array numpy and pure Python, the mix
that most of regionkit's time goes to.  Its work never changes, so its time
follows the machine alone, and a pass's wall time divided by the mean slice
time of that pass follows the program alone.  Slices are timed apart from
the pass: neither the pass's wall nor its CPU time includes them.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np


def _slice() -> float:
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(6):
        sig = np.zeros((8, 32, 32))
        for k in range(12):
            x, y = int(rng.integers(24)), int(rng.integers(24))
            sig[k % 8, y:y + 8, x:x + 8] += float(rng.uniform(0.1, 1.0))
        blur = sig.copy()
        blur[:, 1:] += sig[:, :-1]
        blur[:, :-1] += sig[:, 1:]
        blur[:, :, 1:] += sig[:, :, :-1]
        occupancy = np.clip(1.0 - blur.sum(axis=0), 0.0, None)
        ramp = np.tile((np.arange(32) + 0.5) / 32, (32, 1))
        table = {i: (i, float(occupancy[i % 32, i % 32])) for i in range(64)}
        acc += float((occupancy * ramp).sum()) + len(table)
    return acc


class Reference:
    """Runs and times reference slices; ``enabled=False`` makes it a no-op,
    for the traced pass, whose spans must not contain slices."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.slices = 0
        self.wall = 0.0
        self.cpu = 0.0

    def run(self) -> None:
        if not self.enabled:
            return
        c0, t0 = time.process_time(), time.perf_counter()
        _slice()
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.slices += 1

    def slice_s(self) -> float:
        """Mean wall time of one slice."""
        return self.wall / self.slices

    @contextlib.contextmanager
    def every(self, module, name: str, calls: int):
        """Run a slice after every ``calls`` calls of ``module.name``."""
        original = getattr(module, name)
        count = 0

        def paced(*args, **kwargs):
            nonlocal count
            out = original(*args, **kwargs)
            count += 1
            if count % calls == 0:
                self.run()
            return out

        setattr(module, name, paced)
        try:
            yield
        finally:
            setattr(module, name, original)
