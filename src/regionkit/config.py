"""Experiment configuration.

One frozen dataclass carries everything a run needs: the synthetic world,
the proposal simulator, model dimensions, the two-stage step budgets and
learning rates, the decode threshold, and the stream variant, a name in
:data:`STREAMS`.  Feature dimensions are derived, not stored: the primary
region feature is 4 * fp_channels through the pyramid (or the raw primary
channel count in a variant without it) and the auxiliary region feature is
the sum of the four auxiliary level widths.  Their total must be divisible
by 8 so the box positional embedding can be formed.

Configs round-trip through JSON; the schema is documented in the README.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .roialign import RoiConfig
from .simworld import EncoderConfig, ProposalSimConfig, SceneConfig

__all__ = ["ExperimentConfig", "STREAMS", "Streams"]


# the encoder streams each variant's region feature draws on; simplefp, the
# pyramid, runs on the primary map
Streams = typing.NamedTuple("Streams", [("primary", bool), ("simplefp", bool), ("auxiliary", bool)])
STREAMS = {
    "hybrid": Streams(primary=True, simplefp=True, auxiliary=True),
    "hybrid_no_fp": Streams(primary=True, simplefp=False, auxiliary=True),
    "primary_only": Streams(primary=True, simplefp=True, auxiliary=False),
    "primary_only_no_fp": Streams(primary=True, simplefp=False, auxiliary=False),
    "auxiliary_only": Streams(primary=False, simplefp=False, auxiliary=True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    world: SceneConfig = field(default_factory=SceneConfig)
    proposals: ProposalSimConfig = field(default_factory=ProposalSimConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    roi: RoiConfig = field(default_factory=RoiConfig)

    fp_channels: int = 8
    d_llm: int = 64

    n_train_scenes: int = 200
    rejection_fraction: float = 0.2
    stage1_steps: int = 2000
    stage1_lr: float = 1e-3
    stage2_steps: int = 2000
    stage2_lr: float = 1e-5
    threshold: float = 0.5
    n_eval_scenes: int = 30

    streams: str = "hybrid"

    def __post_init__(self):
        if self.streams not in STREAMS:
            raise ValueError(f"streams must be one of {', '.join(STREAMS)}, got {self.streams!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("stage1_lr", "stage2_lr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {getattr(self, name)}")
        for name in ("stage1_steps", "stage2_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("fp_channels", "d_llm"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        for name in ("n_train_scenes", "n_eval_scenes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.rejection_fraction <= 1.0:
            raise ValueError(f"rejection_fraction must lie in [0, 1], got {self.rejection_fraction}")
        if self.proposals.clutter_rate == 0.0:
            # without clutter, every proposal is of an object that survives the drop
            for need, unmet in (("proposals.drop_rate must be < 1", self.proposals.drop_rate == 1.0),
                                ("world.max_objects must be >= 1", self.world.max_objects == 0)):
                if unmet:
                    raise ValueError(f"{need} when proposals.clutter_rate is 0: otherwise no scene ever has a proposal")
        if self.uses.simplefp and self.encoder.primary_resolution < 4:
            raise ValueError(
                f"encoder.primary_resolution must be >= 4 with streams {self.streams}: the stride-2 branch needs a 4x4 map"
            )
        if self.d_total % 8 != 0:
            raise ValueError(
                f"combined region feature dimension {self.d_total} must be divisible by 8 "
                "for the box positional embedding"
            )

    @property
    def n_categories(self) -> int:
        return self.world.n_categories

    @property
    def primary_channels(self) -> int:
        return EncoderConfig.primary_channels(self.n_categories)

    @property
    def uses(self) -> Streams:
        """The streams of this config's variant."""
        return STREAMS[self.streams]

    @property
    def d_p(self) -> int:
        """Primary region feature dimension of this config's variant."""
        if self.uses.simplefp:
            return 4 * self.fp_channels
        return self.primary_channels if self.uses.primary else 0

    @property
    def d_a(self) -> int:
        """Auxiliary region feature dimension of this config's variant."""
        return EncoderConfig.aux_total_dim(self.n_categories) if self.uses.auxiliary else 0

    @property
    def d_total(self) -> int:
        return self.d_p + self.d_a

    @property
    def stages(self) -> tuple[tuple[int, int, float], ...]:
        """The two-stage schedule as (stage, steps, learning rate)."""
        return ((1, self.stage1_steps, self.stage1_lr), (2, self.stage2_steps, self.stage2_lr))

    # ------------------------------------------------------------- JSON

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_json`; missing fields take their defaults.

        A document that is not an object, an unknown key, a section that
        is not an object, a value of the wrong type, or a value out of its
        range raises ValueError naming the field, with its section
        (``world.min_objects``).
        """
        return _from_json(cls, obj)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, s: str) -> "ExperimentConfig":
        return cls.from_json(json.loads(s))

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


def _from_json(cls, obj, section: str = ""):
    """Build dataclass ``cls`` from a JSON object; ``section`` names where it sits."""
    if not isinstance(obj, dict):
        raise ValueError(f"config {f'section {section}' if section else 'document'} must be a JSON object")
    prefix = f"{section}." if section else ""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in obj.items():
        if key not in hints:
            raise ValueError(f"unknown config field {prefix}{key}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _from_json(hint, value, prefix + key)
        else:
            kwargs[key] = _json_value(value, hint, prefix + key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # every range check's message starts with the field it names
        if section:
            raise ValueError(f"{prefix}{exc}") from None
        raise


def _json_value(value, hint, name: str):
    """Check one JSON value against a field's type: int, float, bool or str."""
    if hint is float:
        try:  # an int or a float, not a bool, that a float holds
            ok = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            ok = False
        want = "a finite number"
    else:
        ok = type(value) is hint
        want = hint.__name__
    if not ok:
        raise ValueError(f"config field {name} must be {want}, got {value!r}")
    return value
