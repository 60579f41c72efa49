"""Experiment configuration.

One frozen dataclass carries everything a run needs: the synthetic world,
the proposal simulator, model dimensions, the two-stage step budgets and
learning rates, the decode threshold, and the ablation switches.  Feature
dimensions are derived, not stored: the primary region feature is
4 * fp_channels through the pyramid (or the raw primary channel count when
the pyramid is switched off) and the auxiliary region feature is the sum
of the four auxiliary level widths.  Their total must be divisible by 8 so
the box positional embedding can be formed.

Configs round-trip through JSON; the schema is documented in the README.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .roialign import RoiConfig
from .simworld import EncoderConfig, ProposalSimConfig, SceneConfig

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    world: SceneConfig = field(default_factory=SceneConfig)
    proposals: ProposalSimConfig = field(default_factory=ProposalSimConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    roi: RoiConfig = field(default_factory=RoiConfig)

    fp_channels: int = 8
    d_llm: int = 64
    connector_hidden: int | None = None

    n_train_scenes: int = 200
    rejection_fraction: float = 0.2
    stage1_steps: int = 2000
    stage1_lr: float = 1e-3
    stage2_steps: int = 2000
    stage2_lr: float = 1e-5
    threshold: float = 0.5
    n_eval_scenes: int = 30

    use_primary: bool = True
    use_auxiliary: bool = True
    use_simplefp: bool = True
    unfreeze_primary: bool = False
    unfreeze_aux_stage2: bool = True

    baseline_slots: int = 8
    baseline_pool: int = 8

    def __post_init__(self):
        if self.stage1_lr <= 0 or self.stage2_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.stage1_steps < 0 or self.stage2_steps < 0:
            raise ValueError("step counts must be non-negative")
        if not (self.use_primary or self.use_auxiliary):
            raise ValueError("at least one of use_primary/use_auxiliary must be enabled")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        if self.n_train_scenes < 1:
            raise ValueError("n_train_scenes must be >= 1")
        if self.use_primary and self.use_simplefp and self.encoder.primary_resolution < 4:
            raise ValueError(
                "encoder.primary_resolution must be >= 4 with use_simplefp: the stride-2 branch needs a 4x4 map"
            )
        if self.fp_channels < 1 or self.d_llm < 1:
            raise ValueError("model dimensions must be positive")
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
    def d_p(self) -> int:
        """Primary region feature dimension under the current switches."""
        if not self.use_primary:
            return 0
        if self.use_simplefp:
            return 4 * self.fp_channels
        return self.primary_channels

    @property
    def d_a(self) -> int:
        """Auxiliary region feature dimension under the current switches."""
        if not self.use_auxiliary:
            return 0
        return EncoderConfig.aux_total_dim(self.n_categories)

    @property
    def d_total(self) -> int:
        return self.d_p + self.d_a

    @property
    def hidden_dim(self) -> int:
        return self.d_llm if self.connector_hidden is None else self.connector_hidden

    # ------------------------------------------------------------- JSON

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("world", "proposals", "encoder", "roi"):
            out[key] = dict(out[key])
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        kwargs = dict(obj)
        if "world" in kwargs:
            w = dict(kwargs["world"])
            if w.get("category_weights") is not None:
                w["category_weights"] = tuple(w["category_weights"])
            kwargs["world"] = SceneConfig(**w)
        if "proposals" in kwargs:
            kwargs["proposals"] = ProposalSimConfig(**kwargs["proposals"])
        if "encoder" in kwargs:
            kwargs["encoder"] = EncoderConfig(**kwargs["encoder"])
        if "roi" in kwargs:
            kwargs["roi"] = RoiConfig(**kwargs["roi"])
        return cls(**kwargs)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, s: str) -> "ExperimentConfig":
        return cls.from_json(json.loads(s))

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)
