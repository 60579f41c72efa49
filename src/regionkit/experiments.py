"""Benchmark and ablation harness.

``run_benchmark`` trains the retrieval head and the coordinate-regression
baseline under the same budget, evaluates both on a held-out seeded scene
set, and writes a JSON report plus a one-line-per-model TSV.
``run_ablations`` trains four stream variants (hybrid, primary-only with
and without the pyramid, auxiliary-only) across several seeds and
tabulates their mean AP.  ``rejection_stats`` and ``counting_stats``
measure absent-category false positives and detect-then-count accuracy.
Every report decodes each of its scenes once, through
``detections_for_scene``, and reduces the detections.

Artifacts land under an output directory together with a manifest listing
the seeds and sha256 checksums of everything written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import regression_baseline_eval, train_baseline
from .config import ExperimentConfig
from .metrics import EvalReport, box_recall, coco_map, counting_accuracy
from .retrieval import Detection, decode_detections, detect_then_count, score_matrix
from .simworld import ProposalSimConfig, Scene, generate_scene, simulate_opn, vocabulary
from .training import (
    GROUP_NEW_VOCAB,
    ModelParams,
    TrainingLog,
    prepare_sample,
    region_token_matrix,
    seeded_training_set,
    train,
)

__all__ = [
    "EvalScene",
    "make_eval_scenes",
    "detections_for_scene",
    "evaluate_retrieval",
    "BenchmarkResult",
    "run_benchmark",
    "AblationRow",
    "run_ablations",
    "rejection_stats",
    "counting_stats",
    "write_artifacts",
]

_EVAL_SEED_SALT = 0x0E7A1
# held-out scenes that rejection_stats and counting_stats query
REJECTION_SCENES = 100
COUNTING_SCENES = 50


@dataclass
class EvalScene:
    scene: Scene
    proposals: list


def make_eval_scenes(
    config: ExperimentConfig,
    n_scenes: int | None = None,
    proposal_config: ProposalSimConfig | None = None,
    salt: int = _EVAL_SEED_SALT,
) -> list[EvalScene]:
    """Held-out scenes with simulated proposals, disjoint from training seeds."""
    n = config.n_eval_scenes if n_scenes is None else n_scenes
    pc = config.proposals if proposal_config is None else proposal_config
    rng = np.random.default_rng([config.seed, salt])
    out = []
    for _ in range(n):
        scene = generate_scene(int(rng.integers(2**31)), config.world)
        proposals = simulate_opn(scene, pc, int(rng.integers(2**31)))
        if not proposals:
            continue
        out.append(EvalScene(scene, proposals))
    return out


def detections_for_scene(
    params: ModelParams, ev: EvalScene, config: ExperimentConfig
) -> list[Detection]:
    """Full retrieval decode: region tokens, scores against every category,
    thresholded detections."""
    tokens = region_token_matrix(params, prepare_sample(params, ev, config))
    scores = score_matrix(tokens, params.groups[GROUP_NEW_VOCAB]["queries"])
    return decode_detections(scores, ev.proposals, vocabulary(config.n_categories), config.threshold)


def evaluate_retrieval(
    params: ModelParams, eval_scenes: list[EvalScene], config: ExperimentConfig
) -> EvalReport:
    """mAP of the retrieval head over the eval scenes; scenes that hold no
    ground-truth object, or no scenes, have no AP and raise ValueError."""
    if not any(ev.scene.objects for ev in eval_scenes):
        raise ValueError(f"evaluate_retrieval needs at least one eval scene, got none with an object in "
                         f"{len(eval_scenes)} eval scenes")
    detections = {}
    ground_truth = {}
    for ev in eval_scenes:
        detections[ev.scene.image_id] = detections_for_scene(params, ev, config)
        ground_truth[ev.scene.image_id] = list(ev.scene.objects)
    return coco_map(detections, ground_truth, categories=list(vocabulary(config.n_categories)))


@dataclass
class BenchmarkResult:
    config: ExperimentConfig
    retrieval: EvalReport
    baseline: EvalReport
    retrieval_log: TrainingLog
    param_checksums: dict[str, str]

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "retrieval": self.retrieval.to_json(),
            "baseline": self.baseline.to_json(),
            "param_checksums": self.param_checksums,
            "losses": self.retrieval_log.losses,
        }

    def tsv(self) -> str:
        lines = ["model\t" + EvalReport.tsv_header()]
        lines.append("retrieval\t" + self.retrieval.tsv_line())
        lines.append("baseline\t" + self.baseline.tsv_line())
        return "\n".join(lines) + "\n"


def run_benchmark(config: ExperimentConfig, out_dir: str | Path | None = None) -> BenchmarkResult:
    """Train both paradigms with the same budget and evaluate head-to-head."""
    params, log = train(config)
    eval_scenes = make_eval_scenes(config)
    retrieval_report = evaluate_retrieval(params, eval_scenes, config)

    head, _ = train_baseline(config)
    baseline_report = regression_baseline_eval(head, [ev.scene for ev in eval_scenes], config)

    result = BenchmarkResult(
        config=config,
        retrieval=retrieval_report,
        baseline=baseline_report,
        retrieval_log=log,
        param_checksums=params.checksums(),
    )
    if out_dir is not None:
        write_artifacts(
            Path(out_dir),
            seeds=[config.seed],
            config=config,
            files={
                "report.json": json.dumps(result.to_json(), indent=2),
                "report.tsv": result.tsv(),
                "bundle.json": json.dumps(params.to_json()),
            },
        )
    return result


# -------------------------------------------------------------- ablations

_VARIANTS = ("hybrid", "primary_only", "primary_only_no_fp", "auxiliary_only")


@dataclass
class AblationRow:
    variant: str
    ap_per_seed: list[float]

    @property
    def ap_mean(self) -> float:
        return float(np.mean(self.ap_per_seed))


def run_ablations(
    config: ExperimentConfig, n_seeds: int = 5, out_dir: str | Path | None = None
) -> list[AblationRow]:
    """Train the compared stream variants across seeds with one shared budget and data per seed."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    rows = [AblationRow(variant=name, ap_per_seed=[]) for name in _VARIANTS]
    for offset in range(n_seeds):
        seed_cfg = config.replace(seed=config.seed + offset)
        dataset, eval_scenes = seeded_training_set(seed_cfg), make_eval_scenes(seed_cfg)
        for row in rows:
            variant_cfg = seed_cfg.replace(streams=row.variant)
            params, _ = train(variant_cfg, dataset)
            row.ap_per_seed.append(evaluate_retrieval(params, eval_scenes, variant_cfg).ap_mean)
    if out_dir is not None:
        table = {r.variant: {"ap_mean": r.ap_mean, "ap_per_seed": r.ap_per_seed} for r in rows}
        tsv = "variant\tap_mean\t" + "\t".join(f"seed+{k}" for k in range(n_seeds)) + "\n"
        for r in rows:
            tsv += r.variant + "\t" + "\t".join(f"{v:.6f}" for v in [r.ap_mean] + r.ap_per_seed) + "\n"
        write_artifacts(
            Path(out_dir),
            seeds=[config.seed + k for k in range(n_seeds)],
            config=config,
            files={"ablations.json": json.dumps(table, indent=2), "ablations.tsv": tsv},
        )
    return rows


# ------------------------------------------------- rejection and counting

def rejection_stats(params: ModelParams, config: ExperimentConfig) -> dict[str, float]:
    """False-positive behavior on absent-category queries.

    Over ``REJECTION_SCENES`` held-out scenes, every category absent from
    a scene is queried; a query counts as a false positive when it yields
    any detection.  Scenes that hold every category give no query; with no
    query at all there is no rate, and ValueError is raised.
    """
    eval_scenes = make_eval_scenes(config, n_scenes=REJECTION_SCENES, salt=_EVAL_SEED_SALT + 1)
    names = vocabulary(config.n_categories)
    n_queries = 0
    n_fp = 0
    for ev in eval_scenes:
        dets = detections_for_scene(params, ev, config)
        present = set(ev.scene.present_categories)
        fired = {d.label for d in dets}
        for name in names:
            if name in present:
                continue
            n_queries += 1
            if name in fired:
                n_fp += 1
    if not n_queries:
        raise ValueError(f"rejection_stats found no absent-category query in {len(eval_scenes)} eval scenes")
    return {
        "n_queries": float(n_queries),
        "false_positives": float(n_fp),
        "fp_rate": n_fp / n_queries,
    }


def counting_stats(params: ModelParams, config: ExperimentConfig) -> dict[str, float]:
    """Detect-then-count accuracy on ``COUNTING_SCENES`` scenes of the
    noiseless proposal world, over each (scene, category present in it)
    query: the count is the number of that category's detections in the
    scene's one decode.  With no such query there is no accuracy, and
    ValueError is raised."""
    noiseless = ProposalSimConfig(jitter_sigma=0.0, drop_rate=0.0, clutter_rate=0.0,
                                  max_proposals=config.proposals.max_proposals)
    eval_scenes = make_eval_scenes(config, n_scenes=COUNTING_SCENES, proposal_config=noiseless,
                                   salt=_EVAL_SEED_SALT + 2)
    predicted = []
    true = []
    for ev in eval_scenes:
        dets = detections_for_scene(params, ev, config)
        for name in ev.scene.present_categories:
            predicted.append(detect_then_count(dets, name))
            true.append(len(ev.scene.boxes_of(name)))
    if not true:
        raise ValueError(f"counting_stats found no category present in {len(eval_scenes)} eval scenes to count")
    return {
        "n_queries": float(len(true)),
        "accuracy": counting_accuracy(predicted, true),
    }


def recall_ceiling_check(
    params: ModelParams, config: ExperimentConfig, eval_scenes: list[EvalScene]
) -> bool:
    """Detection recall never exceeds proposal recall at any IoU threshold."""
    from .metrics import COCO_IOU_THRESHOLDS

    for ev in eval_scenes:
        dets = detections_for_scene(params, ev, config)
        det_boxes = [d.box for d in dets]
        gt_boxes = [b for _, b in ev.scene.objects]
        for thr in COCO_IOU_THRESHOLDS:
            if box_recall(det_boxes, gt_boxes, thr) > box_recall(ev.proposals, gt_boxes, thr):
                return False
    return True


# -------------------------------------------------------------- artifacts

def write_artifacts(out_dir: Path, seeds: list[int], config: ExperimentConfig, files: dict[str, str]) -> None:
    """Write artifact files plus a manifest of seeds and content checksums."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, content in files.items():
        path = out_dir / name
        path.write_text(content)
        checksums[name] = hashlib.sha256(content.encode()).hexdigest()
    manifest = {
        "seeds": seeds,
        "config": config.to_json(),
        "artifacts": checksums,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
