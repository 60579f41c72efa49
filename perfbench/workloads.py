"""The benchmark's two workloads.

Each workload has a ``setup(seed, checks)`` that builds its inputs from the
seed alone, and a ``run_pass(state, checks)`` that does one pass of timed
work.  Every call into ``regionkit`` goes through a module attribute
(``training.train``), so the traced run's patches see it.  Correctness
checks run outside the timed parts.

* ``train_hybrid``: ``regionkit train`` at the default config (hybrid
  streams, SimpleFP on, 2000 + 2000 steps on 200 scenes), then its
  evaluation on the config's 30 held-out scenes.
* ``eval_detect``: inference only.  A bundle trained in set-up at the
  reduced acceptance budget (100 scenes, 800 + 200 steps) serves 1000
  held-out scenes: detect, emit and round-trip a grounded response per
  scene, then mAP.

Every pass ends with ``rejection_stats`` and ``counting_stats`` on the
bundle it evaluated.  ``warm_up(state, checks)`` runs once before the
timed passes.  ``run_pass`` runs a reference slice (``reference.py``) after
every ``SLICE_EVERY_STEPS`` training steps or ``SLICE_EVERY_SCENES`` served
scenes, and leaves the slices out of the pass's wall and CPU time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from regionkit import experiments, metrics, retrieval, simworld, tokenproto, training
from regionkit.config import ExperimentConfig
from reference import Reference

EVAL_BUDGET = {"n_train_scenes": 100, "stage1_steps": 800, "stage2_steps": 200}
# enough scenes that ten per-scene latencies lie beyond the p99
SERVED_SCENES = 1000
# scenes served once, untimed, before the timed passes of eval_detect
WARM_UP_SCENES = 100
# one slice per ~0.3 s of timed work: 80 slices in a train_hybrid pass, 40
# in an eval_detect pass, each ~2 ms, so slices add ~1% to a run
SLICE_EVERY_STEPS = 50
SLICE_EVERY_SCENES = 25


class Aborted(Exception):
    """A check failed after which the workload cannot go on."""


class Checks:
    """Counts correctness checks made and failed; reports each failure."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self._log = log

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._log(f"check failed: {what}")
        return ok


@dataclass
class Evaluation:
    """Quality of one bundle, and the cost of measuring it."""

    scenes: int
    wall: float
    cpu: float
    ap_mean: float
    fp_rate: float
    count_acc: float
    latencies: list[float] = field(default_factory=list)  # per-scene detect seconds, when served
    roundtrip_failures: int = 0


@dataclass
class Setup:
    state: object
    fingerprint: object  # must repeat exactly between set-ups at one seed
    train_steps: int = 0
    train_wall: float = 0.0


@dataclass
class Pass:
    """One pass of a workload's timed work."""

    wall: float = 0.0  # timed parts only, reference slices left out
    cpu: float = 0.0  # process CPU time of the timed parts, slices left out
    train_steps: int = 0
    train_wall: float = 0.0
    evals: list[Evaluation] = field(default_factory=list)
    fingerprint: tuple = ()  # must repeat exactly between passes at one seed

    def add_eval(self, params, ev: Evaluation) -> None:
        self.wall += ev.wall
        self.cpu += ev.cpu
        self.evals.append(ev)
        self.fingerprint += (params.checksums(), ev.ap_mean, ev.fp_rate, ev.count_acc)


def train_checked(cfg: ExperimentConfig, dataset, checks: Checks, ref: Reference):
    """``training.train`` plus the finite-loss and freeze checks; returns
    (params, wall seconds, CPU seconds) of the call, ``ref``'s slices left
    out.  Raises ``Aborted`` when training diverges."""
    ref_wall, ref_cpu = ref.wall, ref.cpu
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with ref.every(training, "loss_and_grads", SLICE_EVERY_STEPS):
            params, log = training.train(cfg, dataset)
    except training.TrainingDivergence as exc:
        diverged = exc
    else:
        diverged = None
    wall = time.perf_counter() - t0 - (ref.wall - ref_wall)
    cpu = time.process_time() - c0 - (ref.cpu - ref_cpu)
    # train() raises on its first non-finite loss, so this is the finite-loss check
    if not checks(diverged is None, f"seed {cfg.seed}: {diverged}"):
        raise Aborted from diverged
    for group in (training.GROUP_PRIMARY, training.GROUP_ORIG_VOCAB):
        sums = {stage: c[group] for stage, c in log.checksums.items()}
        checks(len(set(sums.values())) == 1, f"frozen group {group} changed: {sums}")
    return params, wall, cpu


def _evaluation(params, cfg, scenes, ap_mean, t0, c0, **extra) -> Evaluation:
    """Finish a timed evaluation with absent-category rejection and
    detect-then-count."""
    rejection = experiments.rejection_stats(params, cfg)
    counting = experiments.counting_stats(params, cfg)
    return Evaluation(len(scenes), time.perf_counter() - t0, time.process_time() - c0,
                      ap_mean, rejection["fp_rate"], counting["accuracy"], **extra)


def evaluate_held_out(params, cfg: ExperimentConfig, scenes) -> Evaluation:
    """What ``regionkit train`` reports: mAP on the held-out scenes."""
    c0, t0 = time.process_time(), time.perf_counter()
    ap_mean = experiments.evaluate_retrieval(params, scenes, cfg).ap_mean
    return _evaluation(params, cfg, scenes, ap_mean, t0, c0)


def serve(params, cfg: ExperimentConfig, scenes, checks: Checks, ref: Reference) -> Evaluation:
    """Detect, emit and round-trip a grounded response per scene, then mAP;
    the returned times leave out ``ref``'s slices."""
    names = list(simworld.vocabulary(cfg.n_categories))
    detections, latencies = {}, []
    failures = 0
    clock = time.perf_counter
    ref_wall, ref_cpu = ref.wall, ref.cpu
    c0, t0 = time.process_time(), clock()
    for i, ev in enumerate(scenes):
        if i and i % SLICE_EVERY_SCENES == 0:
            ref.run()
        t = clock()
        dets = experiments.detections_for_scene(params, ev, cfg)
        latencies.append(clock() - t)
        text = retrieval.emit_grounded_summary(dets)
        back = tokenproto.serialize_grounded(tokenproto.parse_grounded(text, len(ev.proposals)))
        failures += back != text
        detections[ev.scene.image_id] = dets
    truth = {ev.scene.image_id: list(ev.scene.objects) for ev in scenes}
    ap_mean = metrics.coco_map(detections, truth, categories=names).ap_mean
    result = _evaluation(params, cfg, scenes, ap_mean, t0, c0,
                         latencies=latencies, roundtrip_failures=failures)
    result.wall -= ref.wall - ref_wall
    result.cpu -= ref.cpu - ref_cpu

    checks(failures == 0, f"{failures} grounded responses did not round-trip byte-identical")
    for ev in scenes:
        dets = detections[ev.scene.image_id]
        checks(all(d.box == ev.proposals[d.source_region] for d in dets),
               f"scene {ev.scene.image_id}: a detection box is not its proposal's box")
        gt = [b for _, b in ev.scene.objects]
        boxes = [d.box for d in dets]
        checks(all(metrics.box_recall(boxes, gt, thr) <= metrics.box_recall(ev.proposals, gt, thr)
                   for thr in metrics.COCO_IOU_THRESHOLDS),
               f"scene {ev.scene.image_id}: detection recall exceeds proposal recall")
    return result


class TrainWorkload:
    """Train at the default config on one dataset, then evaluate."""

    def setup(self, seed: int, checks: Checks) -> Setup:
        cfg = ExperimentConfig(seed=seed)
        # the stream train() draws its own dataset from, so train(cfg, dataset) == train(cfg)
        data_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        dataset = simworld.make_training_set(
            cfg.n_train_scenes, cfg.rejection_fraction, seed=data_ss,
            scene_config=cfg.world, proposal_config=cfg.proposals,
        )
        scenes = experiments.make_eval_scenes(cfg)
        fingerprint = [(s.scene.seed, s.proposals, s.queries) for s in dataset]
        return Setup((cfg, dataset, scenes), fingerprint)

    def warm_up(self, state, checks: Checks) -> None:
        """Nothing: a short train() before the timed pass did not make
        that pass faster, and a full one would cost half the run."""

    def run_pass(self, state, checks: Checks, ref: Reference) -> Pass:
        cfg, dataset, scenes = state
        params, wall, cpu = train_checked(cfg, dataset, checks, ref)
        result = Pass(wall=wall, cpu=cpu, train_steps=cfg.stage1_steps + cfg.stage2_steps, train_wall=wall)
        result.add_eval(params, evaluate_held_out(params, cfg, scenes))
        return result


class ServeWorkload:
    """Serve held-out scenes from one trained bundle; nothing runs backward."""

    def setup(self, seed: int, checks: Checks) -> Setup:
        cfg = ExperimentConfig(seed=seed).replace(**EVAL_BUDGET)
        params, wall, _ = train_checked(cfg, None, checks, Reference(enabled=False))
        # make_eval_scenes drops scenes without proposals; ask for a few spare
        scenes = experiments.make_eval_scenes(cfg, n_scenes=SERVED_SCENES + 20)[:SERVED_SCENES]
        checks(len(scenes) == SERVED_SCENES, f"only {len(scenes)} held-out scenes")
        return Setup((cfg, params, scenes), params.checksums(),
                     train_steps=cfg.stage1_steps + cfg.stage2_steps, train_wall=wall)

    def warm_up(self, state, checks: Checks) -> None:
        cfg, params, scenes = state
        serve(params, cfg, scenes[:WARM_UP_SCENES], checks, Reference())

    def run_pass(self, state, checks: Checks, ref: Reference) -> Pass:
        cfg, params, scenes = state
        result = Pass()
        result.add_eval(params, serve(params, cfg, scenes, checks, ref))
        return result


WORKLOADS = {
    "train_hybrid": TrainWorkload(),
    "eval_detect": ServeWorkload(),
}
