"""Command-line interface.

Subcommands: ``gen`` (scenes + proposals), ``train``, ``gradcheck``,
``bench``, ``ablate``, ``validate-transcript``.  Each experiment command
accepts ``--config FILE`` (the JSON schema mirrors ExperimentConfig) plus
flag overrides for the common fields, and writes its artifacts and a
manifest under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .experiments import make_eval_scenes, run_ablations, run_benchmark, write_artifacts
from .simworld import generate_scene, scenes_to_json, simulate_opn
from .tokenproto import ParseError, parse_grounded
from .training import grad_check, train


#: The config fields a command-line flag overrides: (flag, field, type).
CONFIG_FLAGS = (
    ("--seed", "seed", int),
    ("--stage1-steps", "stage1_steps", int),
    ("--stage2-steps", "stage2_steps", int),
    ("--stage1-lr", "stage1_lr", float),
    ("--stage2-lr", "stage2_lr", float),
    ("--threshold", "threshold", float),
    ("--n-train-scenes", "n_train_scenes", int),
    ("--n-eval-scenes", "n_eval_scenes", int),
    ("--rejection-fraction", "rejection_fraction", float),
)


class _ConfigError(Exception):
    """A config file, flag or input file that cannot be used: :func:`main`
    reports it in one line, before the command writes anything."""


def _load_config(args, default: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """``--config`` (else ``default``) with the flag overrides applied.

    An unreadable file or a rejected value raises :class:`_ConfigError`.
    """
    try:
        cfg = ExperimentConfig.loads(Path(args.config).read_text()) if args.config else default
        overrides = {name: getattr(args, name) for _, name, _ in CONFIG_FLAGS if getattr(args, name) is not None}
        return cfg.replace(**overrides) if overrides else cfg
    except (ValueError, OSError) as exc:
        raise _ConfigError(str(exc)) from exc


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (see README for the schema)")
    for flag, name, kind in CONFIG_FLAGS:
        p.add_argument(flag, dest=name, type=kind)


def _check_count(flag: str, value: int, least: int) -> None:
    if value < least:
        raise _ConfigError(f"{flag} must be >= {least}, got {value}")


def _check_eval_scenes(cfg: ExperimentConfig, n_seeds: int = 1) -> None:
    """Refuse, before any training, a config that by chance draws no eval
    scene with a proposal, or none with an object to measure AP against, at
    one of the seeds a command evaluates."""
    for seed in range(cfg.seed, cfg.seed + n_seeds):
        eval_scenes = make_eval_scenes(cfg.replace(seed=seed))
        if not eval_scenes:
            raise _ConfigError(f"seed {seed} draws no eval scene with a proposal; raise proposals.clutter_rate "
                               "or world.max_objects, or lower proposals.drop_rate")
        if not any(ev.scene.objects for ev in eval_scenes):
            raise _ConfigError(f"seed {seed} draws no eval scene with an object, so there is no AP to report; "
                               "raise world.max_objects")


def cmd_gen(args) -> int:
    _check_count("--n-scenes", args.n_scenes, 0)
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    scenes = []
    proposals = {}
    for _ in range(args.n_scenes):
        scene = generate_scene(int(rng.integers(2**31)), cfg.world)
        scenes.append(scene)
        proposals[scene.image_id] = simulate_opn(scene, cfg.proposals, int(rng.integers(2**31)))
    payload = json.dumps(scenes_to_json(scenes, proposals), indent=2)
    if args.out:
        write_artifacts(Path(args.out), seeds=[cfg.seed], config=cfg, files={"scenes.json": payload})
        print(f"wrote {args.out}/scenes.json ({len(scenes)} scenes)")
    else:
        print(payload)
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    params, log = train(cfg)
    files = {
        "bundle.json": json.dumps(params.to_json()),
        "train_log.json": json.dumps(log.to_json(), indent=2),
    }
    out = Path(args.out or "runs/train")
    write_artifacts(out, seeds=[cfg.seed], config=cfg, files=files)
    losses = log.losses["stage1"] + log.losses["stage2"]
    ran = f"final loss {losses[-1]:.4f}" if losses else "0 steps"
    print(f"trained: {ran}; bundle at {out}/bundle.json")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args, small_gradcheck_config())
    report = grad_check(cfg)
    print(json.dumps(report.to_json(), indent=2))
    ok = report.max_rel_error < 1e-4
    print(f"max relative error {report.max_rel_error:.3e}: {'OK' if ok else 'FAIL'}")
    if args.out:
        write_artifacts(Path(args.out), seeds=[cfg.seed], config=cfg,
                        files={"gradcheck.json": json.dumps(report.to_json(), indent=2)})
    return 0 if ok else 1


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    _check_eval_scenes(cfg)
    result = run_benchmark(cfg, out_dir=args.out or "runs/bench")
    print(result.tsv(), end="")
    gap = result.retrieval.ap_mean - result.baseline.ap_mean
    print(f"retrieval - baseline ap_mean gap: {gap:+.4f}")
    return 0


def cmd_ablate(args) -> int:
    _check_count("--n-seeds", args.n_seeds, 1)
    cfg = _load_config(args)
    _check_eval_scenes(cfg, args.n_seeds)
    rows = run_ablations(cfg, n_seeds=args.n_seeds, out_dir=args.out or "runs/ablate")
    for row in rows:
        print(f"{row.variant:<20}\tap_mean={row.ap_mean:.4f}")
    return 0


def cmd_validate_transcript(args) -> int:
    """Validate a transcript file: one JSON-escaped response string per line."""
    _check_count("--n-regions", args.n_regions, 1)
    try:
        lines = Path(args.file).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _ConfigError(f"cannot read transcript {args.file}: {exc}") from exc
    failures = 0
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            text = json.loads(raw)
            if not isinstance(text, str):
                raise ValueError("line must decode to a JSON string")
        except ValueError as exc:
            print(f"line {lineno}: invalid JSON string ({exc})")
            failures += 1
            continue
        try:
            parse_grounded(text, args.n_regions)
            print(f"line {lineno}: ok")
        except ParseError as exc:
            print(f"line {lineno}: offset {exc.offset} [{exc.production}] {exc.message}")
            failures += 1
    print(f"{failures} invalid line(s)")
    return 0 if failures == 0 else 1


def small_gradcheck_config() -> ExperimentConfig:
    """Tiny dimensions so finite differences over every parameter stay fast."""
    from .simworld import EncoderConfig, ProposalSimConfig, SceneConfig

    return ExperimentConfig(
        seed=3,
        world=SceneConfig(n_categories=4, min_objects=2, max_objects=3),
        proposals=ProposalSimConfig(jitter_sigma=0.01, drop_rate=0.0, clutter_rate=1.0, max_proposals=8),
        encoder=EncoderConfig(primary_resolution=8, aux_base_resolution=16),
        fp_channels=2,
        d_llm=8,
        n_train_scenes=2,
        stage1_steps=0,
        stage2_steps=0,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="regionkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate scenes and simulated proposals")
    _add_config_flags(p)
    p.add_argument("--n-scenes", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the two-stage training schedule")
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="head-to-head retrieval vs coordinate regression")
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="feature-stream ablation table")
    _add_config_flags(p)
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("validate-transcript", help="validate grounded responses, one JSON string per line")
    p.add_argument("file")
    p.add_argument("--n-regions", type=int, default=100)
    p.set_defaults(func=cmd_validate_transcript)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"regionkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
