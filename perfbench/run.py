"""regionkit benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_hybrid --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced pass, measured after the untraced passes,
and writes every span to ``.perfbench_out/``.  The last line of standard
output is the JSON result; a human-readable table goes to standard error.
The exit code is 1 when a correctness check failed (a diverged training
stops the run, and its result has no metrics), 2 when the checkout has no
``src/regionkit`` to measure.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of at least SETUP_REPEATS set-ups that together
# take at least SETUP_SECONDS, so that a short set-up is sampled many times
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def end_to_end(setup_times, passes, slices, peak_rss_mb) -> dict[str, tuple[float, str]]:
    """The gated metrics.  Timings of the passes are gated as ratios: a pass's
    wall time over the mean time of the reference slices run beside it, and
    its CPU time over its wall time.  The machine's drift scales both sides
    of each ratio alike (see reference.py and NOTES.md)."""
    first = passes[0].evals  # later passes repeat these results exactly
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_ref": (statistics.fmean(p.wall / s for p, s in zip(passes, slices)), "slices"),
        "cpu_per_wall": (sum(p.cpu for p in passes) / sum(p.wall for p in passes), "s/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ap_mean": (statistics.fmean(ev.ap_mean for ev in first), "1"),
        "rejection_acc": (1.0 - statistics.fmean(ev.fp_rate for ev in first), "1"),
        "count_acc": (statistics.fmean(ev.count_acc for ev in first), "1"),
    }


def informational(setups, passes, slices) -> dict[str, tuple[float, str]]:
    """Printed for reading, not gated: the seconds themselves follow the
    machine's drift, and some windows are too short to be steady on every
    workload (see NOTES.md)."""
    # eval_detect trains only in set-up; its train throughput comes from there
    trained = passes if any(p.train_steps for p in passes) else setups
    evals = [ev for p in passes for ev in p.evals]
    out = {
        "pass_s": (statistics.fmean(p.wall for p in passes), "s"),
        "cpu_s": (statistics.fmean(p.cpu for p in passes), "s"),
        "slice_ms": (1e3 * statistics.fmean(slices), "ms"),
        "train_steps_per_s": (sum(t.train_steps for t in trained) / sum(t.train_wall for t in trained), "steps/s"),
        "fp_rate": (statistics.fmean(ev.fp_rate for ev in passes[0].evals), "1"),
        "eval_scenes_per_s": (sum(ev.scenes for ev in evals) / sum(ev.wall for ev in evals), "scenes/s"),
    }
    latencies_ms = [1e3 * t for ev in evals for t in ev.latencies]
    if latencies_ms:
        out["detect_ms_p50"] = (statistics.median(latencies_ms), "ms")
        out["detect_ms_p99"] = (statistics.quantiles(latencies_ms, n=100)[98], "ms")
    return out


def measure(args, workload, checks, env) -> tuple[dict[str, tuple[float, str]], int]:
    """Set up, warm up, run timed passes for ``args.seconds``, set up
    again, and return the metrics with the number of timed passes."""
    import spans
    from reference import Reference

    setups, setup_times = [], []
    setup_tracer = spans.Tracer()

    def set_up(traced: bool = False):
        t0 = time.perf_counter()
        if traced:
            with setup_tracer:
                setups.append(workload.setup(args.seed, checks))
        else:
            setups.append(workload.setup(args.seed, checks))
        setup_times.append(time.perf_counter() - t0)

    set_up(traced=bool(args.trace))
    state = setups[0].state
    workload.warm_up(state, checks)
    passes, slices = [], []
    start = time.perf_counter()
    while True:
        ref = Reference()
        passes.append(workload.run_pass(state, checks, ref))
        slices.append(ref.slice_s())
        elapsed = time.perf_counter() - start
        # closed loop: stop before a pass of average length would overrun
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    # the peak of one set-up and the passes, before the repeated set-ups add their garbage
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the other set-ups come after the passes, so that setup_s samples the
    # machine at other moments of the run than the first set-up
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        set_up()
        setups[-1].state = None
    checks(all(s.fingerprint == setups[0].fingerprint for s in setups),
           "repeated set-ups at one seed differ")
    checks(all(p.fingerprint == passes[0].fingerprint for p in passes),
           "repeated passes at one seed gave different parameters or results")
    if not args.trace:
        log("not gated:")
        for name, (value, unit) in informational(setups, passes, slices).items():
            log(f"  {name:32s} {value!r} {unit}")
        return end_to_end(setup_times, passes, slices, peak_rss_mb), len(passes)

    tracer = spans.Tracer()
    with tracer:
        traced = workload.run_pass(state, checks, Reference(enabled=False))
    checks(traced.fingerprint == passes[0].fingerprint, "the traced pass changed the results")
    untraced = statistics.fmean(p.wall for p in passes)
    measured = tracer.layer_metrics()
    # the training set is built only in set-up, so its span comes from the traced set-up
    setup_layers = setup_tracer.layer_metrics()
    for name in ("make_training_set.calls", "make_training_set.s"):
        measured[name] = setup_layers[name]
    measured["tokenproto.roundtrip_failures"] = (sum(ev.roundtrip_failures for ev in traced.evals), "count")
    measured["trace.overhead_s"] = (traced.wall - untraced, "s")
    measured["trace.overhead_share"] = ((traced.wall - untraced) / untraced, "1")
    measured["trace.spans"] = (len(tracer.names), "count")
    measured["trace.span_cost_s"] = (len(tracer.names) * spans.span_cost(), "s")
    own = tracer.self_times()
    measured["trace.unaccounted_s"] = (traced.wall - sum(own), "s")
    if traced.train_steps:
        root = []
        for i, p in enumerate(tracer.parents):
            root.append(i if p < 0 else root[p])
        in_train = sum(t for t, r in zip(own, root) if tracer.names[r] == "train")
        log(f"train(): traced wall {traced.train_wall:.4f} s; self times of the wrapped calls inside "
            f"{in_train:.4f} s; remainder {traced.train_wall - in_train:.6f} s")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "environment": env,
                       "metrics": {k: v for k, (v, _) in measured.items()}})
    log(f"spans written to {path.relative_to(ROOT)}")
    return measured, len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "regionkit" / "__init__.py").is_file():
        log(f"perfbench: no regionkit sources under {src}; run from the root of a regionkit checkout")
        return 2
    sys.path.insert(0, str(src))
    import environment
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    checks = workloads.Checks(log)
    env = environment.environment(ROOT)
    try:
        measured, passes = measure(args, workloads.WORKLOADS[args.workload], checks, env)
    except workloads.Aborted:
        measured, passes = {}, 0

    log(f"{args.workload} seed {args.seed}: {passes} timed pass(es), "
        f"{checks.failed} of {checks.attempted} checks failed")
    for name, (value, unit) in sorted(measured.items()):
        log(f"  {name:32s} {value!r} {unit}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
