"""spinkit benchmark: time to an exact verdict, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload {verify,cohomology,torsor} --seed N --seconds S --trace {0,1}

The workload's inputs come from ``--seed``; whole verdicts run until
``--seconds`` have passed.  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric; with ``--trace 1``
spinkit's public functions are wrapped from here and it holds every
per-layer metric instead, and the spans go to ``.bench_run/``.  The lines
before it give provenance and the metrics with their sample counts.
End-to-end times are scaled to the reference speed of ``refclock``; the
report gives them in wall seconds too.  Exit status is 0 when every answer
was right, 1 when one was wrong or raised, and 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from refclock import ReferenceClock, reference_time, scaled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

# Imported (and on verify built) to set a workload up.
SETUP_MODULES = {
    "verify": ("spinkit.verify",),
    "cohomology": ("spinkit.fileio", "spinkit.cwcomplex"),
    "torsor": ("spinkit.cli",),
}
# Set-ups per run, counting the one of this process; setup_s is their median.
SETUP_SAMPLES = {"verify": 3, "cohomology": 5, "torsor": 5}

SETUP_CHILD = """
import importlib, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from refclock import reference_time
before = reference_time()
start = time.perf_counter()
importlib.import_module("spinkit")
for name in sys.argv[4:]:
    importlib.import_module(name)
if sys.argv[3] == "verify":
    from spinkit.gammarep import build_cl8_rep
    build_cl8_rep()
elapsed = time.perf_counter() - start
print(elapsed, (before + reference_time()) / 2)
"""

# Per-workload names of the samples, for the report: (metric, sample stage, statistic).
REPORT_METRICS = {
    "verify": (("verify_s", "verdict", "median"), ("clifford_s", "clifford", "median"),
               ("spin_s", "spin", "median"), ("reps_s", "reps", "median")),
    "cohomology": (("cohomology_s", "light", "median"), ("cohomology_p90_s", "light", "p90"),
                   ("cylinder_s", "heavy", "median"), ("load_s", "load", "median"),
                   ("pair_s", "verdict", "median")),
    "torsor": (("torsor_s", "heavy", "median"), ("census_s", "light", "median"),
               ("round_s", "verdict", "median")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(SETUP_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def setup_in_children(workload: str, count: int) -> list[tuple[float, float]]:
    """Set the workload up ``count`` times, each in a fresh interpreter.

    Returns (wall seconds, reference kernel seconds around it) per set-up.
    """
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(ROOT / "bench"), workload, *SETUP_MODULES[workload]],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        wall, reference = done.stdout.split()
        times.append((float(wall), float(reference)))
    return times


def provenance(args, outcome) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome.info,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinkit" / "__init__.py").is_file():
        print(f"error: no spinkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    before = reference_time()
    start = perf_counter()
    for name in ("spinkit",) + SETUP_MODULES[args.workload]:
        importlib.import_module(name)
    if not Path(sys.modules["spinkit"].__file__).resolve().is_relative_to(SRC):
        print(f"error: imported spinkit from outside {SRC}", file=sys.stderr)
        return 2
    tracer = None
    missing_targets = []
    if args.trace:
        tracer = tracing.Tracer()
        missing_targets = tracer.install()
    rep = None
    if args.workload == "verify":
        from spinkit.gammarep import build_cl8_rep

        rep = build_cl8_rep()
    setups = [(perf_counter() - start, (before + reference_time()) / 2)]

    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        began = perf_counter()
        mark = (lambda label: setattr(tracer, "request", label)) if tracer else (lambda label: None)
        # no readings inside blocks when tracing: they would land in the spans
        with ReferenceClock(periodic=tracer is None) as clock:
            outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, rep, workdir, mark, clock)
        workload_s = perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    samples = outcome.samples

    report = {
        "provenance": provenance(args, outcome),
        "reference_s": statistics.median(clock.readings),
        "metrics": {},
        "errors": outcome.errors,
    }
    shown = report["metrics"]
    if tracer is None:
        setups += setup_in_children(args.workload, SETUP_SAMPLES[args.workload] - 1)
        samples["setup"] = [scaled(wall, reference) for wall, reference in setups]
        outcome.wall["setup"] = [wall for wall, _ in setups]
        metrics = {
            f"{stage}_s": (statistics.median(samples[stage]), "s", len(samples[stage]))
            for stage in ("verdict", "light", "heavy", "setup")
        }
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        for name, stage, stat in REPORT_METRICS[args.workload] + (("setup_s", "setup", "median"),):
            summary = statistics.median if stat == "median" else p90
            shown[name] = {
                "value": summary(samples[stage]),
                "unit": "s",
                "n": len(samples[stage]),
                "wall_s": summary(outcome.wall[stage]),
            }
        shown["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
        shown["failed_frac"] = {"value": outcome.failed / max(outcome.attempted, 1), "unit": "ratio",
                                "n": outcome.attempted}
    else:
        tracer.uninstall()
        layers, missing_checks = tracer.metrics()
        overhead = tracer.span_count() * tracing.per_span_cost() / workload_s
        layers["trace.overhead_frac"] = (overhead, tracer.span_count())
        metrics = {
            name: (layers[name][0], tracing.unit_of(name), layers[name][1])
            for name in tracing.per_layer_names()
        }
        hot = layers["multivector.mul.self_s"][0] + layers["exactlinalg.mat_mul.self_s"][0]
        report["hot_path"] = {
            "mul_plus_mat_mul_self_s": hot,
            "base": "traced workload wall time, s",
            "base_s": workload_s,
            "share": hot / workload_s,
        }
        # per-check spans come from spinkit.verify._run, which only verify calls
        report["missing"] = missing_targets + (missing_checks if args.workload == "verify" else [])
        RUN_DIR.mkdir(exist_ok=True)
        spans_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = {"count": tracer.span_count(), "file": str(spans_path.relative_to(ROOT))}
        for name, (value, unit, n) in metrics.items():
            shown[name] = {"value": value, "unit": unit, "n": n}

    print(json.dumps(report))
    for name, m in shown.items():
        print(f"# {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0 if outcome.failed == 0 and outcome.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
