"""The three workloads: verify, cohomology and torsor.

Each workload runs whole verdicts until ``seconds`` have passed (at least
one), times the stages of every verdict, and checks every answer against
an oracle that does not use the code under test.  A verdict's stages are
timed apart from its checks, on the ``refclock`` clock, so every sample is
kept both in wall seconds and scaled to the reference speed.  The
workload calls ``mark`` with a label as each verdict starts, which names
the trace's request.
An exception raised by spinkit counts as a failed operation and never
stops the run.

Every verdict yields one sample of ``verdict`` and of each stage.  The
``light`` and ``heavy`` samples are the two sides each workload exercises:

=========== ======================== ===================================
workload    light                    heavy
=========== ======================== ===================================
verify      clifford suite (sparse)  reps suite (dense Spin(8))
cohomology  H^k sweep of one pair    X x I build, sweep, difference
torsor      one census catalogue     one torsor-check verdict
=========== ======================== ===================================
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import generators
from refclock import ReferenceClock, scaled

SUITE_SIZES = {"clifford": 6, "spin": 6, "reps": 14}
# Extra verdicts of single suites per verify run.  A suite's cost depends on
# its seed (one spin verdict took from 3 to 28 s over 36 seeds), so the
# cheap suites get medians over several seeds; reps, at 30 s, gets one.
SPIN_EXTRA = 2
CLIFFORD_EXTRA = 24
TORSOR_MAX_ORDER = 24
CATALOGUE_SIZE = 120
MAX_ERRORS = 20


@dataclass
class Outcome:
    """Timed samples plus the count of checked operations.

    ``samples`` holds seconds scaled to the reference speed, ``wall`` the
    same samples in wall seconds.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(self, stage: str, seconds: float, reference: float) -> None:
        self.samples.setdefault(stage, []).append(scaled(seconds, reference))
        self.wall.setdefault(stage, []).append(seconds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(what)


def _call(fn, *args, **kwargs):
    """fn's result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising call is a failed operation
        return exc


# ---------------------------------------------------------------------------
# verify


def verify(seed: int, seconds: float, rep, workdir: Path, mark, clock: ReferenceClock) -> Outcome:
    """Full verdicts of the clifford, spin and reps suites on derived seeds."""
    from spinkit.verify import run_suites

    rng = random.Random(seed)
    out = Outcome()
    seeds = out.info.setdefault("verify_seeds", [])
    deadline = perf_counter() + seconds

    def suite(name: str, verify_seed: int) -> None:
        begin = clock.mark()
        start = clock.now()
        results = _call(run_suites, name, verify_seed, rep=rep)
        elapsed = clock.now() - start
        out.add(name, elapsed, clock.reference(begin))
        if isinstance(results, Exception):
            out.check(False, f"{name} seed {verify_seed}: {results!r}")
        else:
            out.check(len(results) == SUITE_SIZES[name], f"{name} seed {verify_seed}: {len(results)} checks")
            for r in results:
                out.check(r.passed, f"{name} seed {verify_seed}: {r.name}: {r.detail}")

    while True:
        verify_seed = rng.randrange(2**31)
        seeds.append(verify_seed)
        mark(f"verdict seed {verify_seed}")
        for name in SUITE_SIZES:
            suite(name, verify_seed)
        if perf_counter() >= deadline:
            break
    for name, extra in (("spin", SPIN_EXTRA), ("clifford", CLIFFORD_EXTRA)):
        for _ in range(extra):
            verify_seed = rng.randrange(2**31)
            seeds.append(verify_seed)
            mark(f"{name} seed {verify_seed}")
            suite(name, verify_seed)
    for samples in (out.samples, out.wall):
        # a full verdict costs a clifford, a spin and a reps verdict
        samples["verdict"] = [sum(statistics.median(samples[name]) for name in SUITE_SIZES)]
        samples["light"] = samples["clifford"]
        samples["heavy"] = samples["reps"]
    return out


# ---------------------------------------------------------------------------
# cohomology


def cohomology(seed: int, seconds: float, rep, workdir: Path, mark, clock: ReferenceClock) -> Outcome:
    """Known-answer CW pairs: load, H^k sweep, then the cylinder X x I."""
    from spinkit.cwcomplex import (
        CoefficientGroup,
        Cochain,
        coboundary,
        difference_cochain,
        product_with_interval,
        relative_cohomology,
    )
    from spinkit.fileio import load_complex

    coefficients = {q: CoefficientGroup(q) for q in generators.COHOMOLOGY_MODULI}
    z = coefficients[0]

    def cylinder_job(cx, case):
        prod = product_with_interval(cx)
        groups = [relative_cohomology(prod, k, z) for k in range(prod.dim + 1)]
        m = case.difference_degree
        o_hat = coboundary(Cochain(prod, m - 1, z, tuple(case.cylinder_cochain)))
        n = cx.cell_count(m)
        o0 = Cochain(cx, m, z, o_hat.values[:n])
        o1 = Cochain(cx, m, z, o_hat.values[n : 2 * n])
        return prod, groups, o_hat, difference_cochain(o_hat, o0, o1)

    out = Outcome()
    deadline = perf_counter() + seconds
    pairs = 0
    for case in generators.cohomology_cases(random.Random(seed)):
        pairs += 1
        path = workdir / f"pair-{pairs}.json"
        path.write_text(json.dumps(case.to_json()))
        mark(case.name)

        begin = clock.mark()
        start = clock.now()
        cx = _call(load_complex, path)
        loaded = clock.now()
        groups, cylinder = {}, cx
        if not isinstance(cx, Exception):
            for k in range(generators.PAIR_DIM + 1):
                for q, coeff in coefficients.items():
                    groups[(k, q)] = _call(relative_cohomology, cx, k, coeff)
        swept = clock.now()
        if not isinstance(cx, Exception):
            cylinder = _call(cylinder_job, cx, case)
        done = clock.now()
        reference = clock.reference(begin)

        out.add("load", loaded - start, reference)
        out.add("light", swept - loaded, reference)
        out.add("heavy", done - swept, reference)
        out.add("verdict", done - start, reference)
        _check_pair(out, case, cx, groups, cylinder)
        path.unlink()
        if perf_counter() >= deadline:
            break
    out.info["pairs"] = pairs
    return out


def _group(g) -> tuple | Exception:
    return g if isinstance(g, Exception) else (g.free_rank, tuple(g.torsion))


def _check_pair(out: Outcome, case, cx, groups, cylinder) -> None:
    label = case.name
    out.check(
        not isinstance(cx, Exception)
        and cx.cells == case.cells
        and cx.boundary == case.boundary
        and cx.sub == {k: [bool(f) for f in flags] for k, flags in case.sub.items()},
        f"{label}: load_complex gave {cx!r}",
    )
    if isinstance(cx, Exception):
        return
    for key, want in case.cohomology.items():
        got = _group(groups[key])
        out.check(got == want, f"{label}: H^{key[0]}(Z/{key[1]}) = {got!r}, want {want}")
    if isinstance(cylinder, Exception):
        out.check(False, f"{label}: cylinder job raised {cylinder!r}")
        return
    prod, cyl_groups, o_hat, d = cylinder
    cells, bd, sub = generators.cylinder(case)
    out.check(
        prod.cells == cells and prod.boundary == bd and prod.sub == {k: [bool(f) for f in v] for k, v in sub.items()},
        f"{label}: product_with_interval differs from the cylinder formula",
    )
    for k, g in enumerate(cyl_groups):
        want = case.cohomology[(k - 1, 0)] if k >= 1 else (0, ())
        out.check(_group(g) == want, f"{label}: H^{k}(X x I) = {_group(g)}, want {want}")
    m = case.difference_degree
    want_hat = generators.coboundary_values(cells, bd, m - 1, case.cylinder_cochain)
    out.check(list(o_hat.values) == want_hat, f"{label}: coboundary on the cylinder")
    n = case.cells[m]
    out.check(
        d.degree == m - 1 and list(d.values) == want_hat[2 * n :],
        f"{label}: difference_cochain in degree {m}",
    )


# ---------------------------------------------------------------------------
# torsor


def torsor(seed: int, seconds: float, rep, workdir: Path, mark, clock: ReferenceClock) -> Outcome:
    """torsor-check through the CLI, then a seeded census catalogue."""
    from spinkit import cli
    from spinkit.census import census_report, torsor_size_cross_check
    from spinkit.fileio import load_catalogue

    expected_groups = generators.abelian_group_count(TORSOR_MAX_ORDER)
    argv = ["torsor-check", "--max-order", str(TORSOR_MAX_ORDER), "--format", "structured"]
    rng = random.Random(seed)
    out = Outcome()
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        rounds += 1
        mark(f"round {rounds}")
        buf = io.StringIO()
        begin = clock.mark()
        start = clock.now()
        with contextlib.redirect_stdout(buf):
            rc = _call(cli.main, argv)
        checked = clock.now()
        check_reference = clock.reference(begin)
        _check_torsor(out, rc, buf.getvalue(), expected_groups)

        cases = generators.catalogue(rng, CATALOGUE_SIZE, f"r{rounds}")
        path = workdir / f"catalogue-{rounds}.json"
        path.write_text(json.dumps({"manifolds": [c.record for c in cases]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            begin = clock.mark()
            census_start = clock.now()
            records = _call(load_catalogue, path)
            reports, crosses = [], {}
            if not isinstance(records, Exception):
                reports = [_call(census_report, d) for d in records]
                # the cross-check counts structures, so only records with one qualify
                crosses = {
                    i: _call(torsor_size_cross_check, d)
                    for i, (d, case) in enumerate(zip(records, cases))
                    if case.exists
                }
            census_end = clock.now()
        census_reference = clock.reference(begin)
        path.unlink()
        _check_census(out, cases, records, reports, crosses, caught)

        heavy, light = checked - start, census_end - census_start
        out.add("heavy", heavy, check_reference)
        out.add("light", light, census_reference)
        # the reference that scales the round as its two parts were scaled
        out.add("verdict", heavy + light, (heavy + light) / (heavy / check_reference + light / census_reference))
        if perf_counter() >= deadline:
            break
    out.info["rounds"] = rounds
    return out


def _check_torsor(out: Outcome, rc, text: str, expected_groups: int) -> None:
    try:
        payload = json.loads(text)
    except ValueError:
        payload = {}
    groups = payload.get("groups", [])
    out.check(
        rc == 0
        and payload.get("failed") == 0
        and len(groups) == expected_groups
        and all(g.get("passed") for g in groups),
        f"torsor-check --max-order {TORSOR_MAX_ORDER}: exit {rc!r}, {len(groups)} groups, want {expected_groups}",
    )


def _check_census(out: Outcome, cases, records, reports, crosses, caught) -> None:
    if isinstance(records, Exception) or len(records) != len(cases):
        for c in cases:
            out.check(False, f"{c.record['name']}: load_catalogue gave {records!r}")
        return
    out.check(not caught, f"census warnings: {[str(w.message) for w in caught][:3]}")
    for i, (case, report) in enumerate(zip(cases, reports)):
        name = case.record["name"]
        out.check(
            not isinstance(report, Exception)
            and report.exists == case.exists
            and report.count == case.count
            and report.e_s_plus == case.e_s_plus
            and report.e_s_minus == case.e_s_minus
            and report.ahat == case.ahat
            and bool(report.holonomy_note) == case.holonomy_note,
            f"{name}: census_report gave {report!r}",
        )
        if case.exists:
            out.check(crosses[i] is True, f"{name}: torsor_size_cross_check gave {crosses[i]!r}")


WORKLOADS = {"verify": verify, "cohomology": cohomology, "torsor": torsor}
