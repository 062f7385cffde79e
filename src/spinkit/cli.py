"""Command-line front end.

Subcommands::

    spinkit verify {clifford|spin|reps|all} [--seed N] [--format F]
    spinkit cohomology [FILE] --degree K [--coeff {z,z2,zN}] [--format F]
    spinkit census [FILE] [--format F]
    spinkit torsor-check [--max-order N] [--format F]

``--format`` is ``text`` (default) or ``structured`` (JSON).  Bundled data
files are used when FILE is omitted; the environment variable
``SPINKIT_DATA_DIR`` points lookups at a different data directory.

Exit codes: 0 success, 1 at least one check failed, 2 usage or input errors.
A reader that closes standard output early leaves the report's exit code.

Each handler returns its report as ``(status, payload, lines)``: the exit
code, the structured report and the text report's lines.  ``main`` alone
prints, rendering the payload or the lines in one write, so a line that
standard output cannot encode fails a text report before any of it is shown.

Each handler imports its own layer when it runs: ``verify`` the Clifford
stack, ``cohomology`` the file readers and the cellular layer, ``census`` the
file readers and the census layer, and ``torsor-check`` the torsor layer.
This module itself loads only the standard library and the error classes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import accumulate

from .errors import SpinkitError, TorsorError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _parse_coefficients(text: str):
    from .cwcomplex import Z_COEFF, CoefficientGroup

    # ASCII digits without a leading zero or surrounding space, so no other
    # spelling silently becomes the same group
    match = re.fullmatch(r"[zZ]([1-9][0-9]*)?", text)
    if match and match[1] is None:
        return Z_COEFF
    if match and int(match[1]) >= 2:
        return CoefficientGroup(int(match[1]))
    raise argparse.ArgumentTypeError(f"coefficient spec {text!r} is not z or zN (N >= 2)")


def _check_report(title: str, results) -> tuple[int, dict, list[str]]:
    failed = sum(not r.passed for r in results)
    payload = {
        "report": title,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "passed": len(results) - failed,
        "failed": failed,
    }
    width = max((len(r.name) for r in results), default=0)
    lines = [f"# {title}"]
    for r in results:
        suffix = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}{suffix}")
    lines.append(f"# {len(results) - failed} passed, {failed} failed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK, payload, lines


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    from .verify import run_suites

    results = run_suites(args.scope, seed=args.seed)
    return _check_report(f"verify {args.scope} (seed {args.seed})", results)


def _cmd_cohomology(args) -> tuple[int, dict, list[str]]:
    from .cwcomplex import relative_cohomology
    from .fileio import data_path, load_complex, shown

    path = args.file if args.file else data_path("disk8_rel_sphere7.json")
    cx = load_complex(path)
    group = relative_cohomology(cx, args.degree, args.coeff)
    try:
        text = str(group)
    except ValueError:  # an order past the int-to-str digit limit
        raise SpinkitError(f"{shown(path)}: H^{args.degree} has a torsion order too long to print")
    core = (cx.name or "").strip()
    # drop the outer pair only when the "(" at position 0 closes at the end
    depths = [*accumulate((ch == "(") - (ch == ")") for ch in core)]
    if core.startswith("(") and 0 not in depths[:-1] and depths[-1] == 0:
        core = core[1:-1]
    core = core if core.strip() else "X, Y"
    payload = {
        "complex": cx.name,
        "degree": args.degree,
        "coefficients": str(args.coeff),
        "group": text,
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
    }
    return EXIT_OK, payload, [f"H^{args.degree}({core}; {args.coeff}) = {text}"]


def _cmd_census(args) -> tuple[int, dict, list[str]]:
    from .census import NEGATIVE_CHIRALITY_CONVENTION, census_report
    from .fileio import BUNDLED_CATALOGUE, data_path, load_catalogue

    path = args.file if args.file else data_path(BUNDLED_CATALOGUE)
    rows = [census_report(d) for d in load_catalogue(path)]
    payload = {
        "convention": NEGATIVE_CHIRALITY_CONVENTION,
        "manifolds": [
            {
                "name": r.name,
                "e_s_plus": str(r.e_s_plus),
                "e_s_minus": str(r.e_s_minus),
                "exists": r.exists,
                "count": r.count,
                "ahat": str(r.ahat),
                "holonomy_note": r.holonomy_note,
            }
            for r in rows
        ],
    }
    header = f"{'manifold':<24} {'e(S+)':>8} {'exists':>6} {'count':>12}  note"
    lines = [header, "-" * len(header)]
    for r in rows:
        count = "-" if r.count is None else str(r.count)
        lines.append(f"{r.name:<24} {str(r.e_s_plus):>8} {str(r.exists).lower():>6} {count:>12}  {r.holonomy_note}")
    with_structure = sum(1 for r in rows if r.exists)
    lines.append(f"# {len(rows)} manifolds, {with_structure} admit a structure")
    lines.append(f"# convention: {NEGATIVE_CHIRALITY_CONVENTION}")
    return EXIT_OK, payload, lines


def _cmd_torsor_check(args) -> tuple[int, dict, list[str]]:
    from .torsor import (
        MAX_TORSOR_ORDER,
        abelian_groups_up_to,
        action_from_difference,
        difference_from_action,
        regular_difference_table,
    )

    if not 1 <= args.max_order <= MAX_TORSOR_ORDER:
        raise SpinkitError(f"--max-order must be between 1 and {MAX_TORSOR_ORDER}")
    results = []
    for group in abelian_groups_up_to(args.max_order):
        table = regular_difference_table(group)
        try:
            # action_from_difference checks the difference axioms first
            back = difference_from_action(action_from_difference(table))
            ok = back.table == table.table
            detail = "" if ok else "roundtrip mismatch"
        except TorsorError as exc:
            ok, detail = False, str(exc)
        results.append((f"{group} (order {group.order()})", ok, detail))
    failed = sum(not ok for _, ok, _ in results)
    payload = {
        "max_order": args.max_order,
        "groups": [{"group": name, "passed": ok, "detail": detail} for name, ok, detail in results],
        "failed": failed,
    }
    lines = [f"# torsor axioms + roundtrips for abelian groups of order <= {args.max_order}"]
    width = max([40] + [len(name) for name, _, _ in results])  # one column for every verdict
    for name, ok, detail in results:
        suffix = f"  [{detail}]" if detail else ""
        lines.append(f"{name:<{width}} {'PASS' if ok else 'FAIL'}{suffix}")
    lines.append(f"# {len(results) - failed} passed, {failed} failed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK, payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinkit",
        description="Exact verification suites, cellular cohomology, torsor checks, "
        "and the Spin(7)-structure census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact verification suites")
    p_verify.add_argument("scope", choices=("clifford", "spin", "reps", "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_coh = sub.add_parser("cohomology", help="relative cohomology of a CW pair file")
    p_coh.add_argument("file", nargs="?", help="complex file (default: bundled (D8, S7))")
    p_coh.add_argument("--degree", type=int, required=True)
    p_coh.add_argument("--coeff", type=_parse_coefficients, default="z",
                       help="z (integers) or zN (mod N); default z")
    p_coh.set_defaults(func=_cmd_cohomology)

    p_census = sub.add_parser("census", help="structure existence/count table for a catalogue")
    p_census.add_argument("file", nargs="?", help="catalogue file (default: bundled)")
    p_census.set_defaults(func=_cmd_census)

    p_torsor = sub.add_parser("torsor-check", help="exhaustive difference/action equivalence")
    p_torsor.add_argument("--max-order", type=int, default=16)
    p_torsor.set_defaults(func=_cmd_torsor_check)

    # declared last, so help and usage list it after each subcommand's own options
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, payload, lines = args.func(args)
        try:
            print(json.dumps(payload, indent=1) if args.format == "structured" else "\n".join(lines))
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed stdout; the report's status stands
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # silences the exit flush
        return status
    except (SpinkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeEncodeError as exc:  # text output naming a character stdout cannot encode
        shown = exc.object[exc.start : exc.end]
        print(f"error: standard output ({exc.encoding}) cannot encode {shown!r}; "
              "--format structured writes ASCII-only JSON", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
