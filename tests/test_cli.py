"""Command-line surface: subcommands, formats, exit codes, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinkit
import spinkit.cli as cli
import spinkit.torsor as torsor
from spinkit.census import MAX_CHAR_NUMBER
from spinkit.cli import main
from spinkit.errors import TorsorError
from spinkit.torsor import DifferenceTable
from conftest import group_zero


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a malformed flag by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_clifford_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "clifford", "--seed", "7")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.rstrip().endswith("0 failed")


@pytest.mark.parametrize("seed", [42, 7])
def test_verify_all_matches_golden_report(capsys, seed):
    """The text report of `verify all` is byte-identical to the committed one."""
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", str(seed))
    assert code == 0
    golden = Path(__file__).parent / "data" / f"verify_all_seed{seed}.txt"
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["census"], "census_bundled.txt"),
        (["census", "--format", "structured"], "census_bundled.json"),
        # A-hat = 1 and A-hat = 4 records, boundary counts and "undetermined"
        (["census", "{data}/census_small_catalogue.json"], "census_small.txt"),
        (["census", "{data}/census_small_catalogue.json", "--format", "structured"],
         "census_small.json"),
        (["torsor-check", "--max-order", "16"], "torsor_check_max16.txt"),
        (["torsor-check", "--max-order", "16", "--format", "structured"],
         "torsor_check_max16.json"),
    ],
)
def test_output_matches_golden_report(capsys, argv, golden):
    """census and torsor-check print byte for byte the committed outputs."""
    data = Path(__file__).parent / "data"
    code, out, _ = run_cli(capsys, *(a.replace("{data}", str(data)) for a in argv))
    assert code == 0
    assert out.encode() == (data / golden).read_bytes()


def cohomology_transcript(capsys):
    """Each cohomology invocation of the golden, in order: a header line
    naming the arguments and the exit code, then what it printed."""
    data = Path(__file__).parent / "data"
    parts = []
    for file in (None, "point.json"):
        for degree in (-1, 0, 1, 7, 8, 9):
            for coeff in ("z", "z2", "z3"):
                for fmt in ("text", "structured"):
                    args = ["--degree", str(degree), "--coeff", coeff, "--format", fmt]
                    code, out, _ = run_cli(
                        capsys, "cohomology", *([str(data / file)] if file else []), *args
                    )
                    shown = " ".join(["cohomology", *([file] if file else []), *args])
                    parts.append(f"$ spinkit {shown}  # exit {code}\n{out}")
    return "".join(parts)


def test_cohomology_matches_golden_report(capsys):
    """H^k of the bundled (D8, S7) and of a point, for degrees -1, 0, 1, 7, 8
    and 9 over Z, Z/2 and Z/3 in both formats, byte for byte."""
    golden = Path(__file__).parent / "data" / "cohomology_bundled.txt"
    assert cohomology_transcript(capsys).encode() == golden.read_bytes()


def test_verify_structured_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "spin", "--seed", "3", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(c["passed"] for c in payload["checks"])


def test_verify_deterministic_given_seed(capsys):
    _, first, _ = run_cli(capsys, "verify", "spin", "--seed", "42")
    _, second, _ = run_cli(capsys, "verify", "spin", "--seed", "42")
    assert first == second


def test_cohomology_default_file(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--degree", "8", "--coeff", "z2")
    assert code == 0
    assert out.strip() == "H^8(D8, S7; Z/2) = Z/2"


def test_cohomology_degree_zero_point(capsys):
    point = Path(__file__).parent / "data" / "point.json"
    code, out, _ = run_cli(capsys, "cohomology", str(point), "--degree", "0")
    assert code == 0
    assert out.strip() == "H^0(point; Z) = Z"


@pytest.mark.parametrize(
    "name, shown",
    [
        ("(D8, S7) x (I, dI)", "(D8, S7) x (I, dI)"),  # the first "(" closes before the end
        ("   ", "X, Y"),
        ("()", "X, Y"),
    ],
)
def test_cohomology_report_drops_only_a_matching_outer_pair(capsys, tmp_path, name, shown):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"name": name, "cells": [1]}))
    code, out, _ = run_cli(capsys, "cohomology", str(path), "--degree", "0")
    assert code == 0
    assert out == f"H^0({shown}; Z) = Z\n"


def test_cohomology_structured(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--degree", "8", "--coeff", "z2", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "Z/2"
    assert payload["torsion"] == [2]


def test_cohomology_bad_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"cells": [1, 1], "boundary": {"1": [[1], [1]]}}')
    code, _, err = run_cli(capsys, "cohomology", str(bad), "--degree", "0")
    assert code == 2
    assert "error" in err


def test_cohomology_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "cohomology", "/no/such/file.json", "--degree", "1")
    assert code == 2


def test_census_table(capsys):
    code, out, _ = run_cli(capsys, "census")
    assert code == 0
    lines = out.splitlines()
    s8 = next(line for line in lines if line.startswith("S8"))
    assert "false" in s8
    sample = next(line for line in lines if line.startswith("closed-holonomy-sample"))
    assert " 2 " in sample or sample.rstrip().count(" 2") >= 1
    assert "e(S-) = e(S+) - e(TW)" in out


def test_census_structured(capsys):
    code, out, _ = run_cli(capsys, "census", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    rows = {m["name"]: m for m in payload["manifolds"]}
    assert rows["S8"]["exists"] is False
    assert rows["closed-holonomy-sample"]["count"] == 2
    assert rows["T8"]["count"] == "undetermined"
    assert rows["two-component-sample"]["count"] == 4


def test_census_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"manifolds": []}')
    code, out, _ = run_cli(capsys, "census", str(empty))
    assert code == 0
    assert "0 manifolds" in out


def test_census_data_dir_override(capsys, tmp_path, monkeypatch):
    (tmp_path / "manifolds.json").write_text(
        '{"manifolds": [{"name": "only", "p1_sq": 0, "p2": 0, "euler": 0, '
        '"h7_rel_rank": 0, "h8_z2_dim": 1, "has_boundary": true}]}'
    )
    monkeypatch.setenv("SPINKIT_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "census")
    assert code == 0
    assert "only" in out and "S8" not in out


def test_torsor_check(capsys):
    code, out, _ = run_cli(capsys, "torsor-check", "--max-order", "16")
    assert code == 0
    assert "0 failed" in out
    code1, out1, _ = run_cli(capsys, "torsor-check", "--max-order", "1")
    assert code1 == 0
    _, out2, _ = run_cli(capsys, "torsor-check", "--max-order", "1")
    assert out1 == out2


def test_torsor_check_reports_torsor_errors_as_failures(capsys, monkeypatch):
    def not_free(action):
        raise TorsorError("action is not free")

    monkeypatch.setattr(torsor, "difference_from_action", not_free)
    code, out, _ = run_cli(capsys, "torsor-check", "--max-order", "3")
    assert code == 1
    assert out.count("FAIL  [action is not free]") == 3
    assert "# 0 passed, 3 failed" in out
    monkeypatch.undo()

    def constant_table(group):
        carrier = ("a", "b")
        table = {(x, y): group_zero(group) for x in carrier for y in carrier}
        return DifferenceTable(group, carrier, table)

    monkeypatch.setattr(torsor, "regular_difference_table", constant_table)
    code, out, _ = run_cli(capsys, "torsor-check", "--max-order", "2")
    assert code == 1
    rows = out.splitlines()[1:3]
    assert rows[0].startswith("0 (order 1) ")
    assert rows[0].endswith("FAIL  [carrier size 2 != group order 1]")
    assert rows[1].startswith("Z/2 (order 2) ")
    assert rows[1].endswith("FAIL  [D(a, .) is not a bijection onto the group]")


def _abelian_group_count(max_order):
    """Abelian groups of order <= max_order: for each order, the product over
    its prime powers p^e of the number of partitions of e."""

    def partitions(e, cap):
        return 1 if e == 0 else sum(partitions(e - part, part) for part in range(1, min(e, cap) + 1))

    total = 0
    for n in range(1, max_order + 1):
        count, p = 1, 2
        while n > 1:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            count *= partitions(e, e)
            p += 1
        total += count
    return total


def test_torsor_check_at_the_order_cap(capsys):
    """The largest groups, (2,)^6, (4,4,4), (8,8) and (2,32) among them, pass."""
    code, out, _ = run_cli(capsys, "torsor-check", "--max-order", "64", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["groups"]) == _abelian_group_count(64) == 117
    assert all(g["passed"] for g in payload["groups"]) and payload["failed"] == 0


def test_torsor_check_puts_every_verdict_in_one_column(capsys):
    """At the order cap the longest name, (Z/2)^6 with its order, is 44
    characters, and its PASS lines up with every other row's."""
    code, out, _ = run_cli(capsys, "torsor-check", "--max-order", "64")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 117
    assert {line.index(" PASS") for line in rows} == {44}


def test_torsor_check_order_cap(capsys):
    code, _, err = run_cli(capsys, "torsor-check", "--max-order", "100")
    assert code == 2
    assert "64" in err


def test_census_malformed_record_exits_2(capsys, tmp_path):
    bad = tmp_path / "cat.json"
    bad.write_text('{"manifolds": [{"name": "incomplete"}]}')
    code, _, err = run_cli(capsys, "census", str(bad))
    assert code == 2
    assert "incomplete" in err


def _record(**override):
    rec = {"name": "bad-record", "p1_sq": 0, "p2": 0, "euler": 0, "h7_rel_rank": 0,
           "h8_z2_dim": 1, "has_boundary": True}
    return json.dumps({"manifolds": [{**rec, **override}]})


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["cohomology", "{file}", "--degree", "0"],
         '{"cells": [1, 1], "boundary": {"1": [[1.5]]}}', "malformed.json"),
        (["cohomology", "{file}", "--degree", "0"],
         '{"cells": [1, 1], "boundary": {"1": [["a"]]}}', "malformed.json"),
        (["cohomology", "{file}", "--degree", "0"], '{"cells": [1, true]}', "malformed.json"),
        (["cohomology", "{file}", "--degree", "0"],
         '{"cells": [1], "sub": {"0": [2]}}', "malformed.json"),
        (["cohomology", "{file}", "--degree", "0"],
         '{"cells": [1], "boundary": {"one": []}}', "malformed.json"),
        (["cohomology", "{file}", "--degree", "0"], '{"cells": [1], "mystery": 0}', "malformed.json"),
        (["census", "{file}"], _record(components="2"), "bad-record"),
        (["census", "{file}"], _record(p1_sq=1.5), "bad-record"),
        (["census", "{file}"], _record(simply_connected="no"), "bad-record"),
        (["census", "{file}"], _record(spin=1), "bad-record"),
        (["torsor-check", "--max-order", "0"], None, "--max-order"),
        (["torsor-check", "--max-order", "-3"], None, "--max-order"),
        # a closed W with c components has H^8(W; Z/2) = (Z/2)^c
        (["census", "{file}"], _record(has_boundary=False, components=2, h8_z2_dim=5), "bad-record"),
        (["census", "{file}"], _record(simply_connected=True, components=2), "bad-record"),
        # "07" would silently overwrite degree 7, and so would a repeated "7"
        (["cohomology", "{file}", "--degree", "8"],
         '{"cells": [1, 0, 0, 0, 0, 0, 0, 1, 1], "sub": {"7": [1], "07": [0]}}', "'07'"),
        (["cohomology", "{file}", "--degree", "8"],
         '{"cells": [1, 0, 0, 0, 0, 0, 0, 1, 1], "sub": {"7": [1], "7": [0]}}', "'7' appears twice"),
        (["census", "{file}"], _record().replace('"euler": 0', '"euler": 0, "euler": 2'),
         "'euler' appears twice"),
        # only z or z with ASCII digits, no leading zero, names a coefficient group
        (["cohomology", "--degree", "0", "--coeff", "z02"], None,
         "coefficient spec 'z02' is not z or zN"),
        (["cohomology", "--degree", "0", "--coeff", " z2"], None,
         "coefficient spec ' z2' is not z or zN"),
        (["cohomology", "--degree", "0", "--coeff", "z\u0662"], None,
         "coefficient spec 'z\u0662' is not z or zN"),
        (["cohomology", "--degree", "0", "--coeff", "z\u00b2"], None,
         "coefficient spec 'z\u00b2' is not z or zN"),
        # the census applies to spin records whose e(S+) is an integer,
        # with or without boundary
        pytest.param(["census", "{file}"], _record(spin=False),
                     "bad-record: the census applies only to spin manifolds", id="census-not-spin"),
        pytest.param(["census", "{file}"],
                     _record(name="fractional-e-plus", p1_sq=2, has_boundary=False),
                     "fractional-e-plus: e(S+) = -1/8 is not an integer", id="census-e-plus-closed"),
        pytest.param(["census", "{file}"], _record(p1_sq=1),
                     "bad-record: e(S+) = -1/16 is not an integer", id="census-e-plus-boundary"),
        # 2^14285 has more digits than CPython prints by default
        pytest.param(["census", "{file}"], _record(h8_z2_dim=14285),
                     "bad-record: h8_z2_dim = 14285 is over 14284", id="census-h8-14285"),
        pytest.param(["census", "{file}"], _record(h8_z2_dim=20000),
                     "bad-record: h8_z2_dim = 20000 is over 14284", id="census-h8-20000"),
        # json refuses integer literals over 4300 digits
        pytest.param(["census", "{file}"], _record().replace('"p2": 0', '"p2": ' + "7" * 5001),
                     "5001 digits", id="census-long-literal"),
        pytest.param(["cohomology", "{file}", "--degree", "0"],
                     '{"cells": [1, 1], "boundary": {"1": [[' + "7" * 5001 + ']]}}',
                     "5001 digits", id="cohomology-long-literal"),
        # json recurses once per nesting level, and 10^5 levels pass any recursion limit
        *(pytest.param([cmd, "{file}", *flags], "[" * 10**5 + "]" * 10**5, "nested too deeply",
                       id=f"{cmd}-deep-nesting")
          for cmd, flags in (("census", []), ("cohomology", ["--degree", "0"]))),
        # 4300-digit characteristic numbers whose e(S+) or A-hat would not print
        pytest.param(["census", "{file}", "--format", "structured"],
                     _record(p1_sq=10**4300 - 12, p2=-(10**4300 - 1), h8_z2_dim=0),
                     "bad-record: |p1_sq|, |p2| and |euler| must be below 10^4298",
                     id="census-4300-digits-structured"),
        pytest.param(["census", "{file}"],
                     _record(p1_sq=10**4300 - 11, p2=-(10**4300 - 1), h8_z2_dim=0),
                     "bad-record: |p1_sq|, |p2| and |euler| must be below 10^4298",
                     id="census-4300-digits-text"),
        # 4300-digit coprime entries: H^1 = Z/AB has 8599 digits
        *(pytest.param(["cohomology", "{file}", "--degree", "1", "--format", fmt],
                       '{"cells": [2, 2], "boundary": {"1": [[%d, 0], [0, %d]]}}'
                       % (10**4299 + 1, 10**4299 + 2),
                       "H^1 has a torsion order too long to print", id=f"cohomology-long-torsion-{fmt}")
          for fmt in ("text", "structured")),
        # a name holding a line break would forge a report line; it is shown escaped
        pytest.param(["census", "{file}"], _record(name="S8\n# 0 manifolds, 0 admit a structure"),
                     "'S8\\n# 0 manifolds, 0 admit a structure': name must be a printable string",
                     id="census-forged-name"),
        pytest.param(["census", "{file}"], '{"manifolds": [{"name": "x\\u2028y"}]}',
                     "'x\\u2028y' is missing fields", id="census-forged-name-missing-fields"),
        pytest.param(["cohomology", "{file}", "--degree", "0"],
                     '{"name": "pt; Z) = 0\\nH^0(pt", "cells": [1]}',
                     "the complex name 'pt; Z) = 0\\nH^0(pt' is not a printable string",
                     id="cohomology-forged-name"),
        # a misspelt top-level key would silently drop its records
        pytest.param(["census", "{file}"], _record()[:-1] + ', "manifold": []}',
                     "unknown keys ['manifold']", id="census-unknown-top-level-key"),
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, argv, text, named):
    path = tmp_path / "malformed.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert code == 2
    assert named in err
    assert text is None or str(path) in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "stem, argv, text, want",
    [
        # a complex without a name key is named after its stem, escaped
        ("pt\tx", ["cohomology", "{file}", "--degree", "0"], '{"cells": [1]}', "H^0(pt\\tx; Z) = Z\n"),
        ("a\u2028b", ["cohomology", "{file}", "--degree", "0", "--coeff", "z2"], '{"cells": [1]}',
         "H^0(a\\u2028b; Z/2) = Z/2\n"),
        # a path holding a line break is shown escaped in every error message
        ("bad\nname", ["cohomology", "{file}", "--degree", "0"], '{"cells": [1], "mystery": 0}',
         "bad\\nname.json: unknown keys ['mystery']"),
        ("bad\nname", ["cohomology", "{file}", "--degree", "0"], '{"cells": [1], "cells": [1]}',
         "bad\\nname.json: key 'cells' appears twice in one object"),
        ("bad\nname", ["cohomology", "{file}", "--degree", "0"], "[", "bad\\nname.json: not valid JSON"),
        ("bad\nname", ["census", "{file}"], '{"manifolds": [{"name": "x"}]}',
         "bad\\nname.json: x is missing fields"),
        ("bad\rname", ["cohomology", "{file}", "--degree", "1"],
         '{"cells": [2, 2], "boundary": {"1": [[%d, 0], [0, %d]]}}' % (10**4299 + 1, 10**4299 + 2),
         "bad\\rname.json: H^1 has a torsion order too long to print"),
        # a name key that is not printable is still refused
        ("named", ["cohomology", "{file}", "--degree", "0"], '{"name": "p\\tq", "cells": [1]}',
         "named.json: the complex name 'p\\tq' is not a printable string"),
    ],
    ids=["stem-tab", "stem-line-separator", "path-unknown-keys", "path-repeated-key", "path-bad-json",
         "path-catalogue", "path-long-torsion", "name-key-tab"],
)
def test_non_printable_stems_and_paths_are_shown_escaped(capsys, tmp_path, stem, argv, text, want):
    """A file whose stem or path holds a tab, a line break or a line
    separator gives one line of output or of error, showing each such
    character as repr escapes it."""
    path = tmp_path / f"{stem}.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *(a.replace("{file}", str(path)) for a in argv))
    if want.startswith("H^"):
        assert (code, out, err) == (0, want, "")
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and want in err and err.count("\n") == 1, err


def test_characteristic_numbers_at_the_bound_print(capsys, tmp_path):
    """At |p1_sq|, |p2|, |euler| = MAX_CHAR_NUMBER the 13-fold numerator of
    e(S+) still prints, in both formats and in the rejection message."""
    top = MAX_CHAR_NUMBER
    path = tmp_path / "cat.json"
    path.write_text(_record(name="at-bound", p1_sq=top - 3, p2=-top, euler=-top, h8_z2_dim=0))
    e_plus = (3 - 13 * top) // 16
    assert 16 * e_plus == 3 - 13 * top
    code, out, err = run_cli(capsys, "census", str(path), "--format", "structured")
    assert code == 0, err
    row = json.loads(out)["manifolds"][0]
    assert row["e_s_plus"] == str(e_plus) and row["e_s_minus"] == str(e_plus + top)
    assert row["ahat"] == str(Fraction(11 * top - 21, 5760))
    code, out, err = run_cli(capsys, "census", str(path))
    assert code == 0, err
    assert f"at-bound                 {e_plus}  false            -" in out
    # the rejected numerator 2 - 13 top has 4300 digits, the most that print
    path.write_text(_record(name="at-bound", p1_sq=top - 2, p2=-top, euler=-top, h8_z2_dim=0))
    code, out, err = run_cli(capsys, "census", str(path))
    assert code == 2 and out == ""
    assert f"at-bound: e(S+) = {2 - 13 * top}/16 is not an integer" in err
    assert len(str(13 * top - 2)) == 4300


def test_package_imports_with_the_standard_library_only():
    """Each entry module loads only the spinkit modules it runs, and none of
    the slow standard modules it does not need; afterwards every submodule
    imports with the standard library alone."""
    # -I -S: no site-packages and no environment paths, so any third-party
    # import anywhere in the package fails; -B: -I ignores
    # PYTHONDONTWRITEBYTECODE, and the child must leave no bytecode behind
    src = Path(spinkit.__file__).resolve().parents[1]
    loads = {
        "spinkit": set(),
        "spinkit.cli": {"cli", "errors"},
        "spinkit.cwcomplex": {"cwcomplex", "snf", "errors"},
        "spinkit.fileio": {"fileio", "errors"},
        "spinkit.multivector": {"multivector", "exactlinalg", "errors"},
        "spinkit.verify": {
            "verify", "gammarep", "spingroup", "multivector", "exactlinalg", "errors",
        },
    }
    unwanted = ["dataclasses", "inspect", "importlib.resources"]
    for target, submodules in loads.items():
        code = (
            "import importlib, json, pkgutil, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            f"importlib.import_module({target!r})\n"
            "loaded = sorted(n for n in sys.modules if n.partition('.')[0] == 'spinkit')\n"
            f"slow = [n for n in {unwanted!r} if n in sys.modules]\n"
            "import spinkit\n"
            "names = [m.name for m in pkgutil.iter_modules(spinkit.__path__, 'spinkit.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps([loaded, slow, len(names)]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        loaded, slow, count = json.loads(done.stdout)
        assert set(loaded) == {"spinkit", *(f"spinkit.{m}" for m in submodules)}, target
        assert slow == [], target
        assert count == 12


def test_readme_module_map_lists_each_module():
    """README's module map has one row per module of the package, ``__init__`` excepted."""
    package = Path(spinkit.__file__).resolve().parent
    readme = (package.parents[1] / "README.md").read_text()
    table = readme.split("## Module map", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1].strip().strip("`") for line in table.splitlines()[2:]]
    modules = [f"spinkit.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"]
    assert len(rows) == len(set(rows))
    assert set(rows) == set(modules)


def test_each_subcommand_loads_only_its_own_layer():
    """A subcommand run through ``cli.main`` loads the spinkit modules of its
    own layer and no slow standard module it does not use."""
    src = Path(spinkit.__file__).resolve().parents[1]
    clifford = {"verify", "gammarep", "spingroup", "multivector", "exactlinalg"}
    cases = [
        (["torsor-check", "--max-order", "1"], {"torsor"}, ["fractions", "decimal", "typing"]),
        (["cohomology", "--degree", "8"], {"fileio", "cwcomplex", "snf"}, ["fractions", "decimal"]),
        (["census"], {"fileio", "census"}, []),
        (["verify", "clifford"], clifford, []),
    ]
    for argv, layer, absent in cases:
        unwanted = [*absent, "importlib.resources"]
        code = (
            "import io, json, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "sys.stdout = io.StringIO()\n"
            "from spinkit import cli\n"
            f"status = cli.main({argv!r})\n"
            "sys.stdout = sys.__stdout__\n"
            "loaded = sorted(n for n in sys.modules if n.partition('.')[0] == 'spinkit')\n"
            f"slow = [n for n in {unwanted!r} if n in sys.modules]\n"
            "print(json.dumps([status, loaded, slow]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        status, loaded, slow = json.loads(done.stdout)
        assert status == 0, argv
        want = {"cli", "errors", *layer}
        assert set(loaded) == {"spinkit", *(f"spinkit.{m}" for m in want)}, argv
        assert slow == [], argv


def test_verify_scopes_match_the_suites():
    """The scopes the parser offers are the suites verify runs, plus all."""
    from spinkit import verify

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    scope = next(a for a in sub.choices["verify"]._actions if a.dest == "scope")
    assert tuple(scope.choices) == (*verify.SCOPES, "all")


def test_catalogue_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    """A catalogue is UTF-8 whatever the locale; text output that stdout
    cannot encode is a usage error, not a traceback."""
    record = json.loads(_record(name="K\u00e4hler"))
    path = tmp_path / "kahler.json"
    path.write_bytes(json.dumps(record, ensure_ascii=False).encode("utf-8"))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(LC_ALL="C", PYTHONPATH=str(Path(spinkit.__file__).resolve().parents[1]))

    def census(*flags):
        return subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "spinkit.cli", "census", str(path), *flags],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = census("--format", "structured")
    assert done.returncode == 0, done.stderr
    assert [m["name"] for m in json.loads(done.stdout)["manifolds"]] == ["K\u00e4hler"]
    done = census()
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and "--format structured" in done.stderr


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_reader_that_closes_stdout_early_keeps_the_exit_code(tmp_path, fmt):
    """``census BIG | head -1``: the report is larger than a pipe's buffer,
    so writing it meets a closed pipe; that is no usage error, so the exit
    code is the report's and standard error stays empty."""
    record = json.loads(_record())["manifolds"][0]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"manifolds": [{**record, "name": f"m{i}"} for i in range(1500)]}))
    env = dict(os.environ, PYTHONPATH=str(Path(spinkit.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinkit.cli", "census", str(path), "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_failing_check_maps_to_exit_1():
    from spinkit.verify import CheckResult

    code, payload, lines = cli._check_report(
        "synthetic", [CheckResult("good", True), CheckResult("bad", False, "boom")]
    )
    assert code == 1
    assert "bad   FAIL  [boom]" in lines
    assert payload["failed"] == 1


def test_verify_reports_a_planted_failure(capsys, monkeypatch):
    """A failing check row reaches both formats and exit code 1."""
    from spinkit import verify

    def crashes():
        raise ValueError("planted")

    monkeypatch.setattr(verify, "CHECKS", (
        ("clifford", "passes", lambda: None),
        ("clifford", "planted failure", lambda: "boom at n=3"),
        ("clifford", "crashes", crashes),
        ("spin", "not in scope", lambda: "never run"),
    ))
    code, out, err = run_cli(capsys, "verify", "clifford", "--seed", "5")
    assert (code, err) == (1, "")
    assert out == (
        "# verify clifford (seed 5)\n"
        "passes           PASS\n"
        "planted failure  FAIL  [boom at n=3]\n"
        "crashes          FAIL  [ValueError: planted]\n"
        "# 1 passed, 2 failed\n"
    )
    code, out, err = run_cli(capsys, "verify", "clifford", "--seed", "5", "--format", "structured")
    assert (code, err) == (1, "")
    checks = [
        {"name": "passes", "passed": True, "detail": ""},
        {"name": "planted failure", "passed": False, "detail": "boom at n=3"},
        {"name": "crashes", "passed": False, "detail": "ValueError: planted"},
    ]
    report = {"report": "verify clifford (seed 5)", "checks": checks, "passed": 1, "failed": 2}
    assert out == json.dumps(report, indent=1) + "\n"


def test_torsor_check_reports_a_planted_roundtrip_failure(capsys, monkeypatch):
    """A roundtrip that returns a different table fails only its own group,
    in both formats, with exit code 1."""
    real = torsor.difference_from_action

    def lossy(action):
        back = real(action)
        return DifferenceTable(back.group, back.carrier, {}) if len(back.carrier) == 2 else back

    monkeypatch.setattr(torsor, "difference_from_action", lossy)
    code, out, err = run_cli(capsys, "torsor-check", "--max-order", "3")
    assert (code, err) == (1, "")
    assert out == (
        "# torsor axioms + roundtrips for abelian groups of order <= 3\n"
        f"{'0 (order 1)':<40} PASS\n"
        f"{'Z/2 (order 2)':<40} FAIL  [roundtrip mismatch]\n"
        f"{'Z/3 (order 3)':<40} PASS\n"
        "# 2 passed, 1 failed\n"
    )
    code, out, err = run_cli(capsys, "torsor-check", "--max-order", "3", "--format", "structured")
    assert (code, err) == (1, "")
    groups = [
        {"group": "0 (order 1)", "passed": True, "detail": ""},
        {"group": "Z/2 (order 2)", "passed": False, "detail": "roundtrip mismatch"},
        {"group": "Z/3 (order 3)", "passed": True, "detail": ""},
    ]
    assert out == json.dumps({"max_order": 3, "groups": groups, "failed": 1}, indent=1) + "\n"


def test_each_subcommand_lists_format_last():
    """Each subcommand's options, in the order help and usage show them."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    shown = {
        name: [a.option_strings[0] if a.option_strings else a.dest for a in parser._actions]
        for name, parser in sub.choices.items()
    }
    assert shown == {
        "verify": ["-h", "scope", "--seed", "--format"],
        "cohomology": ["-h", "file", "--degree", "--coeff", "--format"],
        "census": ["-h", "file", "--format"],
        "torsor-check": ["-h", "--max-order", "--format"],
    }
    usage = sub.choices["cohomology"].format_usage()
    assert usage.index("--coeff") < usage.index("--format") < usage.index("[file]")


def test_reports_are_printed_once_in_main():
    """Handlers return their reports; one print in ``main`` writes stdout,
    and ``--format`` and ``json.dumps`` each appear once."""
    tree = ast.parse(Path(cli.__file__).read_text())
    to_stdout = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        and not any(k.arg == "file" for k in node.keywords)
    ]
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert len(to_stdout) == 1 and to_stdout[0] in list(ast.walk(main_def))
    calls = [ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert calls.count("json.dumps") == 1
    strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
    assert strings.count("--format") == 1


def _unused_names(modules, sources):
    """The module-level defs, classes and constants of ``modules`` read in no
    file of ``sources`` outside their own definition, the methods a class
    body defines read there neither as an attribute, ``x.method``, nor named
    as the benchmark tracer names what it wraps, ``"Class.method"``, and the
    names a module imports but does not read.

    A read is a ``Name``, an attribute, an imported name, a keyword or
    argument name, or a whole string constant, found with ``ast``, which
    also parses f-strings on every interpreter."""
    uses, attribute_uses = {}, {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
                attribute_uses.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            elif isinstance(node, (ast.keyword, ast.arg)):
                names = [node.arg]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
            unused += [f"{path.stem} imports {name}" for name in bound if name not in read]
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)
                ]
        for qualname, node in defined:
            name = qualname.rpartition(".")[2]
            found = uses.get(qualname, []) + (attribute_uses.get(name, []) if name != qualname else [])
            outside = [
                (p, line) for p, line in found
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside and not name.startswith("__"):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_module_level_name_is_used():
    """Each module-level name and class member in the package is read in the
    package or the benchmark (see ``_unused_names``), so no API survives only
    for tests, and no name is exempt."""
    package = Path(spinkit.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    sources = modules + sorted((package.parents[1] / "bench").glob("*.py"))
    assert _unused_names(modules, sources) == []


def test_no_module_imports_a_private_name():
    """Each layer reads the others through their public names: no module of
    the package imports a name starting with ``_`` from another spinkit
    module, nor any such module."""
    package = Path(spinkit.__file__).resolve().parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "spinkit"):
                imported += [(path.stem, f"{node.module or ''}.{alias.name}") for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.stem, a.name) for a in node.names if a.name.split(".")[0] == "spinkit"]
    assert len(imported) >= 80
    private = [f"{module} <- {name}" for module, name in imported if any(p.startswith("_") for p in name.split("."))]
    assert private == []


def test_unused_name_guard_reads_f_strings(tmp_path):
    """A name or member read only inside an f-string counts as used; a
    function nothing reads is still reported."""
    module = tmp_path / "snippet.py"
    module.write_text(
        "LIMIT = 3\n"
        "\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "def show(box):\n"
        '    return f"{box.size()} of {LIMIT}"\n'
        "\n"
        "def unread():\n"
        "    return show(Box())\n"
    )
    assert _unused_names([module], [module]) == ["snippet.unread"]


def test_readme_module_map_names_only_what_the_package_has():
    """Each identifier word inside backticks in README's module map occurs as
    a word in some module of the package, so a deleted name cannot stay in
    the map."""
    package = Path(spinkit.__file__).resolve().parent
    readme = (package.parents[1] / "README.md").read_text()
    table = readme.split("## Module map", 1)[1].split("\n\n", 2)[1]
    words = {w for span in re.findall(r"`([^`]*)`", table) for w in re.findall(r"[A-Za-z_]\w*", span)}
    source = "\n".join(path.read_text() for path in package.glob("*.py"))
    assert len(words) >= 30
    assert [w for w in sorted(words) if not re.search(rf"\b{w}\b", source)] == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
