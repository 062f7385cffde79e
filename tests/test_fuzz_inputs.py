"""Mutated catalogue and complex files: the CLI exits 0 or 2, never with a traceback.

Each example starts from a bundled file (the manifold catalogue or the
(D8, S7) complex), applies one to three mutations from a fixed menu and runs
``main`` in process on the result.  A run that exits 0 prints no name that
could add a report line.  Objects are kept as lists of key/value pairs so
that a repeated key can be written out.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spinkit.cli import main

_DATA = Path(__file__).resolve().parents[1] / "src" / "spinkit" / "data"
# (seed document, command line with {file} for the mutated copy)
_SEEDS = {
    "catalogue": ("manifolds.json", ["census", "{file}", "--format", "structured"]),
    "complex": ("disk8_rel_sphere7.json", ["cohomology", "{file}", "--degree", "8"]),
}


class _Obj(list):
    """A JSON object as its (key, value) pairs, which may repeat a key."""


class _Raw(str):
    """Text written into the file as it is, such as an over-long integer literal."""


def _pairs(value):
    if isinstance(value, dict):
        return _Obj([k, _pairs(v)] for k, v in value.items())
    if isinstance(value, list):
        return [_pairs(v) for v in value]
    return value


def _dump(value) -> str:
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


def _slots(value):
    """Every (container, index) whose item can be replaced; object items are
    [key, value] pairs, so their value sits at index 1 of the pair."""
    if isinstance(value, _Obj):
        for pair in value:
            yield pair, 1
            yield from _slots(pair[1])
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i
            yield from _slots(item)


def _objects(value):
    if isinstance(value, _Obj):
        yield value
    if isinstance(value, list):
        for item in value:
            yield from _objects(item[1] if isinstance(value, _Obj) else item)


_OTHER_TYPES = ("x", 1.5, True, None, [], {}, 0)
# names that would add a line to a text report: a census summary, an H^0 line
_FORGED_NAMES = ("S8\n# 0 manifolds, 0 admit a structure", "pt; Z) = 0\nH^0(pt")


def _mutate(doc, kind: str, pick: int, small: int) -> None:
    objects = [o for o in _objects(doc) if o]
    slots = list(_slots(doc))
    ints = [(c, i) for c, i in slots if type(c[i]) is int]
    if kind == "drop" and objects:
        obj = objects[pick % len(objects)]
        del obj[pick % len(obj)]
    elif kind == "repeat" and objects:
        obj = objects[pick % len(objects)]
        obj.append(list(obj[pick % len(obj)]))
    elif kind == "retype" and slots:
        container, i = slots[pick % len(slots)]
        container[i] = _pairs(_OTHER_TYPES[small % len(_OTHER_TYPES)])
    elif kind == "nudge" and ints:
        container, i = ints[pick % len(ints)]
        container[i] += small or 1
    elif kind == "long" and ints:
        container, i = ints[pick % len(ints)]
        container[i] = _Raw("9" * 5000)
    elif kind == "deep" and slots:
        # written as text, since _dump recurses once per level as json.load
        # does; 10^5 levels pass the raised recursion limit hypothesis runs under
        container, i = slots[pick % len(slots)]
        container[i] = _Raw("[" * 10**5 + "]" * 10**5)
    elif kind in ("not-spin", "wide", "forge") and objects:
        key, value = {
            "not-spin": ("spin", False),
            "wide": ("h8_z2_dim", 20000),
            "forge": ("name", _FORGED_NAMES[small % 2]),
        }[kind]
        obj = objects[pick % len(objects)]
        for pair in obj:
            if pair[0] == key:
                pair[1] = value
                break
        else:
            obj.append([key, value])


_MUTATION = st.tuples(
    st.sampled_from(
        ("drop", "repeat", "retype", "nudge", "long", "deep", "not-spin", "wide", "forge")
    ),
    st.integers(0, 10_000),
    st.integers(-2, 2),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SEEDS)), st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_files_exit_0_or_2_without_traceback(fmt, mutations):
    filename, argv = _SEEDS[fmt]
    doc = _pairs(json.loads((_DATA / filename).read_text()))
    for mutation in mutations:
        _mutate(doc, *mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / filename
        path.write_text(_dump(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{file}", str(path)) for a in argv])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert str(path) in err.getvalue()
    elif fmt == "complex":
        assert out.getvalue().count("\n") == 1  # one H^8 line, whatever the name
    else:
        assert all(m["name"].isprintable() for m in json.loads(out.getvalue())["manifolds"])
