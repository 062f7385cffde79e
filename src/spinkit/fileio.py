"""On-disk formats: CW pair complexes and manifold catalogues.

Both formats are JSON, read as UTF-8 (RFC 8259) whatever the locale.  An
integer literal may have at most 4300 digits, CPython's default int-string
limit; a longer one is an error.

Complex file::

    {
      "name": "(D8, S7)",
      "cells": [1, 0, 0, 0, 0, 0, 0, 1, 1],
      "boundary": {"8": [[1]]},
      "sub": {"0": [1], "7": [1], "8": [0]}
    }

``cells[k]`` counts k-cells; ``boundary[str(k)]`` is the cells[k-1] x
cells[k] integer incidence matrix, row-major, omitted when zero;
``sub[str(k)]`` holds 0/1 (or false/true) flags marking subcomplex cells,
omitted when all zero; ``name``, printable, defaults to the file's stem.
Counts and entries must be integers; any other key or type, or a degree
key not written as ``str(k)`` (``"07"``), is an error.

Manifold catalogue::

    {"manifolds": [{"name": ..., "p1_sq": ..., "p2": ..., "euler": ...,
                    "h7_rel_rank": ..., "h8_z2_dim": ..., "components": ...,
                    "simply_connected": ..., "has_boundary": ..., "spin": ...},
                   ...]}

Field names match :class:`spinkit.census.ManifoldCharData` exactly;
``components`` (default 1) and the three flags (defaults false, false,
true) may be omitted.

In both formats a key repeated within one object is an error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CensusDataError, ComplexValidationError, SpinkitError

if TYPE_CHECKING:
    from .census import ManifoldCharData
    from .cwcomplex import CWPairComplex

DATA_DIR_ENV = "SPINKIT_DATA_DIR"

BUNDLED_CATALOGUE = "manifolds.json"


def data_path(filename: str) -> Path:
    """Resolve a bundled data file, honoring the data-directory override."""
    override = os.environ.get(DATA_DIR_ENV)
    return Path(override or Path(__file__).parent / "data") / filename


_COMPLEX_KEYS = ("name", "cells", "boundary", "sub")


def shown(path: str | Path) -> str:
    """``str(path)`` with each non-printable character escaped as ``repr``
    shows it, so a path or file stem put in a message or a report stays on
    one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


def _read_json(path: str | Path, error: type[SpinkitError]):
    """Parse a JSON file, raising ``error`` on bad syntax, an over-long integer
    literal, nesting deeper than the interpreter's recursion limit or a key
    repeated in one object."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{shown(path)}: key {key!r} appears twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{shown(path)}: not valid JSON (line {exc.lineno}): {exc.msg}")
    except error:
        raise
    except ValueError as exc:
        # an integer literal over the int-string digit limit, or bytes that are not UTF-8
        raise error(f"{shown(path)}: not valid input: {exc}") from None
    except RecursionError:
        raise error(f"{shown(path)}: not valid input: nested too deeply") from None


def _by_degree(raw: dict, key: str) -> dict[int, object]:
    table = raw.get(key, {})
    if not isinstance(table, dict):
        raise ComplexValidationError(f"'{key}' must map degrees to lists")
    for k in table:
        if not (k.isdecimal() and str(int(k)) == k):
            raise ComplexValidationError(f"'{key}' has degree key {k!r}; write degrees as plain integers")
    return {int(k): v for k, v in table.items()}


def load_complex(path: str | Path) -> CWPairComplex:
    """Read a CW pair complex, raising ComplexValidationError on bad data; one
    without a ``name`` key is named after the file's stem, shown escaped."""
    from .cwcomplex import CWPairComplex

    raw = _read_json(path, ComplexValidationError)
    if not isinstance(raw, dict) or "cells" not in raw:
        raise ComplexValidationError(f"{shown(path)}: expected an object with a 'cells' list")
    unknown = set(raw) - set(_COMPLEX_KEYS)
    if unknown:
        raise ComplexValidationError(f"{shown(path)}: unknown keys {sorted(unknown)}")
    try:
        boundary, sub = _by_degree(raw, "boundary"), _by_degree(raw, "sub")
        return CWPairComplex(raw["cells"], boundary, sub, raw["name"] if "name" in raw else shown(Path(path).stem))
    except ComplexValidationError as exc:
        raise ComplexValidationError(f"{shown(path)}: {exc}") from None


def load_catalogue(path: str | Path) -> list[ManifoldCharData]:
    """Read a manifold catalogue, naming the offending record on errors."""
    from .census import ManifoldCharData

    required = ManifoldCharData.REQUIRED_FIELDS
    names = {*required, *ManifoldCharData.OPTIONAL_FIELDS}
    raw = _read_json(path, CensusDataError)
    records = raw.get("manifolds") if isinstance(raw, dict) else None
    if not isinstance(records, list):
        raise CensusDataError(f"{shown(path)}: expected an object with a 'manifolds' list")
    unknown = set(raw) - {"manifolds"}
    if unknown:
        raise CensusDataError(f"{shown(path)}: unknown keys {sorted(unknown)}")
    out = []
    for i, rec in enumerate(records):
        label = rec.get("name", f"record #{i}") if isinstance(rec, dict) else f"record #{i}"
        if isinstance(label, str) and not label.isprintable():
            label = repr(label)
        if not isinstance(rec, dict):
            raise CensusDataError(f"{shown(path)}: {label} is not an object")
        missing = [f for f in required if f not in rec]
        if missing:
            raise CensusDataError(f"{shown(path)}: {label} is missing fields {missing}")
        unknown = set(rec) - names
        if unknown:
            raise CensusDataError(f"{shown(path)}: {label} has unknown fields {sorted(unknown)}")
        try:
            out.append(ManifoldCharData(**rec))
        except CensusDataError as exc:
            raise CensusDataError(f"{shown(path)}: {exc}") from None
    return out
