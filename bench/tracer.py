"""Spans around spinkit's public functions, installed from outside the package.

Each listed function is wrapped and the wrapper is bound in place of the
original in every ``spinkit.*`` module that holds it, because modules such
as ``spinkit.verify`` import names directly.  Methods are wrapped on their
class.  A span records its id, its parent's id, the request it belongs to
and its start and end; self time is the span's duration minus the time its
child spans cover.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# Short names for the verify checks, keyed by the check name spinkit reports.
CHECK_SLUGS = {
    "generator relations e_i e_j + e_j e_i = -2 delta_ij, n = 1..8": "generator_relations",
    "geometric product associativity (40 random triples)": "associativity",
    "grade involution / reversal (anti)automorphism laws": "involution_laws",
    "even-part embedding is an algebra map with even image": "even_embedding",
    "volume elements: squares, centrality, parity commutation": "volume_elements",
    "chiral projectors: idempotent, orthogonal, complete": "chiral_projectors",
    "conjugation cover is a homomorphism (10 random pairs)": "cover_homomorphism",
    "kernel of the cover is exactly {+1, -1} (sampled)": "cover_kernel",
    "constructive lift inverts the cover (6 random rotations)": "lift_section",
    "double reflection equals conjugation by the factor product": "double_reflection",
    "bivector lift is a section of the cover differential": "bivector_lift",
    "seeded spin elements: deterministic, unit norm": "seeded_determinism",
    "gamma anticommutators realize the generator relations": "gamma_anticommutators",
    "gamma matrices are orthogonal and skew-symmetric": "gamma_orthogonal_skew",
    "256 monomial matrices span a 256-dimensional space": "monomial_span",
    "volume action splits R^16 into orthonormal 8+8 eigenspaces": "volume_eigensplit",
    "25 random unit vectors swap the chiral halves isometrically": "chiral_swap",
    "volume element acts as +1 on S+ and -1 on S-": "volume_signs",
    "spinor lift sends -1 to omega8; blade embedding keeps -1": "minus_one_lift",
    "conjugation of the spinor lift equals the spin rep (21 basis + 10 group)": "spinor_lift_identity",
    "joint fixed space of the spinor-type so(7) copy is a line": "fixed_line",
    "so(8)-stabilizer of unit spinors has dimension 21 (orbit rank 7)": "stabilizer_21",
    "the two so(7) copies intersect in dimension 14, fixing spinor and vector": "g2_intersection",
    "chiral so(7) stabilizer of 10 random unit spinors is 14-dim (orbit rank 7)": "sphere_transitivity",
    "the two embeddings differ: only the vector copy fixes e0": "embeddings_differ",
    "chiral rep of the lift factors through rotations; spin rep is odd": "sigma_factors",
}


def _mul_pairs(args) -> int:
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _mat_mul_mults(args) -> int:
    a, b = args[0], args[1]
    return len(a) * (len(b[0]) if b else 0) * len(b)


def _matrix_entries(args) -> int:
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _matrix_fingerprint(args) -> int:
    return hash(tuple(tuple(r) for r in args[0]))


# (module, attribute, layer name, work counter or None); "Class.method" wraps a method.
TARGETS = (
    ("spinkit.multivector", "Multivector.__mul__", "multivector.mul", _mul_pairs),
    ("spinkit.multivector", "p_iso", "multivector.p_iso", None),
    ("spinkit.spingroup", "adjoint_action", "spingroup.adjoint_action", None),
    ("spinkit.spingroup", "lift_rotation", "spingroup.lift_rotation", None),
    ("spinkit.spingroup", "RotationMatrix.__post_init__", "spingroup.rotation_check", None),
    ("spinkit.spingroup", "SpinElement._validate", "spingroup.spin_validate", None),
    ("spinkit.exactlinalg", "mat_mul", "exactlinalg.mat_mul", _mat_mul_mults),
    ("spinkit.exactlinalg", "kernel_basis", "exactlinalg.kernel_basis", None),
    ("spinkit.exactlinalg", "rank", "exactlinalg.rank", None),
    ("spinkit.exactlinalg", "det", "exactlinalg.det", None),
    ("spinkit.exactlinalg", "rank_mod_p", "exactlinalg.rank_mod_p", None),
    ("spinkit.gammarep", "build_cl8_rep", "gammarep.build", None),
    ("spinkit.gammarep", "chiral_action_matrix", "gammarep.chiral_action_matrix", None),
    ("spinkit.gammarep", "clifford_action", "gammarep.clifford_action", None),
    ("spinkit.gammarep", "iota_plus", "gammarep.iota_plus", None),
    ("spinkit.gammarep", "monomial_span_rank", "gammarep.monomial_span_rank", None),
    ("spinkit.snf", "smith_diagonal", "snf.smith_diagonal", _matrix_entries),
    ("spinkit.cwcomplex", "CWPairComplex.__init__", "cwcomplex.construct", None),
    ("spinkit.cwcomplex", "relative_cohomology", "cwcomplex.relative_cohomology", None),
    ("spinkit.cwcomplex", "product_with_interval", "cwcomplex.product_with_interval", None),
    ("spinkit.cwcomplex", "difference_cochain", "cwcomplex.difference_cochain", None),
    ("spinkit.cwcomplex", "coboundary", "cwcomplex.coboundary", None),
    ("spinkit.fileio", "load_complex", "fileio.load_complex", None),
    ("spinkit.fileio", "load_catalogue", "fileio.load_catalogue", None),
    ("spinkit.torsor", "verify_difference_axioms", "torsor.verify_difference_axioms", None),
    ("spinkit.torsor", "action_from_difference", "torsor.action_from_difference", None),
    ("spinkit.torsor", "difference_from_action", "torsor.difference_from_action", None),
    ("spinkit.torsor", "regular_difference_table", "torsor.regular_difference_table", None),
    ("spinkit.census", "census_report", "census.census_report", None),
    ("spinkit.census", "torsor_size_cross_check", "census.torsor_size_cross_check", None),
    ("spinkit.cli", "main", "cli.main", None),
)

# Layers whose distinct inputs are counted, for distinct_ratio.
FINGERPRINTS = {"snf.smith_diagonal": _matrix_fingerprint}

# Which aggregates of which layer become per-layer metrics.
LAYER_METRICS = {
    "multivector.mul": ("calls", "self_s", "term_pairs"),
    "multivector.p_iso": ("self_s",),
    "spingroup.adjoint_action": ("calls", "self_s"),
    "spingroup.lift_rotation": ("calls", "self_s"),
    "spingroup.rotation_check": ("self_s",),
    "spingroup.spin_validate": ("self_s",),
    "exactlinalg.mat_mul": ("calls", "self_s", "mults"),
    "exactlinalg.kernel_basis": ("calls", "self_s"),
    "exactlinalg.rank": ("calls", "self_s"),
    "exactlinalg.det": ("self_s",),
    "exactlinalg.rank_mod_p": ("self_s",),
    "gammarep.chiral_action_matrix": ("calls", "self_s"),
    "gammarep.clifford_action": ("self_s",),
    "gammarep.iota_plus": ("total_s",),
    "gammarep.monomial_span_rank": ("total_s",),
    "snf.smith_diagonal": ("calls", "self_s", "entries", "max_s", "distinct_ratio"),
    "cwcomplex.construct": ("calls", "self_s"),
    "cwcomplex.relative_cohomology": ("calls", "self_s"),
    "cwcomplex.product_with_interval": ("self_s",),
    "cwcomplex.difference_cochain": ("self_s",),
    "cwcomplex.coboundary": ("self_s",),
    "fileio.load_complex": ("self_s",),
    "fileio.load_catalogue": ("self_s",),
    "torsor.verify_difference_axioms": ("calls", "self_s"),
    "torsor.action_from_difference": ("self_s",),
    "torsor.difference_from_action": ("self_s",),
    "torsor.regular_difference_table": ("self_s",),
    "census.census_report": ("calls", "self_s"),
    "census.torsor_size_cross_check": ("self_s",),
    "cli.main": ("self_s",),
}

UNITS = {
    "calls": "count",
    "term_pairs": "count",
    "mults": "count",
    "entries": "count",
    "distinct_ratio": "ratio",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in a fixed order."""
    names = [f"{layer}.{agg}" for layer, aggs in LAYER_METRICS.items() for agg in aggs]
    names.insert(names.index("gammarep.chiral_action_matrix.calls"), "gammarep.build_s")
    names += [f"verify.check.{slug}.s" for slug in CHECK_SLUGS.values()]
    names.append("trace.overhead_frac")
    return names


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "ratio" if name.endswith("_frac") else "s")


class _Aggregate:
    __slots__ = ("calls", "self_s", "total_s", "max_s", "work", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.max_s = 0.0
        self.work = 0
        self.distinct: set | None = None


class Tracer:
    """Collects spans and per-layer aggregates for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = ""
        self._stack: list[list] = []  # [span id, time covered by children]
        self._aggregates: dict[str, _Aggregate] = {}
        self._installed: list[tuple] = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, count=None, fingerprint=None):
        """Call fn(*args, **kwargs) inside a span called ``name``."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            agg = self._aggregates.get(name)
            if agg is None:
                agg = self._aggregates[name] = _Aggregate()
            agg.calls += 1
            agg.self_s += duration - frame[1]
            agg.total_s += duration
            agg.max_s = max(agg.max_s, duration)
            if count is not None:
                agg.work += count(args)
            if fingerprint is not None:
                if agg.distinct is None:
                    agg.distinct = set()
                agg.distinct.add(fingerprint(args))
            self.spans[sid] = (sid, parent, self.request, name, start, end)

    def _wrapper(self, name, fn, count):
        tracer = self
        fingerprint = FINGERPRINTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, count, fingerprint)

        return traced

    def _check_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(name, check, *args, **kwargs):
            label = f"verify.check.{CHECK_SLUGS.get(name, 'unlisted')}"
            return tracer.span(label, fn, (name, check) + args, kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that no longer exist."""
        missing = []
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "spinkit" or n.startswith("spinkit.")]
        for module_name, attribute, name, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    missing.append(f"{module_name}.{attribute}")
                    continue
                self._rebind(owner, method, self._wrapper(name, original, count))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                missing.append(f"{module_name}.{attribute}")
                continue
            wrapped = self._wrapper(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
        verify = importlib.import_module("spinkit.verify")
        run = getattr(verify, "_run", None)
        if run is None:
            missing.append("spinkit.verify._run")
        else:
            self._rebind(verify, "_run", self._check_wrapper(run))
        return missing

    def _rebind(self, owner, attribute, value) -> None:
        self._installed.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, tuple[float, int]], list[str]]:
        """(value, calls behind it) by per-layer metric name, and the checks never seen."""
        out: dict[str, tuple[float, int]] = {}
        for layer, aggs in LAYER_METRICS.items():
            agg = self._aggregates.get(layer) or _Aggregate()
            for a in aggs:
                if a == "calls":
                    value = agg.calls
                elif a == "distinct_ratio":
                    value = len(agg.distinct) / agg.calls if agg.calls else 0.0
                elif a in ("self_s", "total_s", "max_s"):
                    value = getattr(agg, a)
                else:
                    value = agg.work
                out[f"{layer}.{a}"] = (value, agg.calls)
        build = self._aggregates.get("gammarep.build") or _Aggregate()
        out["gammarep.build_s"] = (build.total_s, build.calls)
        missing = []
        for slug in CHECK_SLUGS.values():
            agg = self._aggregates.get(f"verify.check.{slug}")
            if agg is None:
                missing.append(f"verify.check.{slug}.s")
                agg = _Aggregate()
            out[f"verify.check.{slug}.s"] = (agg.total_s, agg.calls)
        return out, missing

    def span_count(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        """Write the spans, one JSON array per line: id, parent, request, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span))
                    fh.write("\n")


def per_span_cost(samples: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a trivial function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrapper("calibration", noop, None)
    start = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        wrapped()
    traced = perf_counter() - start
    return max(traced - bare, 0.0) / samples
