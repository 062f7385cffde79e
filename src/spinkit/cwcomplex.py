"""Finite relative CW pairs and their cellular cochain algebra.

A :class:`CWPairComplex` stores per-dimension cell counts, integer
incidence matrices, and flags marking a closed subcomplex Y.  Cochains
carry values on *all* cells of their degree; a cochain is relative when it
vanishes on Y, and since Y is closed the coboundary of a relative cochain
is again relative.  Keeping the absolute values around is what lets the
difference-cochain decomposition compare the two end blocks of a cylinder
cochain with the end cochains before reading off the interval component.

Complexes are immutable: validated once, at construction, never changed
afterwards.  The constructor reads each boundary matrix once, into the
nonzero (row, entry) columns of d_k that the pair keeps; the dd = 0 and
closed-Y checks, :func:`pair_product` and :func:`coboundary` read those
columns, while the dense ``boundary`` stays the public and file form.
Each pair also keeps the one cylinder X x I that
:func:`product_with_interval` builds and validates for it, and the one
Smith diagonal of each coboundary delta_k that :func:`relative_cohomology`
reads for H^k and H^(k+1) over every coefficient group.

Sign convention, fixed once and checked by the tests: products of pairs
follow the Koszul rule d(a x b) = da x b + (-1)^|a| a x db.  The interval
pair has dI = 1 - 0, so the cylinder has
d(s x I) = (ds) x I + (-1)^dim(s) (s x 1 - s x 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .errors import ComplexValidationError, DimensionMismatchError, ResidueError
from .snf import AbelianGroup, smith_diagonal

# base pairs live in dimensions 0..8; their cylinders reach dimension 9
MAX_DIMENSION = 10


@dataclass(frozen=True)
class CoefficientGroup:
    """Z (modulus 0) or the cyclic group Z/m."""

    modulus: int

    def __post_init__(self):
        if type(self.modulus) is not int:
            raise TypeError(f"modulus must be an integer, not {self.modulus!r}")
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0 (0 meaning Z)")

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def __str__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


Z_COEFF = CoefficientGroup(0)


class CWPairComplex:
    """Finite CW pair (X, Y) as integer boundary matrices plus Y-flags.

    ``cells[k]`` counts the k-cells; ``boundary[k]`` is the cells[k-1] x
    cells[k] incidence matrix of d_k; ``sub[k][i]`` marks cell i of
    dimension k as belonging to the subcomplex Y.
    """

    def __init__(
        self,
        cells: list[int],
        boundary: dict[int, list[list[int]]] | None = None,
        sub: dict[int, list[int]] | None = None,
        name: str = "",
    ):
        if not isinstance(cells, list) or len(cells) > MAX_DIMENSION or not all(
            type(c) is int and c >= 0 for c in cells
        ):
            raise ComplexValidationError("cell counts must be nonnegative integers, dimensions 0..9")
        if not isinstance(name, str):
            raise ComplexValidationError("the complex name must be a string")
        self.cells = list(cells)
        self.dim = len(self.cells) - 1
        self.name = name
        self.boundary: dict[int, list[list[int]]] = {}
        # _columns[k][j]: the nonzero (row, entry) pairs of column j of d_k
        self._columns: list[list[list[tuple[int, int]]]] = [[[] for _ in range(self.cell_count(0))]]
        boundary = boundary or {}
        sub = sub or {}
        if not set(boundary) | set(sub) <= set(range(self.dim + 1)) or 0 in boundary:
            raise ComplexValidationError(f"boundary or sub data outside degrees 0..{self.dim}")
        for k in range(1, self.dim + 1):
            rows, cols = self.cells[k - 1], self.cells[k]
            matrix = boundary.get(k)
            if matrix is None:
                matrix = [[0] * cols for _ in range(rows)]
            if not isinstance(matrix, list) or len(matrix) != rows or not all(
                isinstance(r, list) and len(r) == cols for r in matrix
            ):
                raise ComplexValidationError(f"boundary matrix in degree {k} must be {rows}x{cols}")
            columns: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
            for i, r in enumerate(matrix):
                for j, x in enumerate(r):
                    if type(x) is not int:
                        raise ComplexValidationError(f"boundary matrix in degree {k} must hold integers")
                    if x:
                        columns[j].append((i, x))
            self.boundary[k] = [list(r) for r in matrix]
            self._columns.append(columns)
        self.sub: dict[int, list[bool]] = {}
        for k in range(0, self.dim + 1):
            flags = sub.get(k, [0] * self.cells[k])
            if not isinstance(flags, list) or len(flags) != self.cells[k]:
                raise ComplexValidationError(f"sub flags in degree {k} have wrong length")
            if not all(isinstance(x, int) and x in (0, 1) for x in flags):
                raise ComplexValidationError(f"sub flags in degree {k} must be 0, 1, true or false")
            self.sub[k] = [bool(x) for x in flags]
        self._validate()
        self._cylinder: CWPairComplex | None = None
        self._diagonals: dict[int, list[int]] = {}

    def _validate(self) -> None:
        # column j of d_k d_(k+1): the sum of x * (column t of d_k) over (t, x) in column j of d_(k+1)
        for k in range(1, self.dim):
            a_cols = self._columns[k]
            for col in self._columns[k + 1]:
                acc: dict[int, int] = {}
                for t, x in col:
                    for i, y in a_cols[t]:
                        acc[i] = acc.get(i, 0) + x * y
                if any(acc.values()):
                    raise ComplexValidationError(f"dd != 0 between degrees {k + 1} and {k}")
        for k in range(1, self.dim + 1):
            below = self.sub[k - 1]
            for col, in_y in zip(self._columns[k], self.sub[k]):
                if in_y and not all(below[i] for i, _ in col):
                    raise ComplexValidationError("subcomplex is not closed under the boundary")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CWPairComplex)
            and self.cells == other.cells
            and self.boundary == other.boundary
            and self.sub == other.sub
        )

    def __hash__(self):
        return hash((tuple(self.cells),))

    def cell_count(self, k: int) -> int:
        return self.cells[k] if 0 <= k <= self.dim else 0

    def relative_indices(self, k: int) -> list[int]:
        if not 0 <= k <= self.dim:
            return []
        return [i for i in range(self.cells[k]) if not self.sub[k][i]]

    def relative_coboundary_matrix(self, k: int) -> list[list[int]]:
        """delta: C^k(X,Y) -> C^(k+1)(X,Y), the restricted transpose of d_(k+1)."""
        rows = self.relative_indices(k + 1)
        cols = self.relative_indices(k)
        if k + 1 > self.dim:
            return [[] for _ in rows] if rows else []
        b = self.boundary[k + 1]
        return [[b[c][r] for c in cols] for r in rows]


@dataclass(frozen=True)
class Cochain:
    """Cellular k-cochain with Z or Z/m coefficients.

    Values are indexed by all k-cells of the complex; relative cochains
    are exactly those vanishing on the subcomplex.
    """

    complex: CWPairComplex
    degree: int
    coefficients: CoefficientGroup
    values: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.degree <= self.complex.dim:
            raise DimensionMismatchError(
                f"degree {self.degree} out of range for a {self.complex.dim}-complex"
            )
        expected = self.complex.cell_count(self.degree)
        if len(self.values) != expected:
            raise DimensionMismatchError(
                f"expected {expected} values in degree {self.degree}, got {len(self.values)}"
            )
        for v in self.values:
            if type(v) is not int:
                raise TypeError(f"cochain values must be integers, not {v!r}")
        object.__setattr__(self, "values", tuple(map(self.coefficients.reduce, self.values)))

    @classmethod
    def zero(cls, complex: CWPairComplex, degree: int, coefficients: CoefficientGroup) -> "Cochain":
        return cls(complex, degree, coefficients, (0,) * complex.cell_count(degree))

    def _compatible(self, other: "Cochain") -> None:
        if (
            self.complex != other.complex
            or self.degree != other.degree
            or self.coefficients != other.coefficients
        ):
            raise DimensionMismatchError("cochains live on different complexes/degrees/coefficients")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(
            self.complex,
            self.degree,
            self.coefficients,
            tuple(a + b for a, b in zip(self.values, other.values)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(
            self.complex,
            self.degree,
            self.coefficients,
            tuple(a - b for a, b in zip(self.values, other.values)),
        )

    def __neg__(self) -> "Cochain":
        return Cochain(
            self.complex, self.degree, self.coefficients, tuple(-v for v in self.values)
        )

    def is_zero(self) -> bool:
        return not any(self.values)

    def is_relative(self) -> bool:
        flags = self.complex.sub[self.degree]
        return all(v == 0 for v, f in zip(self.values, flags) if f)


def coboundary(c: Cochain) -> Cochain:
    """delta c, the transpose-of-boundary action with reduced coefficients."""
    cx = c.complex
    k = c.degree
    if k + 1 > cx.dim:
        raise DimensionMismatchError("coboundary would exceed the complex dimension")
    v = c.values
    out = tuple(sum(x * v[i] for i, x in col) for col in cx._columns[k + 1])
    return Cochain(cx, k + 1, c.coefficients, out)


def _coboundary_diagonal(cx: CWPairComplex, k: int) -> list[int]:
    """Smith diagonal of delta_k, computed on the first call for cx and k."""
    if k not in cx._diagonals:
        cx._diagonals[k] = smith_diagonal(cx.relative_coboundary_matrix(k))
    return cx._diagonals[k]


def relative_cohomology(cx: CWPairComplex, k: int, coefficients: CoefficientGroup) -> AbelianGroup:
    """H^k(X, Y; G) via Smith normal form over Z.

    With up and down the Smith diagonals of delta_k and delta_(k-1), H^k over
    Z is Z^free + sum Z/d over down.  For G = Z/m the universal coefficient
    decomposition H^k(;Z/m) = H^k(;Z) (x) Z/m  +  Tor(H^(k+1)(;Z), Z/m)
    reduces every order d to gcd(d, m), with H^(k+1) torsion read from up.
    """
    if k < 0 or k > cx.dim:
        return AbelianGroup(0)
    m = coefficients.modulus
    n_k = len(cx.relative_indices(k))
    up = _coboundary_diagonal(cx, k) if k < cx.dim else []
    down = _coboundary_diagonal(cx, k - 1) if k > 0 else []
    free = n_k - len(up) - len(down)
    return AbelianGroup.from_orders([gcd(d, m) for d in [0] * free + down + (up if m else [])])


def pair_product(p: CWPairComplex, q: CWPairComplex, name: str | None = None) -> CWPairComplex:
    """The product pair (X, A) x (Y, B) = (X x Y, X x B u A x Y).

    Its k-cells a x b, |a| + |b| = k, are ordered by the cell b of Y (by
    degree, then index) and then by the cell a of X; the boundary is
    d(a x b) = da x b + (-1)^|a| a x db.  A product of dimension over 9 is
    rejected by the constructor like any other complex.
    """
    dim = p.dim + q.dim
    blocks = [(j, b) for j in range(q.dim + 1) for b in range(q.cells[j])]
    cells, starts = [], []  # starts[k][j, b]: index of the first k-cell a x b
    for k in range(dim + 1):
        sizes = [p.cell_count(k - j) for j, _ in blocks]
        cells.append(sum(sizes))
        starts.append(dict(zip(blocks, accumulate(sizes, initial=0))))
    boundary = {k: [[0] * cells[k] for _ in range(cells[k - 1])] for k in range(1, dim + 1)}
    sub = {k: [False] * cells[k] for k in range(dim + 1)}
    p_cols, q_cols = p._columns, q._columns
    for k in range(dim + 1):
        for (j, b), col0 in starts[k].items():
            i = k - j
            n = p.cell_count(i)
            if not n:
                continue
            sub[k][col0 : col0 + n] = [True] * n if q.sub[j][b] else p.sub[i]
            if not k:
                continue
            m, down = boundary[k], starts[k - 1][j, b]
            sign = -1 if i & 1 else 1
            db = [(starts[k - 1][j - 1, r], sign * y) for r, y in q_cols[j][b]]
            for a, da in enumerate(p_cols[i]):
                for r, x in da:  # da x b
                    m[down + r][col0 + a] = x
                for row0, y in db:  # (-1)^|a| a x db
                    m[row0 + a][col0 + a] = y
    return CWPairComplex(cells, boundary, sub, name=f"{p.name} x {q.name}" if name is None else name)


# (I, dI): the endpoints 0 and 1 in the subcomplex, dI = 1 - 0
INTERVAL_PAIR = CWPairComplex([2, 1], {1: [[-1], [1]]}, {0: [1, 1]}, name="I")


def product_with_interval(cx: CWPairComplex) -> CWPairComplex:
    """The cylinder X x I with subcomplex (Y x I) u (X x dI), as the product
    of pairs (X, Y) x (I, dI).

    k-cells are ordered [s x 0 | s x 1 | t x I] with s running over the
    k-cells and t over the (k-1)-cells of X.  The cylinder is built and
    validated on the first call; later calls return the same object.
    """
    if cx._cylinder is None:
        cx._cylinder = pair_product(cx, INTERVAL_PAIR, name=f"{cx.name} x I" if cx.name else "cylinder")
    return cx._cylinder


def difference_cochain(o_hat: Cochain, o0: Cochain, o1: Cochain) -> Cochain:
    """Solve  d x I-bar = o_hat - o0 x 0-bar - o1 x 1-bar  for d.

    ``o_hat`` lives on the cylinder over the complex of ``o0``/``o1``; its
    two end blocks must equal ``o0`` and ``o1`` and its interval block must
    vanish over the subcomplex, otherwise the inputs were inconsistent and a
    ResidueError is raised.  The interval block is then d.
    """
    if o0.complex != o1.complex or o0.degree != o1.degree or o0.coefficients != o1.coefficients:
        raise DimensionMismatchError("end cochains must match in complex, degree and coefficients")
    base = o0.complex
    if o_hat.complex != product_with_interval(base) or o_hat.coefficients != o0.coefficients:
        raise DimensionMismatchError("o_hat must live on the cylinder over the base complex")
    if o_hat.degree != o0.degree:
        raise DimensionMismatchError("o_hat must have the same degree as the end cochains")
    if o0.degree < 1:
        raise DimensionMismatchError("difference cochains need degree >= 1")
    if not (o0.is_relative() and o1.is_relative()):
        raise ResidueError("end cochains must be relative on (X, Y)")
    m = o_hat.degree
    n = base.cell_count(m)
    if o_hat.values[:n] != o0.values or o_hat.values[n : 2 * n] != o1.values:
        raise ResidueError("inputs leave a residue on the end blocks of the cylinder")
    interval_values = o_hat.values[2 * n :]
    sub_flags = base.sub[m - 1]
    if any(v for v, f in zip(interval_values, sub_flags) if f):
        raise ResidueError("inputs leave a residue over the subcomplex")
    return Cochain(base, m - 1, o0.coefficients, interval_values)
