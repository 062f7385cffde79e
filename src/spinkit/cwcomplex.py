"""Finite CW pairs (X, Y): cochains, the coboundary, the relative check, the difference cochain.

A :class:`CWPairComplex` stores per-dimension cell counts, integer
incidence matrices, and flags marking a closed subcomplex Y.  Cochains
carry values on *all* cells of their degree; a cochain is relative when it
vanishes on Y, and since Y is closed the coboundary of a relative cochain
is again relative.  Keeping the absolute values around is what lets the
difference-cochain decomposition compare the two end blocks of a cylinder
cochain with the end cochains before reading off the interval component.

Complexes are immutable: validated once, at construction, never changed
afterwards.  A pair stores d_k only as its nonzero (row, entry) columns,
row-sorted; the dd = 0 and closed-Y checks, :func:`pair_product`,
:func:`coboundary`, equality and the relative coboundary matrices read
them.  The public constructor parses dense matrices (the file form) into
columns, :func:`pair_product` builds its columns directly (a block at row
offset 0 shares the factor's immutable column tuples), and both pass
through one assembly step that checks the dimension cap and validates.
``boundary``, ``cells`` and ``sub`` are views: each read builds fresh lists
from the stored column, cell-count and flag tuples, so changing them
leaves the pair as it was; ``name`` is read-only.
Each pair also keeps the one cylinder X x I that
:func:`product_with_interval` builds and validates for it, and, for each
coboundary delta_k, the rank and the torsion (the entries above 1) of its one
Smith diagonal, which :func:`relative_cohomology` reads for H^k and H^(k+1)
over every coefficient group.

Sign convention, fixed once and checked by the tests: products of pairs
follow the Koszul rule d(a x b) = da x b + (-1)^|a| a x db.  The interval
pair has dI = 1 - 0, so the cylinder has
d(s x I) = (ds) x I + (-1)^dim(s) (s x 1 - s x 0).
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import gcd

from .errors import ComplexValidationError, DimensionMismatchError, Frozen, ResidueError, require
from .snf import AbelianGroup, smith_diagonal

# base pairs live in dimensions 0..8; their cylinders reach dimension 9
MAX_DIMENSION = 10
Column = tuple[tuple[int, int], ...]  # the nonzero (row, entry) pairs of one column of d_k


class CoefficientGroup(Frozen):
    """Z (modulus 0) or the cyclic group Z/m."""

    _fields = __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if type(modulus) is not int:
            raise TypeError(f"modulus must be an integer, not {modulus!r}")
        if modulus < 0:
            raise ValueError("modulus must be >= 0 (0 meaning Z)")
        object.__setattr__(self, "modulus", modulus)

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def __str__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


Z_COEFF = CoefficientGroup(0)


class CWPairComplex:
    """Finite CW pair (X, Y) as integer boundary columns plus Y-flags.

    ``cells[k]`` counts the k-cells; ``sub[k][i]`` marks cell i of
    dimension k as belonging to the subcomplex Y.  The constructor takes
    ``boundary[k]``, the cells[k-1] x cells[k] incidence matrix of d_k, in
    dense form; an omitted degree has d_k = 0.  All three read back as fresh views (module docstring).
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
        dim = len(cells) - 1
        all_columns: list[tuple[Column, ...]] = [((),) * (cells[0] if cells else 0)]
        boundary = boundary or {}
        sub = sub or {}
        if not set(boundary) | set(sub) <= set(range(dim + 1)) or 0 in boundary:
            raise ComplexValidationError(f"boundary or sub data outside degrees 0..{dim}")
        for k in range(1, dim + 1):
            rows, cols = cells[k - 1], cells[k]
            matrix = boundary.get(k)
            if matrix is None:  # d_k = 0: one empty column per k-cell
                all_columns.append(((),) * cols)
                continue
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
            all_columns.append(tuple(map(tuple, columns)))
        flags: dict[int, list[bool]] = {}
        for k in range(0, dim + 1):
            given = sub.get(k, [0] * cells[k])
            if not isinstance(given, list) or len(given) != cells[k]:
                raise ComplexValidationError(f"sub flags in degree {k} have wrong length")
            if not all(isinstance(x, int) and x in (0, 1) for x in given):
                raise ComplexValidationError(f"sub flags in degree {k} must be 0, 1, true or false")
            flags[k] = [bool(x) for x in given]
        self._assemble(cells, all_columns, flags, name)

    def _assemble(
        self, cells: list[int], columns: list[tuple[Column, ...]], sub: dict[int, list[bool]], name: str
    ) -> CWPairComplex:
        """The step every complex passes through: store the columns and flags, then validate.

        ``columns[k][j]`` lists the nonzero (row, entry) pairs of column j of
        d_k in increasing row order, ``columns[0]`` one empty column per 0-cell.
        """
        if len(cells) > MAX_DIMENSION:
            raise ComplexValidationError("cell counts must be nonnegative integers, dimensions 0..9")
        # the name is printed inside a report line, so it may hold no line break
        if not isinstance(name, str) or not name.isprintable():
            raise ComplexValidationError(f"the complex name {name!r} is not a printable string")
        self._cells = tuple(cells)
        self._name = name
        self._columns = tuple(columns)
        self._sub = {k: tuple(flags) for k, flags in sub.items()}
        self._validate()
        self._cylinder: CWPairComplex | None = None
        self._diagonals: dict[int, tuple[int, tuple[int, ...]]] = {}
        return self

    def _validate(self) -> None:
        # column j of d_k d_(k+1), the sum of x * (column t of d_k) over (t, x) in column j of d_(k+1),
        # adds up in one list of zeros; only the rows it touched are read, and a passing column leaves them zero
        for k in range(1, self.dim):
            a_cols = self._columns[k]
            acc = [0] * self._cells[k - 1]
            for col in self._columns[k + 1]:
                for t, x in col:
                    for i, y in a_cols[t]:
                        acc[i] += x * y
                for t, _ in col:
                    for i, _ in a_cols[t]:
                        if acc[i]:
                            raise ComplexValidationError(f"dd != 0 between degrees {k + 1} and {k}")
        # every row that a column in Y reaches is in Y: one list over the Y columns per degree
        for k in range(1, self.dim + 1):
            below = self._sub[k - 1]
            if not all([below[i] for col in compress(self._columns[k], self._sub[k]) for i, _ in col]):
                raise ComplexValidationError("subcomplex is not closed under the boundary")

    @property
    def name(self) -> str:
        return self._name

    @property
    def dim(self) -> int:
        return len(self._cells) - 1

    @property
    def cells(self) -> list[int]:
        return list(self._cells)

    @property
    def sub(self) -> dict[int, list[bool]]:
        return {k: list(flags) for k, flags in self._sub.items()}

    @property
    def boundary(self) -> dict[int, list[list[int]]]:
        """d_k for k = 1..dim as dense cells[k-1] x cells[k] matrices, a fresh dict on each read."""
        out = {}
        for k in range(1, self.dim + 1):
            matrix = [[0] * self._cells[k] for _ in range(self._cells[k - 1])]
            for j, col in enumerate(self._columns[k]):
                for i, x in col:
                    matrix[i][j] = x
            out[k] = matrix
        return out

    def __eq__(self, other: object) -> bool:
        # equal matrices have equal columns, since columns are row-sorted and hold no zeros
        return (
            isinstance(other, CWPairComplex)
            and self._cells == other._cells
            and self._columns == other._columns
            and self._sub == other._sub
        )

    def cell_count(self, k: int) -> int:
        return self._cells[k] if 0 <= k < len(self._cells) else 0

    def relative_indices(self, k: int) -> list[int]:
        return [i for i, in_y in enumerate(self._sub.get(k, ())) if not in_y]

    def relative_coboundary_matrix(self, k: int) -> list[list[int]]:
        """delta: C^k(X,Y) -> C^(k+1)(X,Y), the restricted transpose of d_(k+1)."""
        if k + 1 > self.dim:
            return []
        cols = {c: n for n, c in enumerate(self.relative_indices(k))}
        out = []
        for r in self.relative_indices(k + 1):
            row = [0] * len(cols)
            for c, x in self._columns[k + 1][r]:
                if c in cols:
                    row[cols[c]] = x
            out.append(row)
        return out


class Cochain(Frozen):
    """Cellular k-cochain with Z or Z/m coefficients.

    Values are indexed by all k-cells of the complex; relative cochains
    are exactly those vanishing on the subcomplex.
    """

    _fields = __slots__ = ("complex", "degree", "coefficients", "values")

    def __init__(
        self, complex: CWPairComplex, degree: int, coefficients: CoefficientGroup, values: tuple[int, ...]
    ):
        require(complex, CWPairComplex, "cochain complex")
        if type(degree) is not int:
            raise TypeError(f"cochain degree must be an integer, not {degree!r}")
        require(coefficients, CoefficientGroup, "cochain coefficients")
        if not 0 <= degree <= complex.dim:
            raise DimensionMismatchError(f"degree {degree} out of range for a {complex.dim}-complex")
        expected = complex.cell_count(degree)
        if len(values) != expected:
            raise DimensionMismatchError(f"expected {expected} values in degree {degree}, got {len(values)}")
        for v in values:
            if type(v) is not int:
                raise TypeError(f"cochain values must be integers, not {v!r}")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "values", tuple(map(coefficients.reduce, values)))

    def is_relative(self) -> bool:
        flags = self.complex._sub[self.degree]
        return all(v == 0 for v, f in zip(self.values, flags) if f)


def coboundary(c: Cochain) -> Cochain:
    """delta c, the transpose-of-boundary action with reduced coefficients."""
    require(c, Cochain, "coboundary input")
    cx = c.complex
    k = c.degree
    if k + 1 > cx.dim:
        raise DimensionMismatchError("coboundary would exceed the complex dimension")
    v = c.values
    out = tuple(sum(x * v[i] for i, x in col) for col in cx._columns[k + 1])
    return Cochain(cx, k + 1, c.coefficients, out)


def _coboundary_diagonal(cx: CWPairComplex, k: int) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion of delta_k, computed on the first call for cx and k.

    The rank is the length of the Smith diagonal of delta_k, and the torsion
    lists its entries above 1; the 1s only ever give trivial summands.
    """
    if k not in cx._diagonals:
        diag = smith_diagonal(cx.relative_coboundary_matrix(k))
        cx._diagonals[k] = (len(diag), tuple(d for d in diag if d > 1))
    return cx._diagonals[k]


def relative_cohomology(cx: CWPairComplex, k: int, coefficients: CoefficientGroup) -> AbelianGroup:
    """H^k(X, Y; G) via Smith normal form over Z.

    With up and down the torsion of the Smith diagonals of delta_k and
    delta_(k-1), H^k over Z is Z^free + sum Z/d over down, free being the
    relative k-cells less both ranks; down is already a chain 1 < d1 | d2 | ...
    For G = Z/m the universal coefficient decomposition H^k(;Z/m) =
    H^k(;Z) (x) Z/m  +  Tor(H^(k+1)(;Z), Z/m) gives m per free summand and
    gcd(d, m) per d of down and of up, H^(k+1) torsion being read from up.
    """
    require(cx, CWPairComplex, "complex")
    if type(k) is not int:
        raise TypeError(f"degree must be an integer, not {k!r}")
    require(coefficients, CoefficientGroup, "coefficients")
    if k < 0 or k > cx.dim:
        return AbelianGroup(0)
    m = coefficients.modulus
    up_rank, up = _coboundary_diagonal(cx, k) if k < cx.dim else (0, ())
    down_rank, down = _coboundary_diagonal(cx, k - 1) if k > 0 else (0, ())
    free = cx._sub[k].count(False) - up_rank - down_rank
    if not m:
        return AbelianGroup(free, down)
    return AbelianGroup.from_orders([m] * free + [gcd(d, m) for d in down + up])


def pair_product(p: CWPairComplex, q: CWPairComplex, name: str | None = None) -> CWPairComplex:
    """The product pair (X, A) x (Y, B) = (X x Y, X x B u A x Y).

    Its k-cells a x b, |a| + |b| = k, are ordered by the cell b of Y (by
    degree, then index) and then by the cell a of X; the boundary is
    d(a x b) = da x b + (-1)^|a| a x db.  Each column of the product is
    built from the columns of the factors: the a x db rows lie in blocks of
    lower degree in Y than the da x b rows, so putting them first keeps the
    column row-sorted.  The product passes through the same assembly step
    as a constructed complex, so one of dimension over 9 is rejected and
    every product is validated.
    """
    for factor in (p, q):
        require(factor, CWPairComplex, "pair_product factor")
    dim = p.dim + q.dim
    blocks = [(j, b) for j, count in enumerate(q._cells) for b in range(count)]
    cells, starts = [], []  # starts[k][j, b]: index of the first k-cell a x b
    for k in range(dim + 1):
        sizes = [p.cell_count(k - j) for j, _ in blocks]
        cells.append(sum(sizes))
        starts.append(dict(zip(blocks, accumulate(sizes, initial=0))))
    columns: list[tuple[Column, ...]] = []
    sub: dict[int, list[bool]] = {}
    p_cols, q_cols = p._columns, q._columns
    for k in range(dim + 1):
        columns_k: list[Column] = []
        flags: list[bool] = []
        for j, b in blocks:
            i = k - j
            n = p.cell_count(i)
            if not n:
                continue
            flags += [True] * n if q._sub[j][b] else p._sub[i]
            down = starts[k - 1][j, b] if k else 0
            shifted = p_cols[i] if not down else [tuple([(down + r, x) for r, x in da]) for da in p_cols[i]]
            sign = -1 if i & 1 else 1
            db = [(starts[k - 1][j - 1, r], sign * y) for r, y in q_cols[j][b]]
            if db:  # (-1)^|a| a x db, then da x b
                columns_k += [tuple([(row0 + a, y) for row0, y in db]) + da for a, da in enumerate(shifted)]
            else:
                columns_k += shifted
        columns.append(tuple(columns_k))
        sub[k] = flags
    name = f"{p._name} x {q._name}" if name is None else name
    return CWPairComplex.__new__(CWPairComplex)._assemble(cells, columns, sub, name)


# (I, dI): the endpoints 0 and 1 in the subcomplex, dI = 1 - 0
INTERVAL_PAIR = CWPairComplex([2, 1], {1: [[-1], [1]]}, {0: [1, 1]}, name="I")


def product_with_interval(cx: CWPairComplex) -> CWPairComplex:
    """The cylinder X x I with subcomplex (Y x I) u (X x dI), as the product
    of pairs (X, Y) x (I, dI).

    k-cells are ordered [s x 0 | s x 1 | t x I] with s running over the
    k-cells and t over the (k-1)-cells of X.  The cylinder is built and
    validated on the first call; later calls return the same object.
    """
    require(cx, CWPairComplex, "complex")
    if cx._cylinder is None:
        cx._cylinder = pair_product(cx, INTERVAL_PAIR, name=f"{cx._name} x I" if cx._name else "cylinder")
    return cx._cylinder


def difference_cochain(o_hat: Cochain, o0: Cochain, o1: Cochain) -> Cochain:
    """Solve  d x I-bar = o_hat - o0 x 0-bar - o1 x 1-bar  for d.

    ``o_hat`` lives on the cylinder over the complex of ``o0``/``o1``; its
    two end blocks must equal ``o0`` and ``o1`` and its interval block must
    vanish over the subcomplex, otherwise the inputs were inconsistent and a
    ResidueError is raised.  The interval block is then d.
    """
    for label, c in (("o_hat", o_hat), ("o0", o0), ("o1", o1)):
        require(c, Cochain, label)
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
    sub_flags = base._sub[m - 1]
    if any(v for v, f in zip(interval_values, sub_flags) if f):
        raise ResidueError("inputs leave a residue over the subcomplex")
    return Cochain(base, m - 1, o0.coefficients, interval_values)
