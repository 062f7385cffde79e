"""Seeded known-answer inputs for the benchmark workloads.

Nothing here imports spinkit.  Every generator returns its input together
with the answer the program must give, worked out from how the input was
built, so the answers do not depend on the code under test.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

PAIR_DIM = 8
COHOMOLOGY_MODULI = (0, 2, 3)  # Z, Z/2, Z/3

Group = tuple[int, tuple[int, ...]]  # (free rank, invariant factors t1 | t2 | ...)


# ---------------------------------------------------------------------------
# abelian groups, independently of spinkit.snf


def _prime_powers(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    if m > 1:
        out.append(m)
    return out


def normal_form(free: int, orders: list[int]) -> Group:
    """Invariant factors of Z^free + sum of Z/m over ``orders`` (1s dropped)."""
    by_prime: dict[int, list[int]] = {}
    for m in orders:
        for q in _prime_powers(m):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            by_prime.setdefault(p, []).append(q)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        powers.sort()
        for i, q in enumerate(powers):
            factors[width - len(powers) + i] *= q
    return free, tuple(factors)


def abelian_group_count(max_order: int) -> int:
    """Number of abelian groups of order <= max_order up to isomorphism."""

    def partitions(e: int) -> int:
        table = [1] + [0] * e
        for part in range(1, e + 1):
            for s in range(part, e + 1):
                table[s] += table[s - part]
        return table[e]

    total = 0
    for n in range(1, max_order + 1):
        count = 1
        for q in _prime_powers(n):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            e = 0
            while q > 1:
                q //= p
                e += 1
            count *= partitions(e)
        total += count
    return total


# ---------------------------------------------------------------------------
# CW pairs with known relative cohomology


@dataclass
class PairCase:
    """A scrambled CW pair plus the cohomology its pieces force."""

    name: str
    cells: list[int]
    boundary: dict[int, list[list[int]]]
    sub: dict[int, list[int]]
    cohomology: dict[tuple[int, int], Group] = field(default_factory=dict)
    difference_degree: int = 1
    # values on every cylinder cell of degree difference_degree - 1, zero on
    # the cylinder's subcomplex cells that the difference cochain must avoid
    cylinder_cochain: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        """The on-disk complex format read by ``spinkit.fileio.load_complex``."""
        return {
            "name": self.name,
            "cells": self.cells,
            "boundary": {str(k): m for k, m in self.boundary.items() if any(any(r) for r in m)},
            "sub": {str(k): f for k, f in self.sub.items() if any(f)},
        }

    def total_cells(self) -> int:
        return sum(self.cells)


def _piece_groups(pieces, modulus: int, degree: int) -> tuple[int, list[int]]:
    """Contribution of the pieces to H^degree(X, Y; Z/modulus), 0 meaning Z."""
    free, orders = 0, []
    for d, m, in_sub in pieces:
        if m is None:  # lone d-cell
            if in_sub or d != degree:
                continue
            if modulus:
                orders.append(modulus)
            else:
                free += 1
        elif in_sub == "lower":  # relative part is the lone d-cell
            if d == degree:
                if modulus:
                    orders.append(modulus)
                else:
                    free += 1
        elif not in_sub:  # cochains Z --m--> Z in degrees d-1, d
            if modulus:
                g = gcd(m, modulus)
                if degree in (d - 1, d) and g > 1:
                    orders.append(g)
            elif degree == d and m > 1:
                orders.append(m)
    return free, orders


def make_pair(
    rng: random.Random, name: str, degrees: tuple[int, int], lone: int, pairs: int, ops: int, entry_cap: int
) -> PairCase:
    """A direct sum of pieces, scrambled by unimodular changes of cell basis.

    Every top degree d in the range ``degrees`` gets ``lone`` lone d-cells
    and, for d >= 1, ``pairs`` (d, d-1) pairs with a random incidence m, so
    the cell counts (and with them the cost of validating the complex) are
    fixed by the arguments.  A piece may lie in Y whole; a pair may also put
    only its lower cell in Y, which leaves Y closed.  The scramble adds c
    times one cell to another in the same degree (a column operation on d_k
    and the inverse row operation on d_(k+1)), never adding a non-Y cell
    into a Y cell, so Y stays a closed subcomplex and the cohomology is
    unchanged.  ``entry_cap`` bounds the entries the scramble may create.
    """
    pieces = []
    for d in range(degrees[0], degrees[1] + 1):
        pieces += [(d, None, rng.random() < 0.25) for _ in range(lone)]
        if d >= 1:
            for _ in range(pairs):
                m = rng.choice((1, 1, 2, 2, 3, 4, 5, 6, 8, 9, 12))
                pieces.append((d, m, rng.choices((False, "lower", "both"), weights=(6, 2, 2))[0]))

    cells = [0] * (PAIR_DIM + 1)
    for d, m, _ in pieces:
        cells[d] += 1
        if m is not None:
            cells[d - 1] += 1
    bd = {k: [[0] * cells[k] for _ in range(cells[k - 1])] for k in range(1, PAIR_DIM + 1)}
    sub = {k: [0] * cells[k] for k in range(PAIR_DIM + 1)}
    cursor = [0] * (PAIR_DIM + 1)
    for d, m, in_sub in pieces:
        j = cursor[d]
        cursor[d] += 1
        if in_sub is True or in_sub == "both":
            sub[d][j] = 1
        if m is not None:
            i = cursor[d - 1]
            cursor[d - 1] += 1
            bd[d][i][j] = m * rng.choice((1, -1))
            if in_sub:
                sub[d - 1][i] = 1

    def column_fits(k: int, i: int, j: int, c: int) -> bool:
        if k >= 1 and any(abs(r[i] + c * r[j]) > entry_cap for r in bd[k]):
            return False
        if k < PAIR_DIM and any(abs(a - c * b) > entry_cap for a, b in zip(bd[k + 1][j], bd[k + 1][i])):
            return False
        return True

    for _ in range(ops):
        k = rng.randint(0, PAIR_DIM)
        if cells[k] < 2:
            continue
        i, j = rng.sample(range(cells[k]), 2)
        if sub[k][i] and not sub[k][j]:
            continue
        c = rng.choice((1, -1, 2, -2))
        if not column_fits(k, i, j, c):
            continue
        # new cell i = old cell i + c * old cell j
        if k >= 1:
            for r in bd[k]:
                r[i] += c * r[j]
        if k < PAIR_DIM:
            rows = bd[k + 1]
            rows[j] = [a - c * b for a, b in zip(rows[j], rows[i])]

    # relabel the cells of every degree by a random permutation
    for k in range(PAIR_DIM + 1):
        perm = list(range(cells[k]))
        rng.shuffle(perm)
        sub[k] = [sub[k][p] for p in perm]
        if k >= 1:
            bd[k] = [[r[p] for p in perm] for r in bd[k]]
        if k < PAIR_DIM:
            bd[k + 1] = [bd[k + 1][p] for p in perm]

    case = PairCase(name, cells, bd, sub)
    for k in range(PAIR_DIM + 1):
        for modulus in COHOMOLOGY_MODULI:
            case.cohomology[(k, modulus)] = normal_form(*_piece_groups(pieces, modulus, k))
    relative_degrees = [k for k in range(1, PAIR_DIM + 1) if any(not f for f in sub[k])]
    case.difference_degree = rng.choice(relative_degrees) if relative_degrees else 1
    case.cylinder_cochain = _cylinder_cochain(case, rng)
    return case


def _cylinder_cochain(case: PairCase, rng: random.Random) -> list[int]:
    """A cochain b on the cylinder with delta(b) a consistent difference input.

    b vanishes on s x 0 and s x 1 for s in Y and on t x I for t in Y, so the
    interval part of delta(b) vanishes over Y.
    """
    m = case.difference_degree
    ends = [0 if f else rng.randint(-5, 5) for f in case.sub[m - 1]]
    ends += [0 if f else rng.randint(-5, 5) for f in case.sub[m - 1]]
    interval = [0 if f else rng.randint(-5, 5) for f in case.sub[m - 2]] if m >= 2 else []
    return ends + interval


def disk8_pair() -> PairCase:
    """The bundled (D8, S7) pair: one 0-cell and the 7-cell in Y, an 8-cell not."""
    cells = [1, 0, 0, 0, 0, 0, 0, 1, 1]
    bd = {k: [[0] * cells[k] for _ in range(cells[k - 1])] for k in range(1, 9)}
    bd[8] = [[1]]
    sub = {k: [1] * cells[k] for k in range(8)}
    sub[8] = [0]
    case = PairCase("(D8, S7)", cells, bd, sub, difference_degree=8)
    case.cylinder_cochain = [0, 0]  # the 7-cell is in Y, so b is zero
    for k in range(PAIR_DIM + 1):
        for modulus in COHOMOLOGY_MODULI:
            if k == 8:
                case.cohomology[(k, modulus)] = (0, (modulus,)) if modulus else (1, ())
            else:
                case.cohomology[(k, modulus)] = (0, ())
    return case


def cohomology_cases(rng: random.Random) -> Iterator[PairCase]:
    """The endless pair stream of the cohomology workload, (D8, S7) first.

    Most pairs have 132 cells over all degrees with entries up to 6, so
    building and validating the cylinder dominates their time.  One in
    eight packs 46 cells into degrees 3 to 5 with entries up to 4096, so
    Smith normal form and its entry growth dominate instead.
    """
    yield disk8_pair()
    i = 1
    while True:
        if rng.random() < 0.125:
            yield make_pair(rng, f"tail-{i}", (4, 5), 3, 10, 2000, 4096)
        else:
            yield make_pair(rng, f"pair-{i}", (0, PAIR_DIM), 4, 6, 600, 6)
        i += 1


def cylinder(case: PairCase) -> tuple[list[int], dict[int, list[list[int]]], dict[int, list[int]]]:
    """X x I with subcomplex (Y x I) u (X x dI), cells ordered [s x 0 | s x 1 | t x I].

    Boundary convention: d(t x I) = (dt) x I + (-1)^dim(t) (t x 1 - t x 0).
    """
    def cnt(k: int) -> int:
        return case.cells[k] if 0 <= k < len(case.cells) else 0

    dim = len(case.cells)
    cells = [2 * cnt(k) + cnt(k - 1) for k in range(dim + 1)]
    sub = {
        k: [1] * (2 * cnt(k)) + [case.sub[k - 1][t] if k >= 1 else 0 for t in range(cnt(k - 1))]
        for k in range(dim + 1)
    }
    bd = {}
    for k in range(1, dim + 1):
        a, b, c = cnt(k), cnt(k - 1), cnt(k - 2)
        m = [[0] * (2 * a + b) for _ in range(2 * b + c)]
        dk = case.boundary.get(k)
        for i in range(b):
            for j in range(a):
                m[i][j] = m[b + i][a + j] = dk[i][j]
        sign = 1 if (k - 1) % 2 == 0 else -1
        dk1 = case.boundary.get(k - 1)
        for t in range(b):
            m[t][2 * a + t] = -sign
            m[b + t][2 * a + t] = sign
            for i in range(c):
                m[2 * b + i][2 * a + t] = dk1[i][t]
        bd[k] = m
    return cells, bd, sub


def coboundary_values(cells: list[int], bd: dict[int, list[list[int]]], degree: int, values: list[int]) -> list[int]:
    """(delta c)(s) = c(ds) for a Z-cochain c given on every cell of ``degree``."""
    m = bd[degree + 1]
    return [sum(m[i][j] * v for i, v in enumerate(values)) for j in range(cells[degree + 1])]


# ---------------------------------------------------------------------------
# manifold catalogues with known census answers


@dataclass
class CensusCase:
    """One catalogue record and the census answers its construction fixes."""

    record: dict
    e_s_plus: int
    e_s_minus: int
    exists: bool
    count: int | str | None
    ahat: Fraction
    holonomy_note: bool


def make_record(rng: random.Random, name: str, slot: int) -> CensusCase:
    """A record whose e(S+) = (4 p2 - p1^2 + 8 e) / 16 is an integer t chosen here.

    With p1^2 = 4a the choice p2 = 4t + a - 2e gives exactly e(S+) = t.
    Closed simply connected records sometimes take e = 720 A - 3a, which
    makes the A-hat genus the integer A in 1..4.  The slot fixes the kind
    of record, whether a structure exists and the ranks, so that every
    catalogue of the same size costs the same to check; the seed picks the
    characteristic numbers.
    """
    kind = ("closed-sc", "closed", "boundary", "components")[slot % 4]
    exists = slot // 4 % 5 < 3
    level = slot // 20 % 6
    t = 0 if exists else rng.choice((-3, -2, -1, 1, 2, 5))
    a = rng.randint(-40, 400)
    euler = rng.randint(-20, 600)
    rec = {"name": name}
    if kind == "closed-sc":
        ahat_target = rng.randint(1, 4) if rng.random() < 0.3 else None
        if ahat_target is not None:
            euler = 720 * ahat_target - 3 * a
        rec.update(h7_rel_rank=0, h8_z2_dim=1, simply_connected=True)
    elif kind == "closed":
        rec.update(h7_rel_rank=(0, 1, 3)[level % 3], h8_z2_dim=1)
    elif kind == "boundary":
        rec.update(h7_rel_rank=2 if level == 5 else 0, h8_z2_dim=level, has_boundary=True)
    else:
        c = 2 + level % 4
        rec.update(h7_rel_rank=0, h8_z2_dim=c, components=c)
    p1_sq = 4 * a
    p2 = 4 * t + a - 2 * euler
    rec.update(p1_sq=p1_sq, p2=p2, euler=euler)

    if not exists:
        count = None
    elif rec["h7_rel_rank"] > 0:
        count = "undetermined"
    else:
        count = 2 ** rec["h8_z2_dim"]
    ahat = Fraction(7 * p1_sq - 4 * p2, 5760)
    note = (
        exists
        and kind == "closed-sc"
        and ahat.denominator == 1
        and 1 <= ahat <= 4
    )
    return CensusCase(rec, t, t - euler, exists, count, ahat, note)


def catalogue(rng: random.Random, size: int, tag: str) -> list[CensusCase]:
    return [make_record(rng, f"{tag}-m{i}", i) for i in range(size)]
