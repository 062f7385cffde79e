"""Difference-function axioms and the action equivalence, checked exhaustively."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkit.errors import TorsorError
from spinkit.torsor import (
    ActionTable,
    DifferenceTable,
    FiniteAbelianGroup,
    abelian_groups_up_to,
    action_from_difference,
    difference_from_action,
    regular_difference_table,
    verify_difference_axioms,
)
from conftest import (
    all_points_difference_axioms,
    all_points_validate_action,
    group_add,
    group_neg,
    group_sub,
    group_zero,
)


def test_singleton_trivial_torsor():
    trivial = FiniteAbelianGroup(())
    d = DifferenceTable(trivial, ("a",), {("a", "a"): ()})
    assert verify_difference_axioms(d) == [()]
    action = action_from_difference(d)
    assert action.table[((), "a")] == "a"
    assert difference_from_action(action).table == d.table


def test_two_point_torsor():
    z2 = FiniteAbelianGroup((2,))
    d = DifferenceTable(
        z2,
        ("a", "b"),
        {("a", "a"): (0,), ("b", "b"): (0,), ("a", "b"): (1,), ("b", "a"): (1,)},
    )
    # the values D(x, y) in product order: (a, a), (a, b), (b, a), (b, b)
    assert verify_difference_axioms(d) == [(0,), (1,), (1,), (0,)]
    action = action_from_difference(d)
    assert action.table[((1,), "a")] == "b"
    assert action.table[((1,), "b")] == "a"
    assert action.table[((0,), "a")] == "a"


def test_degenerate_difference_fails_separation():
    z2 = FiniteAbelianGroup((2,))
    d = DifferenceTable(z2, ("a", "b"), {(x, y): (0,) for x in "ab" for y in "ab"})
    # D(a, b) = 0 with a != b: the base row D(a, .) is not injective
    with pytest.raises(TorsorError, match=r"D\(a, \.\) is not a bijection"):
        verify_difference_axioms(d)
    with pytest.raises(TorsorError):
        action_from_difference(d)


def test_wrong_carrier_size_fails():
    z4 = FiniteAbelianGroup((4,))
    d = DifferenceTable(
        z4,
        ("a", "b"),
        {("a", "a"): (0,), ("b", "b"): (0,), ("a", "b"): (1,), ("b", "a"): (3,)},
    )
    with pytest.raises(TorsorError, match="carrier size 2 != group order 4"):
        verify_difference_axioms(d)


def test_tables_compare_by_kind_group_and_carrier():
    z2 = FiniteAbelianGroup((2,))
    d = regular_difference_table(z2)
    swapped = {key: tuple(1 - v for v in value) for key, value in d.table.items()}
    other = DifferenceTable(z2, d.carrier, swapped)
    # == and hash leave the table out
    assert other.table != d.table
    assert d == other and hash(d) == hash(other)
    assert d != DifferenceTable(z2, ("a", "b"), d.table)
    assert d != DifferenceTable(FiniteAbelianGroup((1, 2)), d.carrier, d.table)
    # a difference table never equals an action table with the same fields
    assert d != ActionTable(z2, d.carrier, d.table)
    assert ActionTable(z2, d.carrier, d.table) != d
    assert d != action_from_difference(d)


def test_regular_difference_of_cyclic_four():
    z4 = FiniteAbelianGroup((4,))
    d = regular_difference_table(z4)
    # D(x, y) = y - x on the group itself
    assert d.table[("g0", "g3")] == (3,)
    assert d.table[("g3", "g0")] == (1,)
    assert verify_difference_axioms(d) == [((y - x) % 4,) for x in range(4) for y in range(4)]


def test_invalid_action_rejected():
    z2 = FiniteAbelianGroup((2,))
    constant = ActionTable(
        z2, ("a", "b"), {((0,), "a"): "a", ((0,), "b"): "b", ((1,), "a"): "a", ((1,), "b"): "b"}
    )
    with pytest.raises(TorsorError):
        difference_from_action(constant)


def test_classification_count_up_to_16():
    groups = list(abelian_groups_up_to(16))
    assert len(groups) == 25  # sum over n <= 16 of the number of abelian groups of order n
    orders = sorted(g.order() for g in groups)
    assert orders[0] == 1 and orders[-1] == 16
    assert sum(1 for g in groups if g.order() == 16) == 5


def test_groups_up_to_8_have_no_factor_of_order_1():
    """One group per isomorphism class, written by its prime-power factors:
    the trivial group has no factor, and no group carries a factor of 1."""
    assert [g.orders for g in abelian_groups_up_to(8)] == [
        (), (2,), (3,), (4,), (2, 2), (5,), (2, 3), (7,), (8,), (4, 2), (2, 2, 2)
    ]


def test_a_factor_of_order_1_is_not_printed():
    assert str(FiniteAbelianGroup((1, 2))) == "Z/2"
    assert str(FiniteAbelianGroup((1,))) == "0"


def test_exhaustive_roundtrips_up_to_16():
    for group in abelian_groups_up_to(16):
        table = regular_difference_table(group)
        verify_difference_axioms(table)
        action = action_from_difference(table)
        back = difference_from_action(action)
        assert back.table == table.table
        assert action_from_difference(back).table == action.table


def test_antisymmetry_follows_from_axioms():
    for group in abelian_groups_up_to(12):
        d = regular_difference_table(group)
        for x in d.carrier:
            for y in d.carrier:
                assert d.table[(x, y)] == group_neg(group, d.table[(y, x)])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_group_arithmetic_laws(orders, seed):
    g = FiniteAbelianGroup(tuple(orders))
    elements = g.elements()
    a = elements[seed % len(elements)]
    b = elements[(seed // 7) % len(elements)]
    assert group_add(g, a, group_zero(g)) == a
    assert group_add(g, a, group_neg(g, a)) == group_zero(g)
    assert group_add(g, a, b) == group_add(g, b, a)
    assert group_sub(g, a, b) == group_add(g, a, group_neg(g, b))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=3))
def test_subtraction_table_matches_componentwise_oracle(orders):
    """shifts[j][i] is the index of e_i - e_j, so each row is a permutation
    of the indices; factors of order 1 and the trivial group included."""
    g = FiniteAbelianGroup(tuple(orders))
    elements = g.elements()
    n = len(elements)
    assert len(g.shifts) == n
    for j, row in enumerate(g.shifts):
        assert sorted(row) == list(range(n))
        assert all(elements[row[i]] == group_sub(g, e, elements[j]) for i, e in enumerate(elements))


def test_empty_carrier_rejected():
    for group in (FiniteAbelianGroup(()), FiniteAbelianGroup((2,))):
        with pytest.raises(TorsorError, match="carrier is empty"):
            difference_from_action(ActionTable(group, (), {}))
        with pytest.raises(TorsorError, match="carrier is empty"):
            action_from_difference(DifferenceTable(group, (), {}))


Z2, Z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))


def _difference(group, carrier, rows):
    """The table with D(carrier[i], carrier[j]) = (rows[i][j],); None omits the entry."""
    return DifferenceTable(group, carrier, {
        (x, y): (v,) for x, row in zip(carrier, rows) for y, v in zip(carrier, row) if v is not None
    })


@pytest.mark.parametrize(
    "table, message",
    [
        (_difference(Z2, ("a", "b"), [[0, 1], [None, 0]]), r"missing difference value for \(b,a\)"),
        (_difference(Z2, ("a", "b", "c"), [[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
         "carrier size 3 != group order 2"),
        (_difference(Z3, ("a", "b", "c"), [[0, 1, 1], [2, 0, 0], [2, 0, 0]]),
         r"D\(a, \.\) is not a bijection onto the group"),
        # a repeated label: two entries, one point, so the base row misses (1,)
        (_difference(Z2, ("a", "a"), [[0, 0], [0, 0]]), r"D\(a, \.\) is not a bijection onto the group"),
        (_difference(Z2, ("a", "b"), [[0, 1], [1, 1]]), r"cocycle fails at \(a,b,b\)"),
        # values off the base row that are not reduced elements of H: 2 = 0 mod 2,
        # and a tuple longer than the group's
        (_difference(Z2, ("a", "b"), [[0, 1], [1, 2]]), r"cocycle fails at \(a,b,b\)"),
        (DifferenceTable(Z2, ("a", "b"),
                         {("a", "a"): (0,), ("a", "b"): (1,), ("b", "a"): (1, 0), ("b", "b"): (0,)}),
         r"cocycle fails at \(a,b,a\)"),
        # a missing entry comes before the carrier size, even in the last row
        (_difference(Z2, ("a", "b", "c"), [[0, 1, 1], [1, 0, 0], [1, 0, None]]),
         r"missing difference value for \(c,c\)"),
        # of two missing entries, the first in product order is named
        (_difference(Z3, ("a", "b", "c"), [[0, 1, 2], [2, 0, None], [1, None, 0]]),
         r"missing difference value for \(b,c\)"),
        # a value None is present: it fails the base row or the cocycle, not completeness
        (DifferenceTable(Z2, ("a", "b"),
                         {("a", "a"): (0,), ("a", "b"): None, ("b", "a"): (1,), ("b", "b"): (0,)}),
         r"D\(a, \.\) is not a bijection onto the group"),
        (DifferenceTable(Z2, ("a", "b"),
                         {("a", "a"): (0,), ("a", "b"): (1,), ("b", "a"): None, ("b", "b"): (0,)}),
         r"cocycle fails at \(a,b,a\)"),
    ],
)
def test_difference_certificate_names_the_failed_step(table, message):
    with pytest.raises(TorsorError, match=message):
        verify_difference_axioms(table)
    with pytest.raises(TorsorError, match=message):
        action_from_difference(table)


def _action(group, carrier, images):
    """The table with h . carrier[j] = images[h][j]; None omits the entry."""
    return ActionTable(group, carrier, {
        (h, x): y for h, row in zip(group.elements(), images) for x, y in zip(carrier, row) if y is not None
    })


@pytest.mark.parametrize(
    "table, message",
    [
        (_action(Z2, ("a", "b"), ["ab", ("b", None)]), r"action value missing for \(\(1,\),b\)"),
        (_action(Z2, ("a", "b"), ["ab", "ab"]), "action is not free"),
        # 1 . a = q lies outside the carrier: the orbit of a is free but not the carrier
        (_action(Z2, ("a", "b"), ["ab", "qa"]), "action is not transitive"),
        (_action(Z3, ("a", "b", "c"), ["abc", "bac", "cab"]), "action is not compatible with addition"),
        # 0 . b = c is caught by compatibility at a: 0 . (1 . a) != 1 . a
        (_action(Z3, ("a", "b", "c"), ["acb", "bca", "cab"]), "action is not compatible with addition"),
        # a missing value comes before the carrier size
        (_action(Z2, ("a", "b", "c"), ["abc", ("b", None, "c")]), r"action value missing for \(\(1,\),b\)"),
        # a value None is present: 1 . a = None leaves the orbit of a off the carrier
        (ActionTable(Z2, ("a", "b"),
                     {((0,), "a"): "a", ((0,), "b"): "b", ((1,), "a"): None, ((1,), "b"): "a"}),
         "action is not transitive"),
    ],
)
def test_action_certificate_names_the_failed_step(table, message):
    with pytest.raises(TorsorError, match=message):
        difference_from_action(table)


def test_action_with_a_repeated_label_is_rejected():
    """The regular action of Z/2 on {a, b}, with a listed twice: every orbit
    is free and equals the set of the carrier, so only the carrier size
    tells it apart, on the action side as on the difference side."""
    table = _action(Z2, ("a", "b", "a"), ["aba", "bab"])
    for check in (difference_from_action, all_points_validate_action):
        with pytest.raises(TorsorError, match="carrier size 3 != group order 2"):
            check(table)


def _random_torsor(group, rng):
    """A difference table and an action table for a random bijection f : carrier -> group."""
    elements = group.elements()
    carrier = tuple(f"p{i}" for i in rng.sample(range(len(elements)), len(elements)))
    f = dict(zip(carrier, rng.sample(elements, len(elements))))
    inverse = {h: x for x, h in f.items()}
    difference = {(x, y): group_sub(group, f[y], f[x]) for x in carrier for y in carrier}
    action = {(h, x): inverse[group_add(group, f[x], h)] for h in elements for x in carrier}
    return DifferenceTable(group, carrier, difference), ActionTable(group, carrier, action)


def _rejects(check, table):
    try:
        check(table)
    except TorsorError:
        return True
    return False


def _corrupt_difference(d, rng):
    """Change one or two entries, swap two entries of one row, which keeps
    every row a bijection so that only the cocycle law can fail, or write an
    entry as an unreduced element of H: a coordinate plus its modulus, or the
    tuple with a zero appended."""
    kind = rng.randrange(5)
    if kind == 4:
        key = rng.choice(list(d.table))
        h = d.table[key]
        d.table[key] = (h[0] + d.group.orders[0],) + h[1:] if h and rng.randrange(2) else h + (0,)
    if kind == 3:
        x, y, z = (rng.choice(d.carrier) for _ in range(3))
        d.table[(x, y)], d.table[(x, z)] = d.table[(x, z)], d.table[(x, y)]
    for _ in range(kind if kind < 3 else 0):
        d.table[rng.choice(list(d.table))] = rng.choice(d.group.elements())
    return d


def _corrupt_action(a, rng):
    """Change one or two entries, swap two entries of one point's orbit map,
    or add a point that every element fixes, which leaves the action free
    and compatible at the other points but makes the carrier too large."""
    kind = rng.randrange(5)
    if kind == 4:
        carrier = list(a.carrier)
        carrier.insert(rng.randrange(len(carrier) + 1), "q")
        table = {**a.table, **{(h, "q"): "q" for h in a.group.elements()}}
        return ActionTable(a.group, tuple(carrier), table)
    if kind == 3:
        x = rng.choice(a.carrier)
        h, k = rng.choice(a.group.elements()), rng.choice(a.group.elements())
        a.table[(h, x)], a.table[(k, x)] = a.table[(k, x)], a.table[(h, x)]
    for _ in range(kind if kind < 3 else 0):
        a.table[rng.choice(list(a.table))] = rng.choice(a.carrier)
    return a


def test_base_point_checks_match_all_points_oracles():
    """Corrupt random difference and action tables over every group of order
    <= 12: the base-point checks and the all-points oracles accept and reject
    the same tables."""
    rng = random.Random(13)
    groups = list(abelian_groups_up_to(12))
    verdicts = {True: 0, False: 0}
    for trial in range(1200):
        difference, action = _random_torsor(groups[trial % len(groups)], rng)
        difference = _corrupt_difference(difference, rng)
        action = _corrupt_action(action, rng)
        passed = not _rejects(verify_difference_axioms, difference)
        assert passed == all_points_difference_axioms(difference)
        assert _rejects(action_from_difference, difference) == (not passed)
        rejected = _rejects(difference_from_action, action)
        assert rejected == _rejects(all_points_validate_action, action)
        verdicts[passed] += 1
        verdicts[not rejected] += 1
    assert min(verdicts.values()) >= 200, verdicts


def test_regular_torsor_labels_are_distinct_for_two_digit_orders():
    """(1, 11) and (11, 1) in Z/12 x Z/12 get different labels."""
    d = regular_difference_table(FiniteAbelianGroup((12, 12)))
    assert len(set(d.carrier)) == len(d.carrier) == 144
    assert verify_difference_axioms(d) == [d.table[(x, y)] for x in d.carrier for y in d.carrier]
