"""The verify check table: each check's draws depend only on the seed and
the check's name, and the Cl(0,8) module is built only for rows that read it."""

import random
from fractions import Fraction

import pytest
from conftest import fraction_random_multivector

from spinkit import exactlinalg as la
from spinkit import gammarep, multivector, spingroup, verify
from spinkit.multivector import Multivector
from spinkit.spingroup import RotationMatrix, SpinElement

LIFT = "constructive lift inverts the cover (6 random rotations)"


def _row(name):
    (row,) = [r for r in verify.CHECKS if r[1] == name]
    return row


def test_check_names_are_unique():
    """The names key the checks' seeds, so no two rows may share one."""
    names = [name for _, name, _ in verify.CHECKS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_a_check_draws_the_same_alone_and_in_all(seed, rep, monkeypatch):
    """A planted lift that returns 1 fails the lift check on its first drawn
    rotation: that rotation and the detail, which names the drawn n, are the
    same when the check runs alone as after the checks before it in "all"."""
    seen = []

    def lift_to_one(rot):
        seen.append(rot.entries)
        return SpinElement(Multivector.scalar(len(rot.entries[1]), 1))

    monkeypatch.setattr(verify, "lift_rotation", lift_to_one)
    failed = {r.name: r.detail for r in verify.run_suites("all", seed, rep) if not r.passed}
    in_all = seen.copy()
    seen.clear()
    monkeypatch.setattr(verify, "CHECKS", (_row(LIFT),))
    (alone,) = verify.run_suites("spin", seed)
    assert failed == {LIFT: alone.detail}
    assert alone.detail.startswith("lift does not invert the cover in Spin(")
    assert seen == in_all and len(seen) == 1


def test_the_module_is_built_once_and_only_for_rows_that_read_it(monkeypatch):
    builds, real_build = [], verify.build_cl8_rep
    monkeypatch.setattr(verify, "build_cl8_rep", lambda: builds.append(1) or real_build())
    rows = [_row(name) for name in (
        "gamma anticommutators realize the generator relations",
        LIFT,
        "volume element acts as +1 on S+ and -1 on S-",
    )]
    monkeypatch.setattr(verify, "CHECKS", tuple(rows))
    assert [r.passed for r in verify.run_suites("spin", 3)] == [True]
    assert builds == []
    assert [r.passed for r in verify.run_suites("all", 3)] == [True] * 3
    assert builds == [1]


def _failures(monkeypatch, *names, seed=0):
    """The details of the named checks, run alone in table order, that fail."""
    monkeypatch.setattr(verify, "CHECKS", tuple(_row(name) for name in names))
    return {r.name: r.detail for r in verify.run_suites("all", seed) if not r.passed}


def test_seeded_elements_that_are_not_unit_norm_fail(monkeypatch):
    """Unit vectors of length 2 make the seeded products norm 16: the
    SpinElement that random_spin returns rejects them, and the check reports
    the raise."""
    real = spingroup.rational_unit_vector
    monkeypatch.setattr(spingroup, "rational_unit_vector", lambda n, rng: real(n, rng) * 2)
    name = "seeded spin elements: deterministic, unit norm"
    assert _failures(monkeypatch, name) == {
        name: "InvalidSpinElementError: spin element must satisfy zeta * reverse(zeta) = 1"
    }


def test_a_reversal_that_is_the_identity_fails(monkeypatch):
    """A reverse that returns its argument breaks anti-multiplicativity and
    makes z x reverse(z) differ from the double reflection."""
    monkeypatch.setattr(Multivector, "reverse", lambda self: self)
    laws = "grade involution / reversal (anti)automorphism laws"
    reflection = "double reflection equals conjugation by the factor product"
    assert _failures(monkeypatch, laws, reflection) == {
        laws: "reversal is not anti-multiplicative",
        reflection: "double reflection disagrees with conjugation",
    }


def _sign_mask_of_blade_2_flipped(monkeypatch):
    masks = list(multivector.SIGN_MASKS)
    masks[2] ^= 1  # e1 e0 now reads +e0 e1
    monkeypatch.setattr(multivector, "SIGN_MASKS", tuple(masks))


def test_random_multivectors_match_the_fraction_draws():
    """The integer draws over 12 give the Fraction oracle's elements and
    leave the generator where the oracle's draws leave it."""
    for seed in range(300):
        ours, oracle = random.Random(seed), random.Random(seed)
        for n in range(1, 9):
            a = verify._random_multivector(n, ours)
            b = fraction_random_multivector(n, oracle)
            assert (a.d, dict(a.terms)) == (b.d, dict(b.terms))
        assert ours.getstate() == oracle.getstate()


def test_generator_relations_multiplies_every_pair_on_operands_built_once(monkeypatch):
    """Two products per ordered pair (i, j), n = 1..8, are 408 products, and
    each n's basis vectors and its scalars -2 and 0 are built once: at most
    52 constructions."""
    inits, products = [], []
    real_init, real_mul = Multivector.__init__, Multivector.__mul__

    def counted_init(self, *args):
        inits.append(1)
        real_init(self, *args)

    def counted_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Multivector, "__init__", counted_init)
    monkeypatch.setattr(Multivector, "__mul__", counted_mul)
    assert verify.generator_relations() is None
    assert len(products) == 408
    assert len(inits) <= 52


def _p_iso_without_parity_bit(monkeypatch):
    def shifted(a):
        return Multivector(a.n + 1, {mask << 1: Fraction(c, a.d) for mask, c in a.terms.items()})

    monkeypatch.setattr(verify, "p_iso", shifted)


def _volume_element_is_e0(monkeypatch):
    monkeypatch.setattr(verify, "volume_element", lambda n: Multivector.basis_vector(n, 0))


def _projectors_are_equal(monkeypatch):
    plus, _ = multivector.chiral_projectors()
    monkeypatch.setattr(verify, "chiral_projectors", lambda: (plus, plus))


def _adjoint_action_transposed(monkeypatch):
    def transposed(z):
        d, rows = spingroup.adjoint_action(z).entries
        return RotationMatrix((d, la.transpose(rows)))

    monkeypatch.setattr(verify, "adjoint_action", transposed)


def _adjoint_action_is_the_identity(monkeypatch):
    monkeypatch.setattr(verify, "adjoint_action", lambda z: RotationMatrix((1, la.identity(z.value.n))))


def _lie_lift_doubled(monkeypatch):
    monkeypatch.setattr(verify, "lie_lift", lambda a: spingroup.lie_lift(a) * 2)


@pytest.mark.parametrize(
    "plant, name, detail",
    [
        pytest.param(_sign_mask_of_blade_2_flipped, "generator relations e_i e_j + e_j e_i = -2 delta_ij, n = 1..8",
                     "failed at n=2, pair (0,1)", id="generator-relations"),
        pytest.param(_sign_mask_of_blade_2_flipped, "geometric product associativity (40 random triples)",
                     "failed in Cl(0,7)", id="associativity"),
        pytest.param(_p_iso_without_parity_bit, "even-part embedding is an algebra map with even image",
                     "image contains odd blades", id="even-embedding"),
        pytest.param(_volume_element_is_e0, "volume elements: squares, centrality, parity commutation",
                     "volume element square is not 1", id="volume-element-laws"),
        pytest.param(_projectors_are_equal, "chiral projectors: idempotent, orthogonal, complete",
                     "projectors are not complementary", id="projector-laws"),
        pytest.param(_adjoint_action_transposed, "conjugation cover is a homomorphism (10 random pairs)",
                     "failed in Spin(5)", id="cover-homomorphism"),
        pytest.param(_adjoint_action_is_the_identity, "kernel of the cover is exactly {+1, -1} (sampled)",
                     "non-central element acts trivially in Spin(3)", id="cover-kernel"),
        pytest.param(_lie_lift_doubled, "bivector lift is a section of the cover differential",
                     "skew lift fails for n=7", id="bivector-lift"),
    ],
)
def test_a_planted_fault_fails_its_check(monkeypatch, plant, name, detail):
    """A check run alone reports FAIL, with its own detail, on a planted
    fault in the layer it certifies."""
    plant(monkeypatch)
    assert _failures(monkeypatch, name) == {name: detail}


# reps-scope plants: each takes the module, for plants that lift through it

def _iota_vector_is_the_identity(monkeypatch, rep):
    monkeypatch.setattr(verify, "iota_vector", lambda z: z)


def _iota_plus_is_the_vector_embedding(monkeypatch, rep):
    monkeypatch.setattr(verify, "iota_plus", lambda rep, z: gammarep.iota_vector(z))


def _iota_vector_is_the_spinor_lift(monkeypatch, rep):
    monkeypatch.setattr(verify, "iota_vector", lambda z: gammarep.iota_plus(rep, z))


def _stabilizers_read(*dims):
    """A plant whose stabilizer_dimensions returns ``dims``, or its one value
    once per spinor."""
    def dimensions(rep, rows, algebra=None):
        return list(dims) if len(dims) > 1 else list(dims) * len(rows)

    def plant(monkeypatch, rep):
        monkeypatch.setattr(verify, "stabilizer_dimensions", dimensions)

    return plant


def _g2_basis_short_by_one(monkeypatch, rep):
    monkeypatch.setattr(verify, "g2_intersection_basis", lambda rep: gammarep.g2_intersection_basis(rep)[:13])


def _g2_basis_with_a_spinor_side_element(monkeypatch, rep):
    # d_iota_plus of an so(7) basis element fixes psi but not e0
    x = gammarep.spin7_lie_basis()[0]
    monkeypatch.setattr(verify, "g2_intersection_basis",
                        lambda rep: gammarep.g2_intersection_basis(rep)[:13] + [gammarep.d_iota_plus(rep, x)])


def _g2_basis_with_a_vector_side_element(monkeypatch, rep):
    # embed_spin7 of an so(7) basis element fixes e0 but not psi
    x = gammarep.embed_spin7(gammarep.spin7_lie_basis()[0])
    monkeypatch.setattr(verify, "g2_intersection_basis", lambda rep: gammarep.g2_intersection_basis(rep)[:13] + [x])


def _volume_element_negated(monkeypatch, rep):
    monkeypatch.setattr(verify, "volume_element", lambda n: -multivector.volume_element(n))


def _monomial_rank_short_by_one(monkeypatch, rep):
    monkeypatch.setattr(verify, "monomial_span_rank", lambda rep: 255)


_LIFT_IDENTITY = "conjugation of the spinor lift equals the spin rep (21 basis + 10 group)"
_EMBEDDINGS_DIFFER = "the two embeddings differ: only the vector copy fixes e0"
_STABILIZER_21 = "so(8)-stabilizer of unit spinors has dimension 21 (orbit rank 7)"
_G2 = "the two so(7) copies intersect in dimension 14, fixing spinor and vector"


@pytest.mark.parametrize(
    "plant, name, detail",
    [
        pytest.param(_iota_vector_is_the_identity, "spinor lift sends -1 to omega8; blade embedding keeps -1",
                     "vector-type embedding of -1 is not -1", id="minus-one-lift"),
        pytest.param(lambda monkeypatch, rep: _lie_lift_doubled(monkeypatch), _LIFT_IDENTITY,
                     "Lie-algebra level identity fails", id="spinor-lift-identity"),
        pytest.param(_iota_plus_is_the_vector_embedding, _EMBEDDINGS_DIFFER,
                     "spinor-type rotation of a generic element has a fixed vector", id="embeddings-differ-spinor"),
        pytest.param(_iota_plus_is_the_vector_embedding,
                     "chiral rep of the lift factors through rotations; spin rep is odd",
                     "chiral rep of the lift does not factor through the rotation group", id="sigma-factors"),
        pytest.param(_iota_vector_is_the_spinor_lift, _EMBEDDINGS_DIFFER,
                     "vector-type embedding does not fix e0", id="embeddings-differ-vector"),
        pytest.param(_stabilizers_read(20), _STABILIZER_21, "stabilizer dimension 20 != 21", id="stabilizer-21-psi"),
        pytest.param(_stabilizers_read(21, 20, 21, 21), _STABILIZER_21,
                     "random unit spinor has a different stabilizer dimension", id="stabilizer-21-random"),
        pytest.param(_stabilizers_read(13),
                     "chiral so(7) stabilizer of 10 random unit spinors is 14-dim (orbit rank 7)",
                     "chiral so(7) stabilizer has dimension 13 != 14", id="sphere-transitivity"),
        pytest.param(_g2_basis_short_by_one, _G2, "intersection dimension 13 != 14", id="g2-dimension"),
        pytest.param(_g2_basis_with_a_spinor_side_element, _G2, "intersection element moves e0 infinitesimally",
                     id="g2-moves-e0"),
        pytest.param(_g2_basis_with_a_vector_side_element, _G2, "intersection element moves the fixed spinor",
                     id="g2-moves-psi"),
        pytest.param(_volume_element_negated, "volume element acts as +1 on S+ and -1 on S-",
                     "volume element does not act as +1 on the positive half", id="volume-signs"),
        pytest.param(_monomial_rank_short_by_one, "256 monomial matrices span a 256-dimensional space",
                     "rank 255 != 256", id="monomial-span"),
    ],
)
def test_a_planted_fault_fails_its_reps_check(monkeypatch, rep, plant, name, detail):
    """A reps check run alone reports FAIL, with its own detail and not a
    raise, on a planted fault in a verify name that it reads."""
    plant(monkeypatch, rep)
    assert _failures(monkeypatch, name) == {name: detail}
