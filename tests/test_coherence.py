from fractions import Fraction as Q

import pytest

from cohaut.algebra import Generator, Monomial, Polynomial
from cohaut.cohomology import coboundary_matrix
from cohaut import linalg
from cohaut.coherence import (
    GradedLinearMap,
    ShapeError,
    gap_report,
    induced_on_indecomposables,
    invert_coherent,
    is_coherent,
    try_lift,
)
from cohaut.model import CochainMorphism, ModelError, SullivanModel, compose, identity
from cohaut.whitehead import naturality_check

P = Polynomial


def mono(*factors):
    return Monomial(tuple(factors))


SIGN = {10: 1, 12: -1, 41: -1, 43: 1, 45: -1, 119: 1}
ONES = {10: 1, 12: 1, 41: 1, 43: 1, 45: 1, 119: 1}


# --- induced_on_indecomposables -----------------------------------------------------


def test_induced_of_identity_is_identity(V):
    assert induced_on_indecomposables(identity(V)) == GradedLinearMap.identity(V)


def test_decomposable_corrections_do_not_change_the_induced_map():
    x = Generator("x", 2)
    w = Generator("w", 4)
    m = SullivanModel([x, w], {}, label="free2")
    f = CochainMorphism(
        m,
        m,
        {
            "x": P.generator(x),
            "w": P.generator(w) + P.monomial(mono((x, 2)), Q(5)),
        },
    )
    assert induced_on_indecomposables(f) == GradedLinearMap.identity(m)


def test_generator_permutation_induces_permutation_matrix():
    a = Generator("a", 6)
    b = Generator("b", 6)
    m = SullivanModel([a, b], {}, label="pair")
    f = CochainMorphism(m, m, {"a": P.generator(b), "b": P.generator(a)})
    xi = induced_on_indecomposables(f)
    assert xi.block(6) == [[Q(0), Q(1)], [Q(1), Q(0)]]


# --- try_lift -----------------------------------------------------------------------


def test_identity_is_coherent(V):
    ok, result = is_coherent(GradedLinearMap.identity(V))
    assert ok
    assert result.morphism == identity(V)


def test_the_paper_sign_vector_lifts(V):
    result = try_lift(GradedLinearMap.diagonal(V, SIGN))
    assert result.ok
    assert induced_on_indecomposables(result.morphism) == GradedLinearMap.diagonal(V, SIGN)


def test_scaling_z_alone_obstructs_at_degree_119(V):
    bad = dict(ONES)
    bad[119] = 2
    result = try_lift(GradedLinearMap.diagonal(V, bad))
    assert not result.ok
    ob = result.obstruction
    assert ob.degree == 119 and ob.generator == "z"
    # the class must be nonzero on the x1^12 coordinate
    basis = ob.failure_class.basis
    pivots = {i: str(basis.representative(i)) for i in ob.failure_class.coords}
    assert "x1^12" in pivots.values()


def test_obstruction_soundness_no_correction_exists(V):
    # independent check: the stage equation d(u) = rhs has no solution at z,
    # via a dense solve over the full truncated complex
    bad = dict(ONES)
    bad[119] = 2
    t = V.truncate(118)
    rhs = V.d(P.generator(V.generator("z"))) - 2 * V.d(P.generator(V.generator("z")))
    mat = coboundary_matrix(t, 119)
    assert linalg.solve(mat, t.coordinates(rhs, 120)) is None


def test_shape_validation(V):
    with pytest.raises(ShapeError):
        GradedLinearMap(V, V, {10: [[Q(1), Q(2)]]})
    with pytest.raises(ShapeError):
        GradedLinearMap.diagonal(V, {11: Q(1)})


def test_round_trip_induced_of_lift(V, W):
    for m, entries in ((V, SIGN), (V, ONES), (W, {2: -1, **ONES})):
        xi = GradedLinearMap.diagonal(m, entries)
        result = try_lift(xi)
        assert result.ok
        assert induced_on_indecomposables(result.morphism) == xi


def test_composition_closure(V):
    sig = GradedLinearMap.diagonal(V, SIGN)
    lift = try_lift(sig).morphism
    composed_xi = sig.compose(sig)
    assert composed_xi == GradedLinearMap.identity(V)
    assert try_lift(composed_xi).ok
    assert compose(lift, lift) == identity(V)


def test_lifts_pass_naturality_at_all_generator_degrees(V, W):
    for m, entries in ((V, SIGN), (W, {2: -1, **ONES})):
        lift = try_lift(GradedLinearMap.diagonal(m, entries)).morphism
        for n in sorted({g.degree for g in m.generators}):
            assert naturality_check(lift, n).ok


# --- invert_coherent -----------------------------------------------------------------


def test_invert_identity(V):
    xi = GradedLinearMap.identity(V)
    theta = try_lift(xi).morphism
    inv_xi, inv_theta = invert_coherent(xi, theta)
    assert inv_xi == xi and inv_theta == theta


def test_invert_sign_vector_is_itself(V):
    xi = GradedLinearMap.diagonal(V, SIGN)
    theta = try_lift(xi).morphism
    inv_xi, inv_theta = invert_coherent(xi, theta)
    assert inv_xi == xi
    assert compose(theta, inv_theta) == identity(V)
    assert compose(inv_theta, theta) == identity(V)


def test_invert_diagonal_on_zero_differential_model():
    a = Generator("a", 2)
    b = Generator("b", 4)
    m = SullivanModel([a, b], {}, label="free")
    xi = GradedLinearMap.diagonal(m, {2: Q(3), 4: Q(-5, 2)})
    theta = try_lift(xi).morphism
    inv_xi, inv_theta = invert_coherent(xi, theta)
    assert inv_xi.diagonal_entries() == {2: Q(1, 3), 4: Q(-2, 5)}
    assert compose(theta, inv_theta) == identity(m)


def test_invert_with_genuine_correction_terms():
    # theta(w) = w + 5 x^2 has a nontrivial decomposable correction; the
    # inverse must subtract it back
    x = Generator("x", 2)
    w = Generator("w", 4)
    m = SullivanModel([x, w], {}, label="free2")
    theta = CochainMorphism(
        m, m, {"x": P.generator(x), "w": P.generator(w) + P.monomial(mono((x, 2)), Q(5))}
    )
    xi = induced_on_indecomposables(theta)
    inv_xi, inv_theta = invert_coherent(xi, theta)
    assert compose(theta, inv_theta) == identity(m)
    assert compose(inv_theta, theta) == identity(m)
    assert inv_theta.images["w"] == P.generator(w) - P.monomial(mono((x, 2)), Q(5))


def test_invert_requires_invertible_blocks(V):
    xi = GradedLinearMap.diagonal(V, {d: 0 for d in ONES})
    theta = try_lift(xi).morphism  # the zero map lifts (to the zero morphism)
    with pytest.raises(ShapeError):
        invert_coherent(xi, theta)


def test_invert_requires_a_matching_lift(V):
    xi = GradedLinearMap.diagonal(V, SIGN)
    with pytest.raises(ShapeError):
        invert_coherent(xi, identity(V))


# --- gap_report ----------------------------------------------------------------------


def test_gap_report_example_31(V):
    report = gap_report(V)
    gaps = {row.degree: row.gap_dim for row in report.rows}
    assert gaps == {10: 0, 12: 0, 41: 0, 43: 0, 45: 0, 119: 3}
    assert not report.all_unique
    flagged = [row.degree for row in report.rows if not row.unique]
    assert flagged == [119]
    assert "FAILS" in str(report)


def test_gap_report_unique_for_pure_even_model():
    m = SullivanModel([Generator("a", 10), Generator("b", 12)], {}, label="free")
    assert gap_report(m).all_unique


# --- validated inputs ----------------------------------------------------------------


def test_try_lift_refuses_a_model_that_fails_validation():
    # d y = x^2 and d w = x y: d(d(w)) = x^3 != 0
    x, y, w = Generator("x", 2), Generator("y", 3), Generator("w", 4)
    dy = P.monomial(mono((x, 2)))
    bad = SullivanModel([x, y, w], {"y": dy, "w": P.monomial(mono((x, 1), (y, 1)))}, label="bad")
    good = SullivanModel([x, y, w], {"y": dy}, label="good")
    assert good.validate().ok
    ones = {2: 1, 3: 1, 4: 1}
    for source, target in ((bad, bad), (good, bad), (bad, good)):
        with pytest.raises(ModelError, match="bad fails validation"):
            try_lift(GradedLinearMap.diagonal(source, ones, target=target))
