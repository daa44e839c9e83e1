import importlib.util
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

from cohaut.algebra import Generator, Monomial, Polynomial
from cohaut.coherence import try_lift
from cohaut.corpus import BUILTIN_LABELS, load_builtin
from cohaut.diagsolve import (
    Equation,
    MonomialConstraintSystem,
    NotDiagonal,
    as_linear_map,
    canonical_extension,
    coherent_iso_exists,
    extract_constraints,
    extract_cross_constraints,
    group_structure,
    lift_verify,
    solve,
)
from cohaut.model import ModelError, SullivanModel

P = Polynomial


def mono(*factors):
    return Monomial(tuple(factors))


# --- extraction ---------------------------------------------------------------


def test_extract_example_31_system(V):
    system = extract_constraints(V)
    assert system.variables == (10, 12, 41, 43, 45, 119)
    assert system.source_variables == (10, 12)
    eqs = {str(eq) for eq in system.equations}
    assert eqs == {
        "p41 = p10^3*p12",
        "p43 = p10^2*p12^2",
        "p45 = p10*p12^3",
        "p119 = p12^3*p41*p43",
        "p119 = p10*p12^2*p41*p45",
        "p119 = p10^2*p12*p43*p45",
        "p119 = p10^12",
        "p119 = p12^10",
    }
    assert system.complete


def test_extract_zero_differential_model_is_empty():
    m = SullivanModel([Generator("a", 10), Generator("b", 12)], {}, label="free")
    system = extract_constraints(m)
    assert system.equations == ()
    assert system.source_variables == (10, 12)


def test_extract_u1_x3_appears_nowhere(U1):
    system = extract_constraints(U1)
    assert all(eq.target != 3 for eq in system.equations)
    assert all(3 not in dict(eq.exponents) for eq in system.equations)
    assert 3 in system.source_variables
    assert any("p3" in note and "unconstrained" in note for note in system.notes)


def test_extract_rejects_non_diagonal():
    m = SullivanModel([Generator("a", 6), Generator("b", 6)], {}, label="pair")
    with pytest.raises(NotDiagonal):
        extract_constraints(m)


def incomplete_model():
    # d(b) = a^2, d(v) = a^3: a^3 = d(a b) is a coboundary below degree 5
    a, b, v = Generator("a", 2), Generator("b", 3), Generator("v", 5)
    return SullivanModel(
        [a, b, v],
        {"b": P.monomial(mono((a, 2))), "v": P.monomial(mono((a, 3)))},
        label="incomplete",
    )


@pytest.mark.parametrize("label", BUILTIN_LABELS + ("incomplete",))
def test_self_system_is_the_cross_system_of_the_model_with_itself(label):
    m = incomplete_model() if label == "incomplete" else load_builtin(label)
    own, cross = extract_constraints(m), extract_cross_constraints(m, m)
    assert own.equations == cross.equations
    assert own.complete == cross.complete
    assert own.forcers == cross.forcers == ()


def test_cross_system_of_the_incomplete_model_notes_the_dependent_degree():
    system = extract_cross_constraints(incomplete_model(), incomplete_model())
    assert not system.complete
    assert system.notes == (
        "monomials at degree 5 are dependent modulo coboundaries; "
        "system is necessary conditions only",
    )


# --- solving -------------------------------------------------------------------


def test_solve_example_31_has_exactly_the_three_paper_solutions(V):
    solutions = solve(extract_constraints(V))
    assert solutions.is_finite
    assert solutions.solutions() == (
        (Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
        (Q(1), Q(-1), Q(-1), Q(1), Q(-1), Q(1)),
        (Q(1), Q(1), Q(1), Q(1), Q(1), Q(1)),
    )
    assert len(solutions.invertible_solutions()) == 2


def test_solve_example_32_has_five_solutions_four_invertible(W):
    solutions = solve(extract_constraints(W))
    assert solutions.count() == 5
    inv = solutions.invertible_solutions()
    assert len(inv) == 4
    # paper's tuples in the order (p2, p10, p12, p41, p43, p45, p119)
    expected = {
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, -1, -1, 1, -1, 1),
        (-1, 1, 1, 1, 1, 1, 1),
        (-1, 1, -1, -1, 1, -1, 1),
    }
    assert {tuple(int(x) for x in vec) for vec in inv} == expected


def test_solutions_are_verified_by_brute_force_substitution(V, W):
    for m in (V, W):
        solutions = solve(extract_constraints(m))
        for vec in solutions.solutions():
            assert solutions.contains(vec)


def test_solution_sets_are_multiplicatively_closed(V, W):
    for m in (V, W):
        solutions = solve(extract_constraints(m))
        sols = set(solutions.solutions())
        for a in sols:
            for b in sols:
                assert tuple(x * y for x, y in zip(a, b)) in sols
        for a in solutions.invertible_solutions():
            assert tuple(1 / x for x in a) in sols


def test_square_equality_system_is_an_infinite_family():
    # synthetic system {p7 = p2^2, p7 = p3^2}: positive parts satisfy q2 = q3
    # (lattice kernel (1,1,2) by the SNF oracle on rows (1,0,-2),(0,1,-2)),
    # signs of p2, p3 are free, so the family is (±t, ±t, t^2), t > 0
    dummy = SullivanModel([Generator("a", 2)], {}, label="synthetic")
    system = MonomialConstraintSystem(
        source=dummy,
        target=dummy,
        variables=(2, 3, 7),
        equations=(
            Equation(7, Q(1), ((2, 2),)),
            Equation(7, Q(1), ((3, 2),)),
        ),
        forcers=(),
        complete=True,
        notes=(),
    )
    solutions = solve(system)
    assert not solutions.is_finite
    assert solutions.free_rank == 1
    assert solutions.torsion_rank == 2
    for t in (Q(2), Q(1, 3)):
        for s2, s3 in product((1, -1), repeat=2):
            assert solutions.contains((s2 * t, s3 * t, t * t))
    assert not solutions.contains((Q(2), Q(3), Q(4)))


def test_group_structure_values(V, W):
    gs_v = group_structure(solve(extract_constraints(V)))
    assert (gs_v.order, gs_v.torsion_rank, gs_v.free_rank) == (2, 1, 0)
    gs_w = group_structure(solve(extract_constraints(W)))
    assert (gs_w.order, gs_w.torsion_rank, gs_w.free_rank) == (4, 2, 0)
    assert gs_w.paper_name == "Z2 ⊕ Z2"


def test_group_structure_e4_matches_paper_u2_claim():
    # the corrected even-tower counterpart of the paper's U2 claim
    # ("16 coherent automorphisms of order 2")
    from cohaut.corpus import load_builtin

    gs = group_structure(solve(extract_constraints(load_builtin("E4"))))
    assert (gs.order, gs.torsion_rank, gs.free_rank) == (16, 4, 0)


def test_group_structure_u1_infinite(U1):
    solutions = solve(extract_constraints(U1))
    gs = group_structure(solutions)
    assert gs.order is None and gs.free_rank == 1 and gs.torsion_rank == 3


def test_lift_verification_of_solutions(V, W, U1):
    for m in (V, W):
        checked = lift_verify(solve(extract_constraints(m)))
        assert checked and all(ok for _, ok, _ in checked)
    checked = lift_verify(solve(extract_constraints(U1)))
    assert checked and all(ok for _, ok, _ in checked)


def test_canonical_extension(V):
    system = extract_constraints(V)
    full = canonical_extension(system, {10: Q(1), 12: Q(-1)})
    assert full == (Q(1), Q(-1), Q(-1), Q(1), Q(-1), Q(1))
    full = canonical_extension(system, {10: Q(0), 12: Q(0)})
    assert full == (Q(0),) * 6


def test_small_grid_cross_oracle(V):
    # the acceptance suite runs the full grid; this is the {0, ±1} corner
    system = extract_constraints(V)
    solutions = solve(system)
    for p10 in (Q(0), Q(1), Q(-1)):
        for p12 in (Q(0), Q(1), Q(-1)):
            vec = canonical_extension(system, {10: p10, 12: p12})
            result = try_lift(as_linear_map(system, vec))
            assert result.ok == solutions.contains(vec), vec
            if not result.ok:
                assert result.obstruction is not None
                assert not result.obstruction.failure_class.is_zero()


# --- coherent isomorphism --------------------------------------------------------


def test_model_is_coherently_isomorphic_to_itself(V):
    decision = coherent_iso_exists(V, V)
    assert decision.isomorphic
    assert decision.witness is not None
    assert decision.lift is not None and decision.lift.ok


def test_scaling_one_differential_term_breaks_iso(V):
    # B = V with d(z) scaled by 2 on the x1^12 term only.  Hand derivation:
    # constraints give p10^5 = p12^4 and p10^12 = 2 p12^10; 2-adic valuations
    # (a, b) of (p10, p12) satisfy 5a = 4b (so a = 4t, b = 5t) and
    # 12a = 1 + 10b, i.e. 48t = 1 + 50t, so t = -1/2 is not an integer.
    # No rational solution exists, hence NOT coherently isomorphic.
    x1, x2 = V.generator("x1"), V.generator("x2")
    y1, y2, y3 = V.generator("y1"), V.generator("y2"), V.generator("y3")
    dz2 = (
        P.monomial(mono((x2, 3), (y1, 1), (y2, 1)))
        - P.monomial(mono((x1, 1), (x2, 2), (y1, 1), (y3, 1)))
        + P.monomial(mono((x1, 2), (x2, 1), (y2, 1), (y3, 1)))
        + P.monomial(mono((x1, 12)), Q(2))
        + P.monomial(mono((x2, 10)))
    )
    scaled = SullivanModel(
        V.generators,
        {
            "y1": V.differential("y1"),
            "y2": V.differential("y2"),
            "y3": V.differential("y3"),
            "z": dz2,
        },
        label="V-scaled",
    )
    assert scaled.validate().ok
    decision = coherent_iso_exists(V, scaled)
    assert not decision.isomorphic
    assert "lattice" in decision.reason or "sign" in decision.reason
    # and the cross system really has ratio 1/2 on the x1^12 monomial
    system = extract_cross_constraints(V, scaled)
    ratios = {str(eq): eq.coeff for eq in system.equations}
    assert ratios["p119 = (1/2)*p10^12"] == Q(1, 2)


def test_different_degree_multisets_are_never_isomorphic(V, W):
    decision = coherent_iso_exists(V, W)
    assert not decision.isomorphic
    assert "degree multisets differ" in decision.reason


def test_incomplete_system_solutions_are_a_lift_verified_subset():
    # d(b) = a^2, d(v) = a^3: here a^3 = d(a b) is a coboundary below degree 5,
    # so the per-monomial equation p5 = p2^3 is NOT forced by coherence and the
    # extractor must clear the completeness flag.  The solver's family still
    # lift-verifies, and a vector outside it, (1, 1, 7), is coherent because the
    # stage defect -6 a^3 is killed by the correction u = -6 a b.
    a = Generator("a", 2)
    b = Generator("b", 3)
    v = Generator("v", 5)
    m = SullivanModel(
        [a, b, v],
        {"b": P.monomial(mono((a, 2))), "v": P.monomial(mono((a, 3)))},
        label="incomplete",
    )
    assert m.validate().ok
    system = extract_constraints(m)
    assert not system.complete
    assert any("dependent" in note for note in system.notes)
    solutions = solve(system)
    assert all(ok for _, ok, _ in lift_verify(solutions))
    outside = (Q(1), Q(1), Q(7))
    assert not solutions.contains(outside)
    result = try_lift(as_linear_map(system, outside))
    assert result.ok
    theta_v = result.morphism.images["v"]
    assert theta_v == P.generator(v, 7) - P.monomial(mono((a, 1), (b, 1)), Q(6))


def test_one_sided_monomial_forces_zero(V):
    # B = V with the x2^10 term removed: the solver must refuse invertibility
    trimmed_dz = V.differential("z") - P.monomial(mono((V.generator("x2"), 10)))
    trimmed = SullivanModel(
        V.generators,
        {
            "y1": V.differential("y1"),
            "y2": V.differential("y2"),
            "y3": V.differential("y3"),
            "z": trimmed_dz,
        },
        label="V-trimmed",
    )
    assert trimmed.validate().ok
    decision = coherent_iso_exists(V, trimmed)
    assert not decision.isomorphic
    assert "one side only" in decision.reason


def test_extraction_and_coboundary_lifts_build_no_window(monkeypatch, V, W):
    # residues_independent and solve_coboundary answer from the local block of
    # their monomials; fresh caches make a reverted window path show here
    import importlib

    from cohaut.coherence import GradedLinearMap
    from cohaut.corpus import load_builtin

    cohomology_module = importlib.import_module("cohaut.cohomology")
    built = []
    build = cohomology_module._Window.build.__func__

    def spy(cls, cx, k):
        built.append((cx.model.label, k))
        return build(cls, cx, k)

    monkeypatch.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(32))
    monkeypatch.setattr(cohomology_module._Window, "build", classmethod(spy))
    for m in (V, W, load_builtin("E3")):
        extract_constraints(m)
    # V-ex31 and W-ex32 have different degrees, so cross pairs share them
    trimmed_dz = V.differential("z") - P.monomial(mono((V.generator("x2"), 10)))
    diff = {g.name: V.differential(g) for g in V.generators}
    trimmed = SullivanModel(V.generators, {**diff, "z": trimmed_dz}, label="V-trimmed")
    extract_cross_constraints(V, trimmed)
    extract_cross_constraints(W, load_builtin("E2"))
    assert try_lift(GradedLinearMap.identity(W)).ok
    # a lift whose stage defect -6 a^3 is a coboundary (see the test above)
    a, b, v = Generator("a", 2), Generator("b", 3), Generator("v", 5)
    m = SullivanModel(
        [a, b, v], {"b": P.monomial(mono((a, 2))), "v": P.monomial(mono((a, 3)))}
    )
    assert try_lift(as_linear_map(extract_constraints(m), (Q(1), Q(1), Q(7)))).ok
    assert built == []


def test_extraction_refuses_a_model_that_fails_validation():
    # d y = x^2 and d w = x y: d(d(w)) = x^3 != 0
    x, y, w = Generator("x", 2), Generator("y", 3), Generator("w", 4)
    bad = SullivanModel(
        [x, y, w], {"y": P.monomial(mono((x, 2))), "w": P.monomial(mono((x, 1), (y, 1)))}, label="bad"
    )
    with pytest.raises(ModelError, match="d ∘ d = 0"):
        extract_constraints(bad)
    good = SullivanModel([x, y, w], {"y": P.monomial(mono((x, 2)))}, label="good")
    with pytest.raises(ModelError, match="bad fails validation"):
        extract_cross_constraints(good, bad)


# (lifts, verdict digest) of tools/lift_pass.py for every builtin: any change
# to them is a change of output, to be explained where it is made
LIFT_PASS = {
    "V-ex31": (3, "a80fb8ee941599ef"),
    "W-ex32": (5, "7f62a7fe32abec30"),
    "U1": (12, "3435378acb639453"),
    "U2": (14, "e0945f51ee305b79"),
    "U3": (36, "68e1146aa1e57e25"),
    "U4": (40, "4a09f3d1628c7e16"),
    "U5": (96, "810fe310f0bfb26a"),
    "U6": (104, "a65d2093ea63da8f"),
    "U7": (112, "96e1bf945196022d"),
    "U8": (120, "63da9f593df75692"),
    "E2": (5, "7f62a7fe32abec30"),
    "E3": (9, "f9e5f7ba4e8ac4a0"),
    "E4": (17, "bd5dc906e61cb8f5"),
    "E5": (33, "af29e38aeeebc19c"),
    "E6": (65, "9172e886977ea024"),
    "E7": (129, "e7d9d7865e595ac7"),
}


def test_the_corpus_lift_pass_keeps_its_verdict_digests():
    path = Path(__file__).resolve().parents[1] / "tools" / "lift_pass.py"
    spec = importlib.util.spec_from_file_location("lift_pass", path)
    lift_pass = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lift_pass)
    got = {}
    for label in BUILTIN_LABELS:
        verdicts = lift_verify(solve(extract_constraints(load_builtin(label))))
        assert all(ok for _, ok, _ in verdicts), label
        got[label] = (len(verdicts), lift_pass.verdict_digest(verdicts))
    assert got == LIFT_PASS
