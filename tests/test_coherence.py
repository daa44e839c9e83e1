import importlib
import random
from fractions import Fraction as Q

import pytest

import cohaut.coherence as coherence_module
import cohaut.model as model_module
from cohaut.algebra import Generator, Monomial, Polynomial
from cohaut.cohomology import coboundary_matrix, cohomology, solve_coboundary
from cohaut import linalg
from cohaut.corpus import load_builtin
from cohaut.diagsolve import extract_constraints, lift_verify, solve
from cohaut.coherence import (
    GradedLinearMap,
    ShapeError,
    gap_report,
    induced_on_indecomposables,
    invert_coherent,
    is_coherent,
    try_lift,
)
from cohaut.model import (
    CochainMorphism,
    ModelError,
    MorphismError,
    SullivanModel,
    compose,
    identity,
)
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


def test_an_obstructed_point_builds_one_truncation_per_stage_degree(monkeypatch):
    fresh = load_builtin("V-ex31").relabel("fresh V")  # a model with no truncation yet
    built: list[str] = []
    init = SullivanModel.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.label)

    monkeypatch.setattr(SullivanModel, "__init__", spy)
    bad = dict(ONES)
    bad[119] = 2
    results = [try_lift(GradedLinearMap.diagonal(fresh, bad)) for _ in range(3)]
    assert not any(r.ok for r in results)
    truncations = [label for label in built if label.removeprefix(f"{fresh.label}<=").isdigit()]
    assert f"{fresh.label}<=118" in truncations
    assert len(truncations) == len(set(truncations))  # one model per cut
    models = {id(r.obstruction.failure_class.basis.model) for r in results}
    assert len(models) == 1


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


# --- packed stages against Polynomial arithmetic --------------------------------------


def _swap_model():
    """a, b:2, y, c:3, v:5 with d y = a^2, d c = b^2 and d v = a^3 = d(a y).
    The swap a <-> b, y <-> c with ξ(v) = 2v meets the nonzero, exact
    right-hand side b^3 - 2a^3 = d(b c - 2a y) at v's stage."""
    a, b, y, c, v = (Generator(n, d) for n, d in (("a", 2), ("b", 2), ("y", 3), ("c", 3), ("v", 5)))
    diff = {
        "y": P.monomial(mono((a, 2))),
        "c": P.monomial(mono((b, 2))),
        "v": P.monomial(mono((a, 3))),
    }
    m = SullivanModel([a, b, y, c, v], diff, label="swap")
    swap = [[Q(0), Q(1)], [Q(1), Q(0)]]
    return m, GradedLinearMap(m, m, {2: swap, 3: swap, 5: [[Q(2)]]})


def _theta_reference(images, p):
    """θ(p) by successive products of the images, in Polynomial arithmetic."""
    out = P.zero()
    for m, c in p.terms():
        term = P.unit(c)
        for g, e in m.factors:
            for _ in range(e):
                term = term * images[g.name]
        out = out + term
    return out


def _reference_lift(xi):
    """The stage-wise lift in public Polynomial arithmetic: the right-hand
    side θ(d v) - Σ c·d'(w) of each stage run, and the images (None when a
    stage is obstructed)."""
    source, target = xi.source, xi.target
    images, stages = {}, []
    for v in source.generators:
        xi_v = xi.apply_gen(v)
        rhs = _theta_reference(images, source.differential(v))
        for w, c in xi_v.terms():
            rhs = rhs - c * target.differential(w.linear_generator())
        stages.append(rhs)
        u = solve_coboundary(target.truncate(v.degree - 1), v.degree + 1, rhs)
        if u is None:
            return stages, None
        images[v.name] = xi_v + u
    return stages, images


def test_packed_stages_agree_with_polynomial_arithmetic(monkeypatch):
    stages = []
    packed_stage = coherence_module._linear_stage

    def spy(xi, tgt, pk, v, theta_dv):
        xi_v, rhs = packed_stage(xi, tgt, pk, v, theta_dv)
        stages.append(tgt.polynomial(pk, rhs))
        return xi_v, rhs

    monkeypatch.setattr(coherence_module, "_linear_stage", spy)
    counts = {"ok": 0, "obstructed": 0, "nonzero_rhs": 0}

    def check(xi):
        stages.clear()
        result = try_lift(xi)
        ref_stages, ref_images = _reference_lift(xi)
        assert stages == ref_stages
        assert result.ok == (ref_images is not None)
        if result.ok:
            assert result.morphism.images == ref_images
        counts["ok" if result.ok else "obstructed"] += 1
        counts["nonzero_rhs"] += sum(1 for rhs in stages if rhs)
        return result

    rng = random.Random(19)
    for label in ("V-ex31", "W-ex32", "E3", "U3"):
        m = load_builtin(label)
        for vec, ok, _ in lift_verify(solve(extract_constraints(m))):
            xi = GradedLinearMap.diagonal(m, dict(zip(sorted({g.degree for g in m.generators}), vec)))
            assert check(xi).ok == ok
        for _ in range(4):
            entries = {g.degree: rng.choice((1, -1, 2, Q(1, 2))) for g in m.generators}
            check(GradedLinearMap.diagonal(m, entries))
    m, xi = _swap_model()
    a, b, y, c, v = (m.generator(name) for name in "abycv")
    # u = b c - 2a y, the correction of v's stage
    assert check(xi).morphism.images["v"] == (
        P.generator(v, 2) + P.monomial(mono((b, 1), (c, 1))) - P.monomial(mono((a, 1), (y, 1)), 2)
    )
    assert counts["ok"] > 0 and counts["obstructed"] > 0 and counts["nonzero_rhs"] > 0


def test_the_closing_check_catches_a_wrong_stage_correction(monkeypatch):
    m, xi = _swap_model()
    assert try_lift(xi).ok
    right = coherence_module.solve_coboundary

    def doubled(trunc, k, rhs):
        u = right(trunc, k, rhs)
        return None if u is None else 2 * u

    monkeypatch.setattr(coherence_module, "solve_coboundary", doubled)
    with pytest.raises(MorphismError, match=r"d\(f\(v\)\) != f\(d\(v\)\)"):
        try_lift(xi)


def test_the_closing_check_catches_a_wrong_back_substitution(monkeypatch):
    m, xi = _swap_model()
    theta = try_lift(xi).morphism
    assert compose(theta, invert_coherent(xi, theta)[1]) == identity(m)

    class Doubled(coherence_module._ImagePowers):
        def __call__(self, p):
            return 2 * super().__call__(p)

    # only the back-substitution evaluates through the inverse's new table
    monkeypatch.setattr(coherence_module, "_ImagePowers", Doubled)
    with pytest.raises(MorphismError, match=r"d\(f\(v\)\) != f\(d\(v\)\)"):
        invert_coherent(xi, theta)


# --- int coefficients in the packed kernel against a pure-Fraction run ---------------

# `import cohaut.cohomology` would bind the function the package re-exports
cohomology_module = importlib.import_module("cohaut.cohomology")
XI_ENTRIES = (Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2))


def _random_model(rng, label):
    """A random valid model on generators of degrees 2..7 with weights,
    added in ascending degree.  A degree-2 generator has weight 1.  Each
    later v takes the weight w of a random degree-(|v|+1) monomial, and
    d(v) is a random rational combination of a basis of the cocycles of
    weight w in that degree of the model so far; d preserves weight, so
    these are the kernel of its weight-w columns.  Each such monomial is
    decomposable, since no generator has that degree yet, so the model is
    minimal, and d(d(v)) = 0.  Returns the model and the weights by name."""
    degrees = sorted([2, 2] + rng.sample([2, 3, 3, 4, 5, 5, 6, 7], 5))
    gens, diff, weight = [], {}, {}
    for i, deg in enumerate(degrees):
        name = f"g{i}"
        cur = SullivanModel(gens, diff, label=label)
        basis = list(cur.basis(deg + 1))
        weights = [sum(weight[g.name] * e for g, e in b.factors) for b in basis]
        weight[name] = rng.choice(weights) if deg > 2 and basis else 1
        cols = [j for j, w in enumerate(weights) if w == weight[name]]
        dv = P.zero()
        if cols and rng.random() < 0.85:
            mat = [[row[j] for j in cols] for row in coboundary_matrix(cur, deg + 1)]
            for z in linalg.nullspace(mat, len(cols)):
                c = rng.choice((0, 1, -1, 2, Q(1, 2), Q(-1, 3)))
                dv = dv + P({basis[j]: c * x for j, x in zip(cols, z) if x})
        gens.append(Generator(name, deg))
        if dv:
            diff[name] = dv
    m = SullivanModel(gens, diff, label=label)
    assert m.validate().ok
    return m, weight


def _random_maps(rng, m, weight):
    """Random ξ, with entries drawn from XI_ENTRIES, and the weight maps
    x -> λ^w(x)·x for λ = -1, 2 and 1/2, which lift since d preserves
    weight, alone and with one degree's block replaced by a random one."""
    degrees = sorted({g.degree for g in m.generators})
    sizes = {d: len(m.gens_of_degree(d)) for d in degrees}

    def block(n):
        return [[rng.choice(XI_ENTRIES) for _ in range(n)] for _ in range(n)]

    maps = [GradedLinearMap(m, m, {d: block(n) for d, n in sizes.items()}) for _ in range(3)]
    for lam in (Q(-1), Q(2), Q(1, 2)):
        scaled = {
            d: [[lam ** weight[g.name] if g is h else Q(0) for h in m.gens_of_degree(d)]
                for g in m.gens_of_degree(d)]
            for d in degrees
        }
        maps.append(GradedLinearMap(m, m, scaled))
        d = rng.choice(degrees)
        maps.append(GradedLinearMap(m, m, {**scaled, d: block(sizes[d])}))
    return maps


def _fraction_lift(xi, monkeypatch):
    """try_lift of ξ on fresh copies of its models, with every packed
    coefficient kept a Fraction: the packed kernel without the int rule.
    Fresh copies build their own packed views, and a fresh complex cache
    keeps the cohomology of their truncations apart too."""
    with monkeypatch.context() as mp:
        for module in (model_module, coherence_module):
            mp.setattr(module, "_packed_coeff", lambda c: c)
        mp.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(32))
        m = xi.source
        copy = SullivanModel(m.generators, {g.name: m.differential(g) for g in m.generators}, m.label)
        result = try_lift(GradedLinearMap(copy, copy, xi.blocks))
        if result.ok:
            table = result.morphism._theta._powers.values()
            assert all(type(c) is Q for terms in table for c in terms.values())
    return result


def _all_fractions(values) -> bool:
    return all(type(c) is Q for c in values)


def test_int_coefficients_agree_with_a_pure_fraction_run(monkeypatch):
    rng = random.Random(2409)
    counts = dict.fromkeys(
        ("ok", "corrected", "obstructed", "fractional_d", "int_entries", "fraction_entries"), 0
    )
    for n in range(12):
        m, weight = _random_model(rng, f"rnd{n}")
        counts["fractional_d"] += any(
            c.denominator != 1 for g in m.generators for _, c in m.differential(g).terms()
        )
        for k in sorted({g.degree for g in m.generators}):
            for row in cohomology(m, k).linear_parts().values():
                assert _all_fractions(row.values())
        for xi in _random_maps(rng, m, weight):
            result = try_lift(xi)
            ref = _fraction_lift(xi, monkeypatch)
            assert result.ok == ref.ok
            assert _all_fractions(c for block in xi.blocks.values() for row in block for c in row)
            if result.ok:
                counts["ok"] += 1
                theta = result.morphism
                assert theta.images == ref.morphism.images
                for img in theta.images.values():
                    assert _all_fractions(c for _, c in img.terms())
                    counts["corrected"] += any(mono.word_length > 1 for mono in img.monomials())
                induced = induced_on_indecomposables(theta)
                assert induced == xi
                assert _all_fractions(c for b in induced.blocks.values() for row in b for c in row)
                for terms in theta._theta._powers.values():
                    for c in terms.values():
                        counts["int_entries" if type(c) is int else "fraction_entries"] += 1
            else:
                counts["obstructed"] += 1
                ob, ref_ob = result.obstruction, ref.obstruction
                assert (ob.degree, ob.generator, ob.message) == (
                    ref_ob.degree, ref_ob.generator, ref_ob.message
                )
                cls = ob.failure_class
                assert cls.coords == ref_ob.failure_class.coords
                assert _all_fractions(cls.coords.values())
                h = cls.basis
                assert _all_fractions(c for row in h.linear_parts().values() for c in row.values())
                for rep in h.representatives():
                    assert _all_fractions(c for _, c in rep.terms())
    # both verdicts, stage corrections, non-integral differentials, and both
    # kinds of packed coefficient in the lift tables
    assert all(counts.values()), counts


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
