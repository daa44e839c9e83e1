import random
from datetime import timedelta
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohaut.model as model_module
from cohaut.algebra import (
    AlgebraError,
    Generator,
    Monomial,
    Polynomial,
    _mul_poly,
    basis,
)
from cohaut.coherence import GradedLinearMap, invert_coherent, try_lift
from cohaut.cohomology import coboundary_matrix
from cohaut.corpus import BUILTIN_LABELS, load_builtin
from cohaut.model import (
    CochainMorphism,
    ModelError,
    MorphismError,
    SullivanModel,
    _ImagePowers,
    compose,
    extend_tower,
    identity,
)

P = Polynomial


def mono(*factors):
    return Monomial(tuple(factors))


def _even_active_model():
    """x:2, a:3, b:4, c:5 with d b = x a and d c = x^3: b is an even generator
    with d(b) != 0, so d(b c) needs the sign of the whole word b c."""
    x, a, b, c = (Generator(name, deg) for name, deg in (("x", 2), ("a", 3), ("b", 4), ("c", 5)))
    diff = {"b": P.monomial(mono((x, 1), (a, 1))), "c": P.monomial(mono((x, 3)))}
    return SullivanModel([x, a, b, c], diff, label="even-active")


# --- validation -----------------------------------------------------------------


def test_example_31_model_validates(V):
    report = V.validate()
    assert report.ok
    assert [c.ok for c in report.checks] == [True, True, True, True]


def test_degree_check_fails_for_wrong_degree_image():
    x1 = Generator("x1", 10)
    y1 = Generator("y1", 41)
    m = SullivanModel([x1, y1], {"y1": P.generator(x1)}, label="bad-degree")
    report = m.validate()
    assert not report.ok
    failed = [c.name for c in report.checks if not c.ok]
    assert "differential raises degree by 1" in failed


def test_minimality_check_fails_for_linear_differential():
    x = Generator("x", 10)
    y = Generator("y", 9)
    m = SullivanModel([x, y], {"y": P.generator(x)}, label="non-minimal")
    report = m.validate()
    failed = [c.name for c in report.checks if not c.ok]
    assert "minimality (differential decomposable)" in failed


def _not_closed():
    x = Generator("x", 2)
    y = Generator("y", 3)
    w = Generator("w", 4)
    # d(y) = x^2, d(w) = x y: then d(d(w)) = x * x^2 != 0
    return SullivanModel(
        [x, y, w],
        {"y": P.monomial(mono((x, 2))), "w": P.monomial(mono((x, 1), (y, 1)))},
        label="not-closed",
    )


def test_d_squared_check_fails_when_violated():
    report = _not_closed().validate()
    failed = [c.name for c in report.checks if not c.ok]
    assert "d ∘ d = 0 on generators" in failed


def test_d_squared_check_expands_each_differential_once(monkeypatch):
    # the failure message reuses the d(d(w)) that failed the test
    m = _not_closed()
    calls = []
    d = SullivanModel.d

    def spy(self, p):
        calls.append(p)
        return d(self, p)

    monkeypatch.setattr(SullivanModel, "d", spy)
    check = next(c for c in m.validate().checks if c.name == "d ∘ d = 0 on generators")
    assert not check.ok and check.detail == "d(d(w)) = x^3"
    assert calls == [m.differential("y"), m.differential("w")]


def test_u1_as_written_validates_with_vanished_term_warning(U1):
    report = U1.validate()
    assert report.ok
    assert any("x3^40" in w and "zero" in w for w in report.warnings)


# --- the differential ------------------------------------------------------------


def test_differential_of_y1_is_the_paper_value(V):
    x1, x2 = V.generator("x1"), V.generator("x2")
    assert V.d(P.generator(V.generator("y1"))) == P.monomial(mono((x1, 3), (x2, 1)))


def test_differential_of_x1_power_vanishes(V):
    x1 = V.generator("x1")
    assert V.d(P.monomial(mono((x1, 12)))).is_zero()


def test_differential_leibniz_on_y1y2(V):
    # d(y1 y2) = d(y1) y2 - y1 d(y2) = x1^3 x2 y2 - x1^2 x2^2 y1
    x1, x2 = V.generator("x1"), V.generator("x2")
    y1, y2 = V.generator("y1"), V.generator("y2")
    got = V.d(P.monomial(mono((y1, 1), (y2, 1))))
    expected = P.monomial(mono((x1, 3), (x2, 1), (y2, 1))) - P.monomial(
        mono((x1, 2), (x2, 2), (y1, 1))
    )
    assert got == expected


def test_differential_is_a_derivation(V, W):
    rng = random.Random(23)
    for m in (V, W, _even_active_model()):
        degrees = [d for d in range(2, 100) if m.basis(d)]
        for _ in range(40):
            da, db = rng.choice(degrees), rng.choice(degrees)
            a = P.monomial(rng.choice(m.basis(da)), rng.choice([1, -1, Q(1, 2)]))
            b = P.monomial(rng.choice(m.basis(db)), rng.choice([1, 2, -3]))
            sign = -1 if da % 2 else 1
            assert m.d(a * b) == m.d(a) * b + sign * (a * m.d(b))


def test_d_squared_vanishes_on_basis_spans(V, W, U1):
    even = _even_active_model()
    for m, degrees in ((V, (52, 119, 120)), (W, (119, 120)), (U1, (120,)), (even, range(30))):
        for d in degrees:
            for monomial in m.basis(d):
                assert m.d(m.d(P.monomial(monomial))).is_zero()


@st.composite
def _two_layer_models(draw):
    """Closed generators of random degrees (so random parities), and active
    generators of random parity whose differentials are random decomposable
    polynomials in the closed ones: d∘d = 0 holds by construction."""
    closed_degs = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
    closed = [Generator(f"c{i}", deg) for i, deg in enumerate(closed_degs)]
    decomposable = [
        mo for deg in range(4, 13) for mo in basis(closed, deg) if sum(e for _, e in mo.factors) >= 2
    ]
    active, diff = [], {}
    for i in range(draw(st.integers(1, 3))):
        odd = draw(st.booleans())  # parity of the active generator
        pool = [mo for mo in decomposable if mo.degree % 2 != odd]
        if not pool:
            continue
        lead = draw(st.sampled_from(pool))
        poly = P.monomial(lead)
        same = [mo for mo in pool if mo.degree == lead.degree]
        for mo, c in zip(draw(st.lists(st.sampled_from(same), max_size=2)), (-1, Q(1, 2))):
            poly = poly + P.monomial(mo, c)
        g = Generator(f"v{i}", lead.degree - 1)
        active.append(g)
        diff[g.name] = poly
    return SullivanModel(closed + active, diff, label="two-layer")


_PICK = st.tuples(*[st.integers(0, 10**6)] * 4)


@settings(derandomize=True, deadline=timedelta(seconds=2), max_examples=100)
@given(m=_two_layer_models(), picks=st.lists(_PICK, min_size=1, max_size=4), k=st.integers(0, 12))
@example(m=_even_active_model(), picks=[], k=9)  # d(b c) and d∘d in degree 9
def test_leibniz_and_d_squared_on_random_two_layer_models(m, picks, k):
    assert m.validate().ok
    # every product of two generators, then random products of basis monomials
    pairs = [(P.generator(g), P.generator(h)) for g in m.generators for h in m.generators]
    for da, ia, db, ib in picks:
        pool_a, pool_b = m.basis(da % 15), m.basis(db % 15)
        if pool_a and pool_b:
            a = P.monomial(pool_a[ia % len(pool_a)], [1, -1, 2, Q(1, 2)][ia % 4])
            pairs.append((a, P.monomial(pool_b[ib % len(pool_b)])))
    for a, b in pairs:
        sign = -1 if a.homogeneous_degree() % 2 else 1
        assert m.d(a * b) == m.d(a) * b + sign * (a * m.d(b)), (a, b)
        assert m.d(m.d(a * b)).is_zero(), (a, b)
    upper, lower = coboundary_matrix(m, k + 1), coboundary_matrix(m, k)
    for row in upper:
        for j in range(len(lower[0]) if lower else 0):
            assert sum(r * lower[i][j] for i, r in enumerate(row)) == 0, (k, j)


def test_generators_outside_the_model_are_rejected(V, W):
    x0 = W.generator("x0")
    with pytest.raises(ModelError, match="x0"):
        V.d(P.generator(x0))
    # same name as a V-ex31 generator, other degree
    with pytest.raises(ModelError, match="x1"):
        V.d(P.generator(Generator("x1", 4)))
    f = identity(V)
    with pytest.raises(MorphismError, match="x0"):
        f.apply(P.generator(x0) * P.generator(V.generator("x1")))
    images = {g.name: P.generator(g) for g in V.generators}
    images["x1"] = P.generator(Generator("q", 10))
    with pytest.raises(MorphismError, match="q"):
        CochainMorphism(V, V, images)


def test_apply_differential_requires_homogeneous(V):
    x1, y1 = V.generator("x1"), V.generator("y1")
    with pytest.raises(ModelError):
        V.d(P.generator(x1) + P.generator(y1))


# --- truncation -----------------------------------------------------------------


def test_truncate_to_40_keeps_only_the_x_generators(V):
    t = V.truncate(40)
    assert [g.name for g in t.generators] == ["x1", "x2"]
    assert t.differential("x1").is_zero() and t.differential("x2").is_zero()


def test_truncate_to_1_is_the_empty_model(V):
    t = V.truncate(1)
    assert t.generators == ()
    assert tuple(t.basis(0)) == (Monomial(()),)


def test_truncate_above_top_degree_is_identity(V):
    assert V.truncate(119) == V
    assert V.truncate(500) == V


def test_truncations_validate(V, W):
    for m in (V, W):
        for n in range(0, m.top_degree + 2):
            assert m.truncate(n).validate().ok


def test_a_model_builds_each_truncation_once():
    m = load_builtin("V-ex31")  # generator degrees 10, 12, 41, 43, 45, 119
    assert m.truncate(40) is m.truncate(40)
    assert m.truncate(119) is m and m.truncate(500) is m
    assert max(m._truncations, default=0) < len(m.generators)
    # two cutoffs that keep the same generators give one cut, labelled by the
    # cutoff just below the first dropped generator
    a, b = m.truncate(13), m.truncate(40)
    assert a is b and a.label == f"{m.label}<=40"


def test_every_cutoff_keeps_its_generators_in_one_cut_per_generator_set(monkeypatch):
    fresh = [load_builtin(label).relabel(label) for label in BUILTIN_LABELS]  # no cut yet
    built = []
    init = SullivanModel.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SullivanModel, "__init__", spy)
    cuts = {}
    for m in fresh:
        for n in range(m.top_degree):
            t = m.truncate(n)
            assert t.generators == tuple(g for g in m.generators if g.degree <= n)
            assert all(t.differential(g) == m.differential(g) for g in t.generators)
            assert t.label == f"{m.label}<={m.generators[len(t.generators)].degree - 1}"
            cuts[id(t)] = t
    assert len(built) == len(cuts) == 162


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_the_leibniz_table_holds_each_differential_and_its_letters(label):
    m = load_builtin(label)
    gamma_cuts = {m.truncate(g.degree - 1) for g in m.generators}  # Γ^{n+1} reads ΛV^{<=n-1}
    for model in (m, *gamma_cuts):
        view = model._packed
        active = [i for i, g in enumerate(model.generators) if model.differential(g)]
        for bound in (128, 256):
            pk = view.packing(bound)
            table = view.table(pk)
            assert pk.dmax == bound and sorted(table) == active
            fields = set(zip(pk.shifts, pk.masks))
            for i, (shift, mask, above, terms) in table.items():
                dg = view.pack_poly(pk, model.differential(model.generators[i]))
                assert (shift, mask) == (pk.shifts[i], pk.masks[i])
                assert view.d(pk, 1 << shift) == dg == {t: c for t, _, c, _ in terms}
                for t, kt, _, letters in terms:
                    assert {(s, mk) for s, mk, _ in letters} <= fields
                    assert sum(e << s for s, _, e in letters) == t and kt == pk.koszul(t)


# --- extend_tower ----------------------------------------------------------------


def test_extend_v_by_degree_2_exponent_60_gives_w(V, W):
    built = extend_tower(V, "z", 2, 60, name="x0", label="W-ex32")
    assert built == W
    assert [g.name for g in built.generators][0] == "x0"


def test_extend_w_by_3_40_vanishes_with_warning(W, U1):
    built = extend_tower(W, "z", 3, 40, name="x3", label="U1")
    assert built == U1
    assert any("normalized to zero" in w for w in built.warnings)
    # the stored differential does not contain any x3 term
    dz = built.differential("z")
    assert all(
        all(g.name != "x3" for g, _ in monomial.factors) for monomial in dz.monomials()
    )


def test_extend_w_by_4_30_keeps_the_term(W):
    built = extend_tower(W, "z", 4, 30, name="x4")
    dz = built.differential("z")
    x4 = built.generator("x4")
    assert dz.coefficient(mono((x4, 30))) == 1
    assert built.validate().ok


def test_extend_rejects_degree_mismatch(W):
    with pytest.raises(ModelError):
        extend_tower(W, "z", 5, 20)  # 100 != 120


def test_extend_default_name_avoids_collisions(V):
    built = extend_tower(V, "z", 2, 60)  # "x2" is taken by the degree-12 generator
    new = [g for g in built.generators if g.degree == 2]
    assert len(new) == 1 and new[0].name not in {"x1", "x2"}


# --- morphisms -------------------------------------------------------------------


def test_identity_composition(V):
    f = identity(V)
    assert compose(f, f) == f


def test_compose_requires_matching_models(V, W):
    with pytest.raises(MorphismError):
        compose(identity(V), identity(W))


def test_morphism_invariants_checked_on_construction(V):
    # swapping x1 and x2 is degree-broken; scaling x1 alone breaks d(y1) = x1^3 x2
    images = {g.name: P.generator(g) for g in V.generators}
    images["x1"] = 2 * images["x1"]
    with pytest.raises(MorphismError):
        CochainMorphism(V, V, images)


def test_morphism_degree_check(V):
    images = {g.name: P.generator(g) for g in V.generators}
    images["x1"] = P.generator(V.generator("x2"))
    with pytest.raises(MorphismError):
        CochainMorphism(V, V, images)


def test_sign_automorphism_squares_to_identity(V):
    entries = {"x1": 1, "x2": -1, "y1": -1, "y2": 1, "y3": -1, "z": 1}
    images = {
        g.name: P.generator(g, entries[g.name]) for g in V.generators
    }
    f = CochainMorphism(V, V, images)
    assert compose(f, f) == identity(V)


def test_morphisms_are_multiplicative(V, W):
    rng = random.Random(31)
    signs = {"x0": -1, "x2": -1, "y1": -1, "y3": -1}
    for m in (V, W):
        sign_aut = CochainMorphism(
            m, m, {g.name: P.generator(g, signs.get(g.name, 1)) for g in m.generators}
        )
        degrees = [d for d in range(2, 100) if m.basis(d)]
        for f in (identity(m), sign_aut):
            for _ in range(40):
                a = P.monomial(rng.choice(m.basis(rng.choice(degrees))), rng.choice([1, -2]))
                b = P.monomial(rng.choice(m.basis(rng.choice(degrees))), Q(1, 3))
                assert f.apply(a * b) == f.apply(a) * f.apply(b)


def test_restrict_gives_stage_morphism(V):
    f = identity(V)
    g = f.restrict(45)
    assert g.source == V.truncate(45)
    assert set(g.images) == {"x1", "x2", "y1", "y2", "y3"}


def test_morphism_check_catches_an_image_off_by_a_non_cocycle(V):
    # y1 x1^3 x2^4 has degree 119 but d(y1 x1^3 x2^4) = x1^6 x2^5 != 0, so
    # d(θ z) picks up that term while θ(d z) = d z does not
    x1, x2, y1 = V.generator("x1"), V.generator("x2"), V.generator("y1")
    off = P.monomial(mono((x1, 3), (x2, 4), (y1, 1)))
    assert V.d(off)
    images = {g.name: P.generator(g) for g in V.generators}
    images["z"] = images["z"] + off
    with pytest.raises(MorphismError, match=r"d\(f\(z\)\) != f\(d\(z\)\)"):
        CochainMorphism(V, V, images)


# --- evaluation from the table of image powers ---------------------------------------


def _extend_reference(images, p):
    """θ(p) by successive multiplication with the public product, image by
    image and letter by letter: the evaluation the table of image powers
    replaced, kept as its oracle (the product itself is checked against a
    brute-force Koszul product in test_algebra.py)."""
    acc = P.zero()
    for mono_, coeff in p.terms():
        term = P.unit()
        for g, e in mono_.factors:
            for _ in range(e):
                term = term * images[g.name]
        acc = acc + coeff * term
    return acc


_COEFFS = (1, -1, 2, Q(1, 2), Q(-3, 4))


def _odd_letter_model():
    """a:3, b:5, x:8 with no differential: x -> 2ab is a one-term image with
    odd letters, so θ(x^e) = 0 for e >= 2, and x -> x + ab a multi-term one."""
    a, b, x = Generator("a", 3), Generator("b", 5), Generator("x", 8)
    return SullivanModel([a, b, x], {}, label="odd-letters")


def _polys(m, draws):
    """Polynomials from (degree, index, coefficient index) draws: sums of up to
    three basis monomials of one degree <= 16; then x^e for each even
    generator x, with e as high as degree 24 allows, times each generator."""
    tops = [P.monomial(mono((g, 24 // g.degree))) for g in m.generators if g.degree % 2 == 0]
    out = tops + [t * P.generator(g) for t in tops for g in m.generators]
    for terms in draws:
        pool = m.basis(terms[0][0] % 17)
        if pool:
            picked = (P.monomial(pool[i % len(pool)], _COEFFS[c]) for _, i, c in terms)
            out.append(sum(picked, P.zero()))
    return out


_TERM_DRAW = st.tuples(st.integers(0, 16), st.integers(0, 10**6), st.integers(0, 4))
_POLY_DRAWS = st.lists(st.lists(_TERM_DRAW, min_size=1, max_size=3), min_size=1, max_size=6)


@st.composite
def _algebra_maps(draw):
    """A random two-layer model m and images for an algebra map m -> m: each
    image is c·x plus up to three basis monomials of its generator's degree,
    with rational coefficients, so images are zero, one-term or multi-term."""
    m = draw(_two_layer_models())
    images = {}
    for g in m.generators:
        pool = m.basis(g.degree)
        term = st.tuples(st.sampled_from(pool), st.sampled_from(_COEFFS))
        picks = draw(st.lists(term, max_size=3))
        linear = P.generator(g, draw(st.sampled_from((0,) + _COEFFS)))
        images[g.name] = sum((P.monomial(mo, c) for mo, c in picks), linear)
    return m, images


_ODD = _odd_letter_model()
_A, _B, _X = _ODD.generators
_AB = P.monomial(mono((_A, 1), (_B, 1)))


@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=80)
@given(mi=_algebra_maps(), draws=_POLY_DRAWS)
@example(
    mi=(_ODD, {"a": P.generator(_A), "b": P.generator(_B), "x": 2 * _AB}),
    draws=[[(8, 0, 0)], [(16, 0, 3)], [(11, 0, 0), (11, 1, 1)], [(16, 1, 1)]],
)
@example(
    mi=(_ODD, {"a": P.generator(_A), "b": P.generator(_B), "x": P.generator(_X) - Q(1, 3) * _AB}),
    draws=[[(16, 0, 0)], [(11, 0, 4)]],
)
def test_image_powers_agree_with_successive_multiplication(mi, draws):
    m, images = mi
    polys = _polys(m, draws)
    # the whole table, as a morphism uses it
    theta = _ImagePowers(m, m, images)
    for p in polys:
        assert theta(p) == _extend_reference(images, p), p
    # a partial table that grows generator by generator, as a lift uses it
    partial = {}
    staged = _ImagePowers(m, m, partial)
    for g in m.generators:
        partial[g.name] = images[g.name]
        for p in polys:
            if all(f.name in partial for mo in p.monomials() for f, _ in mo.factors):
                assert staged(p) == _extend_reference(partial, p), (g, p)


@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=60)
@given(
    m=_two_layer_models(),
    scalars=st.lists(st.sampled_from((1, -1, 2, Q(1, 2))), min_size=20, max_size=20),
    draws=_POLY_DRAWS,
)
def test_lifted_morphisms_compose_and_invert_like_the_reference(m, scalars, draws):
    degrees = sorted({g.degree for g in m.generators})
    blocks = {}
    for d, s in zip(degrees, scalars):
        n = len(m.gens_of_degree(d))
        blocks[d] = [[s if i == j else 0 for j in range(n)] for i in range(n)]
    xi = GradedLinearMap(m, m, blocks)
    lift = try_lift(xi)
    if not lift.ok:
        return
    theta = lift.morphism
    for p in _polys(m, draws):
        assert theta.apply(p) == _extend_reference(theta.images, p), p
    inv_xi, inv = invert_coherent(xi, theta)
    for f, g in ((theta, inv), (inv, theta), (theta, theta)):
        fg = compose(f, g)
        for name, img in g.images.items():
            assert fg.images[name] == _extend_reference(f.images, img)
    assert compose(theta, inv) == identity(m)
    assert compose(inv, theta) == identity(m)


def test_a_u8_lift_fills_each_power_once(monkeypatch):
    """Every (generator, exponent) entry of a table is written at most once,
    over all stages of a lift and the morphism check that ends it."""

    class WriteOnce(dict):
        def __setitem__(self, key, value):
            assert key not in self, f"table entry {key} computed twice"
            super().__setitem__(key, value)

    tables = []
    init = _ImagePowers.__init__

    def spy_init(self, *args):
        init(self, *args)
        self._powers = WriteOnce()
        tables.append(self._powers)

    monkeypatch.setattr(_ImagePowers, "__init__", spy_init)
    u8 = load_builtin("U8")
    signs = {g.degree: (-1 if g.degree in (2, 12, 41, 45) else 1) for g in u8.generators}
    assert try_lift(GradedLinearMap.diagonal(u8, signs)).ok
    assert len(tables) == 1  # the lift's table, which the morphism keeps
    # d(z) holds x0^60, x4^30, x1^12 ...: the high powers come from the table
    assert max(e for table in tables for _, e in table) >= 60


def test_tables_above_degree_128_never_widen_while_filled(monkeypatch):
    """x:2, z:129 with d z = x^65: the last θ(d z) has degree 130, above the
    narrowest packing, so a table opened too narrow would widen mid-lift."""
    widened = []
    packing = _ImagePowers.packing

    def spy_packing(self, degree):
        before = self._pk
        pk = packing(self, degree)
        if pk is not before:
            widened.append(degree)
        return pk

    monkeypatch.setattr(_ImagePowers, "packing", spy_packing)
    x, z = Generator("x", 2), Generator("z", 129)
    m = SullivanModel([x, z], {"z": P.monomial(mono((x, 65)))}, label="x65")
    s = Q(2)
    xi = GradedLinearMap.diagonal(m, {2: s, 129: s**65})
    lift = try_lift(xi)
    assert lift.ok
    theta = lift.morphism
    assert theta.images == {"x": P.generator(x, s), "z": P.generator(z, s**65)}
    inv_xi, inv = invert_coherent(xi, theta)
    assert inv.images == {"x": P.generator(x, 1 / s), "z": P.generator(z, 1 / s**65)}
    assert compose(theta, inv) == identity(m)
    assert compose(inv, theta) == identity(m)
    assert widened == []


def test_a_power_is_multiplied_out_once_per_table(monkeypatch):
    x, w = Generator("x", 2), Generator("w", 4)
    m = SullivanModel([x, w], {}, label="free2")
    images = {"x": P.generator(x), "w": P.generator(w) + P.monomial(mono((x, 2)), Q(1, 2))}
    theta = CochainMorphism(m, m, images)
    calls = []

    def spy(pk, a, b):
        calls.append(1)
        return _mul_poly(pk, a, b)

    monkeypatch.setattr(model_module, "_mul_poly", spy)
    w10 = P.monomial(mono((w, 10)))
    first = theta.apply(w10)
    assert len(calls) == 9  # (w, 2) .. (w, 10), each from the entry below it
    assert theta.apply(w10) == first and len(calls) == 9
    assert first == _extend_reference(theta.images, w10)


# --- canonical monomials ---------------------------------------------------------------


def test_unsorted_monomial_cannot_enter_a_differential():
    """x:2, a:3, w:5, b:8, c:9 with d a = x^2, d b = x^2 w and d c = b x - a w x:
    written with the unsorted word b*x, d(c) used to be stored as given and
    failed d∘d = 0; now the word is refused, and the sorted model validates."""
    x, a, w, b, c = (Generator(n, d) for n, d in (("x", 2), ("a", 3), ("w", 5), ("b", 8), ("c", 9)))
    with pytest.raises(AlgebraError, match="canonical order"):
        P.monomial(Monomial(((b, 1), (x, 1)))) - P.monomial(Monomial(((a, 1), (w, 1), (x, 1))))
    diff = {
        "a": P.monomial(mono((x, 2))),
        "b": P.monomial(mono((x, 2), (w, 1))),
        "c": P.monomial(mono((x, 1), (b, 1))) - P.monomial(mono((x, 1), (a, 1), (w, 1))),
    }
    assert SullivanModel([x, a, w, b, c], diff, label="sorted").validate().ok


def test_validation_report_is_kept_on_the_model(V):
    assert V.validate() is V.validate()
