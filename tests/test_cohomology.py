import functools
import gc
import importlib
import weakref
from datetime import timedelta
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohaut.algebra as algebra_module
from cohaut import linalg
from cohaut.algebra import Generator, Monomial, Polynomial, poincare_series
from cohaut.cohomology import (
    NotACocycle,
    class_of,
    coboundary_matrix,
    cohomology,
    complex_for,
    image_rank,
    induced_map,
    residues_independent,
    solve_coboundary,
)
from cohaut.corpus import BUILTIN_LABELS, load_builtin
from cohaut.model import CochainMorphism, ModelError, SullivanModel, identity
from conftest import packed_basis
from test_model import _even_active_model

P = Polynomial
cohomology_module = importlib.import_module("cohaut.cohomology")


def mono(*factors):
    return Monomial(tuple(factors))


def span_dimension(basis, polys):
    vectors = [basis.class_of(p).vector() for p in polys]
    return linalg.rank(vectors)


# --- coboundary matrices -----------------------------------------------------------


def test_coboundary_empty_domain(V):
    t = V.truncate(40)
    m = coboundary_matrix(t, 41)  # basis(41) is empty over x1, x2
    assert len(m) == len(t.basis(42)) == 1
    assert m[0] == []


def test_coboundary_degree_zero(V):
    m = coboundary_matrix(V, 0)
    assert len(m) == len(V.basis(1)) == 0  # no degree-1 monomials: 0 x 1 shape
    # the unit is closed: solve d(u) = 0 trivially
    assert V.d(P.unit()).is_zero()


def test_coboundary_column_of_y1(V):
    mat = coboundary_matrix(V, 41)
    b41 = V.basis(41)
    b42 = V.basis(42)
    j = b41.index(mono((V.generator("y1"), 1)))
    col = [mat[i][j] for i in range(len(b42))]
    expected = V.coordinates(V.d(P.generator(V.generator("y1"))), 42)
    assert col == expected


# --- cohomology bases ---------------------------------------------------------------


def test_h42_of_truncation_is_spanned_by_x1_cubed_x2(V):
    h = cohomology(V.truncate(40), 42)
    assert h.dimension == 1
    assert str(h.representative(0)) == "x1^3*x2"


def test_h120_of_truncated_v_has_dimension_3_with_paper_span(V):
    x1, x2 = V.generator("x1"), V.generator("x2")
    y1, y2, y3 = V.generator("y1"), V.generator("y2"), V.generator("y3")
    h = cohomology(V.truncate(118), 120)
    assert h.dimension == 3
    combo = (
        P.monomial(mono((x2, 3), (y1, 1), (y2, 1)))
        - P.monomial(mono((x1, 1), (x2, 2), (y1, 1), (y3, 1)))
        + P.monomial(mono((x1, 2), (x2, 1), (y2, 1), (y3, 1)))
    )
    paper = [combo, P.monomial(mono((x1, 12))), P.monomial(mono((x2, 10)))]
    assert span_dimension(h, paper) == 3


def test_h120_of_truncated_w_dimension_and_displayed_span(W):
    # Computed dimension is 29 (verified independently below); the paper's
    # "Im b^120" display is a 4-dimensional subspace, not all of H^120.
    h = cohomology(W.truncate(118), 120)
    assert h.dimension == 29
    x0 = W.generator("x0")
    x1, x2 = W.generator("x1"), W.generator("x2")
    y1, y2, y3 = W.generator("y1"), W.generator("y2"), W.generator("y3")
    combo = (
        P.monomial(mono((x2, 3), (y1, 1), (y2, 1)))
        - P.monomial(mono((x1, 1), (x2, 2), (y1, 1), (y3, 1)))
        + P.monomial(mono((x1, 2), (x2, 1), (y2, 1), (y3, 1)))
    )
    displayed = [
        combo,
        P.monomial(mono((x1, 12))),
        P.monomial(mono((x2, 10))),
        P.monomial(mono((x0, 60))),
    ]
    assert span_dimension(h, displayed) == 4


def test_h120_of_truncated_w_against_dense_oracle(W):
    # independent dense-rank computation over the full monomial bases
    t = W.truncate(118)
    d120 = coboundary_matrix(t, 120)
    d119 = coboundary_matrix(t, 119)
    n120 = len(t.basis(120))
    dim = n120 - linalg.rank(d120) - linalg.rank(d119)
    assert dim == cohomology(t, 120).dimension == 29


def test_dimension_identity_on_truncations(V):
    for t, k in ((V.truncate(40), 42), (V.truncate(118), 120), (V, 52)):
        h = cohomology(t, k)
        dk = coboundary_matrix(t, k)
        dk1 = coboundary_matrix(t, k - 1)
        n = len(t.basis(k))
        assert h.dimension == n - linalg.rank(dk) - linalg.rank(dk1)
        assert image_rank(t, k) == linalg.rank(dk1)


def _even_free_model():
    # core x, w, y with d y = x*w; f (odd), a and b (even) are free, and
    # (ΛF)^48 is spanned by a^3 and b^2, so the Künneth sum has weights > 1
    x, w, y = Generator("x", 4), Generator("w", 6), Generator("y", 9)
    free = [Generator("f", 5), Generator("a", 16), Generator("b", 24)]
    return SullivanModel([x, w, y, *free], {"y": P.monomial(mono((x, 1), (w, 1)))})


def _odd_closed_model():
    # the closed odd generator w comes after the active odd a, so a column of
    # a monomial with both letters carries a Koszul sign; b is even and active
    x, a, w, b = (Generator(name, deg) for name, deg in (("x", 2), ("a", 3), ("w", 5), ("b", 8)))
    diff = {"a": P.monomial(mono((x, 2))), "b": P.monomial(mono((x, 2), (w, 1)))}
    return SullivanModel([x, a, w, b], diff, label="odd-closed")


def _rank_model(label):
    if "<=" in label:  # a cut, as the WES reads Γ from: "W-ex32<=118" is ΛW^{<=118}
        name, cut = label.split("<=")
        return load_builtin(name).truncate(int(cut))
    if label == "zero-d":
        return SullivanModel([Generator("a", 2), Generator("b", 3), Generator("c", 4)], {})
    if label == "even-free":
        return _even_free_model()
    if label == "even-active":
        return _even_active_model()
    if label == "odd-closed":
        return _odd_closed_model()
    return load_builtin(label)


RANK_MODELS = ["V-ex31", "W-ex32", "E3", "zero-d", "even-free", "even-active", "odd-closed"]


@pytest.mark.parametrize("label", RANK_MODELS)
def test_coboundary_rank_matches_dense_oracle(label):
    m = _rank_model(label)
    dense = [linalg.rank(coboundary_matrix(m, k)) for k in range(122)]
    cx = cohomology_module._Complex(m)
    assert [cx.rank(k) for k in range(122)] == dense
    assert cx.rank(-1) == 0
    assert any(dense) == (label != "zero-d")


def test_the_hand_model_splits_with_free_weights_above_one():
    cx = cohomology_module._Complex(_even_free_model())
    assert [g.name for g in cx.core.model.generators] == ["x", "w", "y"]
    assert poincare_series((5, 16, 24), 48)[48] == 2


@pytest.mark.parametrize("label", ["U1", "U2", "U3", "U4"])
def test_kunneth_ranks_match_the_block_ranks_of_the_whole_model(label):
    # the U tower has free generators, so its ranks come from the core's; the
    # block ranks of ΛV's own columns are checked against dense matrices above
    cx = cohomology_module._Complex(load_builtin(label))
    assert cx.core is not None
    for k in range(122):
        assert cx.rank(k) == cohomology_module._coboundary_rank(cx.columns(k)), k


def test_split_ranks_enumerate_no_basis_and_share_the_core(monkeypatch):
    monkeypatch.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(32))
    cx = complex_for(load_builtin("U3"))
    core = cx.core
    enumerated: list[tuple[int, ...]] = []  # the degrees of every enumeration
    built: list[object] = []  # the complex of every columns call
    enumerate_, columns = cohomology_module._enumerate, cohomology_module._Complex.columns

    def spy_enumerate(degs, degree, shifts):
        enumerated.append(degs)
        return enumerate_(degs, degree, shifts)

    def spy_columns(self, degree, pk=None):
        built.append(self)
        return columns(self, degree, pk)

    monkeypatch.setattr(cohomology_module, "_enumerate", spy_enumerate)
    monkeypatch.setattr(cohomology_module._Complex, "columns", spy_columns)
    for k in range(122):
        cx.rank(k)
    # no basis of ΛV or of the core is enumerated: only closed monomials and
    # active words, whose generators are a proper part of the core's
    assert enumerated and cx.view.degs not in enumerated and core.view.degs not in enumerated
    assert built and all(c is core for c in built)  # U3 builds no column of its own
    assert core._templates  # the core's columns come from templates
    assert core is complex_for(load_builtin("E3"))
    assert complex_for(load_builtin("E3")).core is None


def test_an_evicted_complex_is_freed_without_a_collection(monkeypatch):
    # a window holds no reference to its complex, so no cycle keeps an
    # evicted complex alive until the garbage collector runs
    monkeypatch.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(1))
    enabled = gc.isenabled()
    gc.disable()
    try:
        cx = complex_for(load_builtin("V-ex31"))
        ref = weakref.ref(cx)
        window = cx.window(22)
        assert window.dimension == 1  # the class of x1·x2
        del cx, window
        complex_for(load_builtin("W-ex32"))  # evicts V-ex31's complex
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _leibniz_columns(cx, k):
    """columns(k) from one Leibniz expansion of each whole basis monomial
    P + A, not from the templates of the active words A."""
    pk = cx.view.packing(k + 1)
    out = {}
    for mono_ in packed_basis(cx, k):
        image = cx.view.d(pk, mono_)
        if image:
            out[mono_] = image
    return out


@pytest.mark.parametrize(
    "label", ["V-ex31", "W-ex32", "E3", "E7", "U3", "U8", "even-active", "odd-closed"]
)
def test_template_columns_equal_the_leibniz_columns(label):
    # entry for entry, with signs; U3 and U8 have odd closed generators
    cx = cohomology_module._Complex(_rank_model(label))
    for k in range(122):
        assert {c: dict(col) for c, col in cx.columns(k).items()} == _leibniz_columns(cx, k), k


def test_packed_fields_are_as_wide_as_the_degree_needs():
    # x^300 needs more than 8 bits; the window at 128 uses the packing of
    # bound 256 and reads columns(127) in it, while rank(127) uses bound 128
    m = _odd_closed_model()
    cx = cohomology_module._Complex(m)
    pk = cx.view.packing(601)
    x, _, w, _ = m.generators
    x300w = mono((x, 300), (w, 1))
    assert pk.monomial(pk.packed(x300w)) == x300w
    assert pk.packed(x300w) == 300 << pk.shifts[0] | 1 << pk.shifts[2]
    for k in (126, 127, 128, 129, 599, 600, 601):
        assert cx.rank(k) == linalg.rank(coboundary_matrix(m, k)), k
        assert {c: dict(col) for c, col in cx.columns(k).items()} == _leibniz_columns(cx, k), k
        dim = cx.basis_size(k) - cx.rank(k - 1) - cx.rank(k)
        assert dim == cohomology_module._Window.build(cx, k).dimension, k


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_basis_size_counts_the_enumerated_basis(label):
    cx = cohomology_module._Complex(load_builtin(label))
    assert [cx.basis_size(k) for k in range(-2, 0)] == [0, 0]
    assert [cx.basis_size(k) for k in range(122)] == [len(packed_basis(cx, k)) for k in range(122)]


# the cuts have free generators, so their ranks take the Künneth path: x0 in
# each, and in E3<=39 also x1 and x2, which only the dropped generators use
@pytest.mark.parametrize("label", RANK_MODELS + ["U3", "W-ex32<=118", "U3<=43", "E3<=39"])
def test_dimension_from_ranks_equals_window_dimension(label):
    cx = cohomology_module._Complex(_rank_model(label))
    assert cx.core is not None or "<=" not in label
    for k in range(122):
        dim = cx.basis_size(k) - cx.rank(k - 1) - cx.rank(k)
        assert dim == cohomology_module._Window.build(cx, k).dimension, k


def test_representatives_are_cocycles_and_independent(W):
    h = cohomology(W.truncate(118), 120)
    reps = h.representatives()
    t = W.truncate(118)
    for r in reps:
        assert t.d(r).is_zero()
    assert span_dimension(h, reps) == h.dimension


def test_memoized_results_are_deterministic(V):
    a = cohomology(V.truncate(118), 120)
    b = cohomology(V.truncate(118), 120)
    assert [str(p) for p in a.representatives()] == [str(p) for p in b.representatives()]


# --- classes ------------------------------------------------------------------------


def test_class_of_differential_of_y1(V):
    t = V.truncate(40)
    cls = class_of(t, 42, V.d(P.generator(V.generator("y1"))))
    assert cls.vector() == [Q(1)]


def test_class_of_zero(V):
    cls = class_of(V.truncate(40), 42, P.zero())
    assert cls.is_zero()


def test_class_of_explicit_coboundary_vanishes(V):
    x1, y1 = V.generator("x1"), V.generator("y1")
    p = P.generator(x1) * V.d(P.generator(y1)) - V.d(P.generator(x1) * P.generator(y1))
    cls = class_of(V, 52, p)
    assert cls.is_zero()
    q = V.d(P.monomial(mono((x1, 2), (y1, 1))))
    assert class_of(V, 62, q).is_zero()


def test_class_of_rejects_non_cocycles(V):
    with pytest.raises(NotACocycle):
        class_of(V, 41, P.generator(V.generator("y1")))
    with pytest.raises(NotACocycle):
        class_of(V, 10, P.generator(V.generator("x2")))  # wrong degree


def test_solve_coboundary_round_trip(V):
    x1, y1 = V.generator("x1"), V.generator("y1")
    rhs = V.d(P.monomial(mono((x1, 2), (y1, 1))))
    u = solve_coboundary(V, 62, rhs)
    assert u is not None and V.d(u) == rhs
    # a nonzero class has no preimage
    assert solve_coboundary(V.truncate(40), 42, V.d(P.generator(y1))) is None


# --- induced maps --------------------------------------------------------------------


def test_induced_map_of_identity(V):
    t = V.truncate(118)
    mat = induced_map(identity(t), 120)
    assert mat == linalg.identity(3)


def test_induced_map_is_multiplication_by_p10_cubed_p12(V):
    # diagonal stage morphism on ΛV^{<=40} with x1 -> 2 x1, x2 -> 3 x2
    t = V.truncate(40)
    f = CochainMorphism(
        t,
        t,
        {
            "x1": P.generator(t.generator("x1"), 2),
            "x2": P.generator(t.generator("x2"), 3),
        },
    )
    mat = induced_map(f, 42)
    assert mat == [[Q(2) ** 3 * Q(3)]]


def test_induced_map_functoriality(V):
    t = V.truncate(45)
    signs = {"x1": 1, "x2": -1, "y1": -1, "y2": 1, "y3": -1}
    f = CochainMorphism(
        t, t, {name: P.generator(t.generator(name), s) for name, s in signs.items()}
    )
    # scaling x1 by 2 forces the y-scalings through d(y_i) = x1^(4-i) x2^i
    scal = {"x1": 2, "x2": 1, "y1": 8, "y2": 4, "y3": 2}
    g = CochainMorphism(
        t, t, {name: P.generator(t.generator(name), s) for name, s in scal.items()}
    )
    for k in (42, 44, 46):
        lhs = induced_map(CochainMorphism(t, t, {n: f.apply(img) for n, img in g.images.items()}), k)
        rhs = linalg.matmul(induced_map(f, k), induced_map(g, k))
        assert lhs == rhs


# --- structural invariants ------------------------------------------------------------


@pytest.mark.parametrize("label", ["V-ex31", "W-ex32", "U1"])
def test_truncation_at_n_plus_1_computes_full_cohomology(label):
    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    for n in sorted({g.degree for g in m.generators}):
        full = cohomology(m, n + 1)
        trunc = cohomology(m.truncate(n + 1), n + 1)
        assert trunc.dimension == full.dimension


def _quotient_rank_oracle(m, k, cutoff):
    """Dense rank of the rows of d: degree k-1 -> k at the monomials having a
    factor of degree > cutoff: the coboundary rank of ΛV / ΛV^{<=cutoff}."""
    rows = [
        row
        for mono, row in zip(m.basis(k), coboundary_matrix(m, k - 1))
        if any(g.degree > cutoff for g, _ in mono.factors)
    ]
    return linalg.rank(rows)


def _pair_cohomology_dim(m, n, k):
    """dim H^k of the pair (ΛV^{<=n+1}; ΛV^{<=n-1}) from the dense oracle."""
    t = m.truncate(n + 1)
    n_k = sum(1 for mono in t.basis(k) if any(g.degree > n - 1 for g, _ in mono.factors))
    return n_k - _quotient_rank_oracle(t, k + 1, n - 1) - _quotient_rank_oracle(t, k, n - 1)


def test_pair_cohomology_matches_generator_counts(V, W):
    for m in (V, W):
        for n in (10, 12, 41, 43):
            gens_n = len(m.gens_of_degree(n))
            gens_n1 = len(m.gens_of_degree(n + 1))
            assert _pair_cohomology_dim(m, n, n) == gens_n
            assert _pair_cohomology_dim(m, n, n + 1) == gens_n1


@pytest.mark.parametrize("label", ["V-ex31", "W-ex32", "E3"])
def test_coboundaries_lie_in_the_filtration_below_n(label):
    # B^{n+1}(ΛV) ⊂ ΛV^{<=n-1}: the WES computes dim ker(i) from this
    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    for n in sorted({g.degree for g in m.generators}):
        assert _quotient_rank_oracle(m, n + 1, n - 1) == 0
    # the oracle does see coboundaries outside a lower filtration level
    assert _quotient_rank_oracle(m, 120, 42) >= 1


def test_residues_independent(V, W):
    z = W.generator("z")
    assert residues_independent(W.truncate(118), 120, W.differential(z).monomials())
    x1, x2 = V.generator("x1"), V.generator("x2")
    y1, y2 = V.generator("y1"), V.generator("y2")
    a = mono((x1, 3), (x2, 1), (y2, 1))
    b = mono((x1, 2), (x2, 2), (y1, 1))
    # a - b = d(y1 y2), so a and b agree modulo coboundaries
    assert V.d(P.monomial(mono((y1, 1), (y2, 1)))) == P.monomial(a) - P.monomial(b)
    assert residues_independent(V, 85, [a]) and residues_independent(V, 85, [b])
    assert not residues_independent(V, 85, [a, b])
    for case in ([a], [b], [a, b], [b, a], [a, a]):
        assert residues_independent(V, 85, case) == _window_residues_independent(V, 85, case)


# --- local block queries against the window and the dense system -------------------


def _window_residues_independent(m, k, monos):
    """residues_independent from the whole degree-k window: each monomial
    reduced by the image rows of its component, then one sparse rank.  An
    exact one-member block reduces to 0; an unclosed one, like an inert
    monomial, is its own residue."""
    cx = complex_for(m)
    win = cx.window(k)
    residues = []
    for mo in monos:
        packed = win.packing.packed(mo)
        cid = win.comp_of_k.get(packed)
        if cid is None:
            residues.append({} if packed in win.exact else {packed: Q(1)})
            continue
        comp = win.components[cid]
        v = [Q(0)] * len(comp.rows_k)
        v[comp.rows_k.index(packed)] = Q(1)
        red = comp._reduce_by_image(v)
        residues.append({comp.rows_k[j]: x for j, x in enumerate(red) if x})
    return linalg.sparse_rank(residues) == len(monos)


def _dense_solve_coboundary(m, k, rhs):
    """The free-variables-zero u over the whole bases of degrees k-1 and k."""
    x = linalg.solve(coboundary_matrix(m, k - 1), m.coordinates(rhs, k))
    if x is None:
        return None
    return P({b: c for b, c in zip(m.basis(k - 1), x) if c})


def _local_block(m, rhs):
    view = m._packed
    pk = view.packing(rhs.homogeneous_degree())
    return cohomology_module._block(view, pk, view.pack(pk, rhs.monomials()))


@pytest.mark.parametrize("label", ["V-ex31", "W-ex32", "E3", "E5", "E7", "U3", "U6", "U8"])
def test_residues_independent_matches_the_window_on_every_differential(label):
    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    dependent = 0
    for v in m.generators:
        monos = m.differential(v).monomials()
        if not monos:
            continue
        k = v.degree + 1
        # at the truncation the extraction asks about, and in ΛV, where d(v)
        # itself makes the monomials dependent
        for t in (m.truncate(v.degree - 1), m):
            cases = [monos] + [[mo] for mo in monos]
            for case in cases:
                local = residues_independent(t, k, case)
                assert local == _window_residues_independent(t, k, case), (t.label, k, case)
                dependent += not local
    assert dependent >= 1


@functools.lru_cache(maxsize=None)
def _draw_pools(label, k):
    """The degree-k basis of a builtin, and its active members: those of the
    window's blocks and of its one-member blocks, exact or unclosed."""
    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    cx = complex_for(m)
    win = cx.window(k)
    # descending packed ints are basis order
    members = [g for c in win.components for g in c.rows_k]
    active = sorted([*members, *win.exact, *win.unclosed], reverse=True)
    monomial = cx.view.packing(k + 1).monomial
    return m, [monomial(b) for b in packed_basis(cx, k)], [monomial(g) for g in active]


@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=150)
@given(data=st.data())
def test_residues_independent_matches_the_window_on_random_sets(data):
    label = data.draw(st.sampled_from(["W-ex32", "U2", "E3"]))
    k = data.draw(st.sampled_from([60, 85, 88, 100, 120]))
    m, basis, active = _draw_pools(label, k)
    pool = data.draw(st.sampled_from([active, active, basis]))
    monos = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    assert residues_independent(m, k, monos) == _window_residues_independent(m, k, monos)


@pytest.mark.parametrize(
    "label, k", [("V-ex31", 98), ("V-ex31", 120), ("W-ex32", 88), ("W-ex32", 120), ("E3", 100)]
)
def test_solve_coboundary_matches_the_dense_solution(label, k):
    import random

    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    rng = random.Random(k)
    basis = m.basis(k - 1)
    wide = 0
    for _ in range(12):
        u = P({mo: Q(rng.randint(-3, 3)) for mo in rng.sample(basis, min(3, len(basis)))})
        rhs = m.d(u)
        if rhs.is_zero():
            continue
        got = solve_coboundary(m, k, rhs)
        assert got is not None and m.d(got) == rhs
        assert got == _dense_solve_coboundary(m, k, rhs)
        wide += len(_local_block(m, rhs)) >= 2
    assert wide >= 1


def test_solve_coboundary_keeps_basis_order_in_a_wide_block(V):
    # the three degree-97 columns x1^4 x2 y3, x1^3 x2^2 y2, x1^2 x2^3 y1 all hit
    # x1^5 x2^4: the free-variables-zero u is the first of them in basis order
    x1, x2 = V.generator("x1"), V.generator("x2")
    y1, y3 = V.generator("y1"), V.generator("y3")
    last = P.monomial(mono((x1, 2), (x2, 3), (y1, 1)))
    for t in (V.truncate(45), V):
        rhs = t.d(last.scale(Q(-2, 3)))
        assert len(_local_block(t, rhs)) == 3
        u = solve_coboundary(t, 98, rhs)
        assert u == P.monomial(mono((x1, 4), (x2, 1), (y3, 1)), Q(-2, 3))
        assert u == _dense_solve_coboundary(t, 98, rhs)


def test_local_block_is_closed_over_chains():
    # x^2 = d(a - b + c), although only d(a) contains x^2: the block must
    # follow x y and y^2 to the columns of b and c
    x, y = Generator("x", 2), Generator("y", 2)
    a, b, c = Generator("a", 3), Generator("b", 3), Generator("c", 3)
    xx, xy, yy = (P.monomial(mono(*f)) for f in (((x, 2),), ((x, 1), (y, 1)), ((y, 2),)))
    m = SullivanModel([x, y, a, b, c], {"a": xx + xy, "b": xy + yy, "c": yy})
    x2 = mono((x, 2))
    assert not residues_independent(m, 4, [x2])
    assert not _window_residues_independent(m, 4, [x2])
    u = solve_coboundary(m, 4, xx)
    assert u == P.generator(a) - P.generator(b) + P.generator(c)
    assert u == _dense_solve_coboundary(m, 4, xx)


def test_local_queries_reject_generators_outside_and_wrong_degrees(V):
    t = V.truncate(40)
    y1 = V.generator("y1")
    with pytest.raises(ModelError):
        solve_coboundary(t, 41, P.generator(y1))
    with pytest.raises(ModelError):
        residues_independent(t, 41, [mono((y1, 1))])
    x1 = V.generator("x1")
    with pytest.raises(ValueError, match="degree 10, expected 41"):
        solve_coboundary(V, 41, P.generator(x1))
    with pytest.raises(ValueError, match="degree 10, expected 41"):
        residues_independent(V, 41, [mono((x1, 1))])


def test_induced_map_of_non_morphism_is_rejected_at_construction(V):
    t = V.truncate(45)
    with pytest.raises(Exception):
        CochainMorphism(t, t, {g.name: P.generator(g, 2) for g in t.generators})


def test_concurrent_cohomology_queries_are_safe(W):
    # memoization uses insert-if-absent; concurrent readers must agree
    import concurrent.futures

    t = W.truncate(118)

    def job(_):
        h = cohomology(t, 120)
        return (h.dimension, str(h.representative(0)))

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(16)))
    assert len(set(results)) == 1
    assert results[0][0] == 29


def test_window_below_codes_with_the_truncation(V):
    # Γ^43 = H^43(ΛV^{<=42}) is the cut's own window, and class_of takes d in the cut
    gamma = cohomology(V.truncate(42), 43)
    with pytest.raises(ModelError):  # y2 lies outside ΛV^{<=42}
        gamma.class_of(P.generator(V.generator("y2")))


# --- class layout: anchors, positions and linear parts ----------------------------


def _assert_layout_round_trips(h):
    """Every class position maps to its representative and back, and the
    linear parts are the generator coefficients of the representatives."""
    reps = h.representatives()
    for i, rep in enumerate(reps):
        assert h.class_of(rep).coords == {i: 1}
    expected = {}
    for i, rep in enumerate(reps):
        for g in h.model.gens_of_degree(h.degree):
            c = rep.coefficient(mono((g, 1)))
            if c:
                expected.setdefault(i, {})[g.name] = c
    assert h.linear_parts() == expected


@pytest.mark.parametrize(
    "label, k, cut",
    [
        ("V-ex31", 10, None),  # a generator class
        ("V-ex31", 108, None),  # one block anchor and one inert anchor
        ("V-ex31", 120, None),  # a block with two classes
        ("W-ex32", 12, None),
        ("W-ex32", 118, None),
        ("W-ex32", 120, None),
        ("E3", 77, None),  # six blocks with several classes each
        ("U3", 5, None),
        ("U3", 69, None),  # 31 switches between inert and block anchors
        ("W-ex32", 120, 118),  # the Γ window of the paper's Example 3.2
        ("U3", 69, 43),
    ],
)
def test_class_positions_round_trip_through_the_anchor_table(label, k, cut):
    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    h = cohomology(m if cut is None else m.truncate(cut), k)
    assert 0 < h.dimension <= 300
    # each case has both inert classes and block heads with classes, a block
    # with more than one class, or a generator class
    win = h._window
    interleaved = win.inert > 0 and len(win.heads) > 0
    assert interleaved or any(c.dim_h > 1 for c in win.components) or h.linear_parts()
    # heads are packed degree-k monomials in basis order, and they and the
    # inert monomials carry every class
    assert all(a > b for a, b in zip(win.heads, win.heads[1:]))
    in_order = iter(h.model.basis(k))
    assert all(win.packing.monomial(a) in in_order for a in win.heads)
    assert win.inert + sum(c.dim_h for c in win.components) == h.dimension
    _assert_layout_round_trips(h)


def test_linear_parts_of_generators_inside_a_block():
    # b - e/2 and c - e/2 are the two classes of degree 3, both in block 0
    a, b, c, e = (Generator(name, deg) for name, deg in (("a", 2), ("b", 3), ("c", 3), ("e", 3)))
    aa = P.monomial(mono((a, 2)))
    m = SullivanModel([a, b, c, e], {"b": aa, "c": aa, "e": aa.scale(2)})
    h = cohomology(m, 3)
    assert h.dimension == 2
    half = Q(-1, 2)
    assert h.linear_parts() == {0: {"b": 1, "e": half}, 1: {"c": 1, "e": half}}
    _assert_layout_round_trips(h)
    # with d c = -d b the int columns reduce with pivot 1 and no division, so
    # the block's class row keeps an int entry; linear parts are public
    # coefficients, Fractions all the same
    h2 = cohomology(SullivanModel([a, b, c], {"b": aa, "c": -aa}), 3)
    assert h2.linear_parts() == {0: {"b": 1, "c": 1}}
    for parts in (h.linear_parts(), h2.linear_parts()):
        assert all(type(x) is Q for row in parts.values() for x in row.values())


def test_representative_rejects_positions_outside_the_layout(V):
    h = cohomology(V, 120)
    for i in (-1, h.dimension):
        with pytest.raises(IndexError):
            h.representative(i)


@pytest.mark.parametrize("label, k, cut", [("V-ex31", 43, 42), ("W-ex32", 120, 118), ("U3", 69, 43)])
def test_windows_name_monomials_by_packed_ints(label, k, cut):
    # columns name the packed degree-(k+1) monomials they hit, and blocks the
    # packed degree-k ones; no window, of the model or of its cut, keeps a
    # position index
    m = load_builtin(label)
    for model in (m, m.truncate(cut)):
        cx = cohomology_module._Complex(model)
        monomial = cx.view.packing(k + 1).monomial
        for mono_, _ in (row for col in cx.columns(k).values() for row in col):
            assert monomial(mono_).degree == k + 1
        win = cx.window(k)
        basis = set(packed_basis(cx, k))
        assert not hasattr(win, "index")
        assert all(g in basis for c in win.components for g in c.rows_k)
        assert win.exact <= basis and win.unclosed <= basis
        assert set(win.active) <= basis and set(win.heads) <= basis
        assert not hasattr(cx, "index") and not hasattr(cx, "_indexes")


# --- the class layout against an enumerated anchor table ---------------------------


def _anchor_table(cx, win, k):
    """The class layout as an enumerated table: walk basis(k) in order, and
    give each block head with classes its dim_h positions and each monomial
    in no block, of any size, one position.  {anchor: (first position,
    block or None)}, the dimension, and the degree-k members of all blocks."""
    pk = cx.view.packing(k + 1)
    blocks = cohomology_module._blocks(cx.columns(k - 1, pk), cx.columns(k, pk))
    members = {g for block in blocks for level, g in block if level == 1}
    heads = {c.rows_k[0]: c for c in win.components if c.dim_h}
    table, pos = {}, 0
    for mo in packed_basis(cx, k):
        if mo in heads:
            table[mo] = (pos, heads[mo])
            pos += heads[mo].dim_h
        elif mo not in members:
            table[mo] = (pos, None)
            pos += 1
    return table, pos, members


@pytest.mark.parametrize(
    "label, k, cut",
    [
        ("V-ex31", 108, None),
        ("V-ex31", 120, None),
        ("W-ex32", 120, None),
        ("W-ex32", 120, 118),
        ("E3", 77, None),
        ("U3", 69, None),
        ("U3", 69, 43),
        ("W-ex32", 128, None),  # packed in the bound 256
        ("E3", 128, None),
    ],
)
def test_window_layout_matches_the_enumerated_anchor_table(label, k, cut):
    m = load_builtin(label)
    cx = cohomology_module._Complex(m if cut is None else m.truncate(cut))
    win = cx.window(k)
    table, dim, members = _anchor_table(cx, win, k)
    assert win.dimension == dim
    assert win.active == sorted(members, reverse=True)
    expected = {}  # class position -> representative
    for anchor, (start, comp) in table.items():
        if comp is None:
            expected[start] = {anchor: 1}
            assert win._start(anchor) == start
            assert win.classes_containing(anchor) == {start: 1}
        else:
            for i, row in enumerate(comp.h_rows):
                expected[start + i] = {g: v for g, v in zip(comp.rows_k, row) if v}
    assert [win.representative_vec(i) for i in range(dim)] == [expected[i] for i in range(dim)]
    for comp in win.components:
        start = table[comp.rows_k[0]][0] if comp.dim_h else None
        for j, g in enumerate(comp.rows_k):
            want = {start + i: row[j] for i, row in enumerate(comp.h_rows) if row[j]}
            assert win.classes_containing(g) == want
    # a one-member block has no class: an exact member is 0 in any cocycle,
    # and an unclosed one makes any vector with it no cocycle
    assert win.exact or win.unclosed
    cols_k = cx.columns(k, win.packing)
    assert win.exact.isdisjoint(cols_k) and win.unclosed <= cols_k.keys()
    for g in win.exact:
        assert win.classes_containing(g) == {} and win.class_of_vec({g: Q(1)}) == {}
    for g in win.unclosed:
        assert win.classes_containing(g) == {}
        with pytest.raises(NotACocycle):
            win.class_of_vec({g: Q(1)})
    assert len(table) + len(win.active) - len(win.heads) == cx.basis_size(k)


@pytest.mark.parametrize("label", ["E3", "U3"])
def test_windows_enumerate_no_basis_and_build_no_one_member_block(monkeypatch, label):
    cx = cohomology_module._Complex(load_builtin(label))
    enumerated, sizes = [], []
    enumerate_, init = cohomology_module._enumerate, cohomology_module._Component.__init__

    def spy_enumerate(degs, degree, shifts):
        enumerated.append((degs, degree))
        return enumerate_(degs, degree, shifts)

    def spy_init(self, members_km1, members_k, cols_km1, cols_k):
        sizes.append(len(members_k))
        init(self, members_km1, members_k, cols_km1, cols_k)

    # both names of the enumerator: the one windows and columns call, and
    # the one behind every public basis view (`algebra._Basis`)
    monkeypatch.setattr(cohomology_module, "_enumerate", spy_enumerate)
    monkeypatch.setattr(algebra_module, "_enumerate", spy_enumerate)
    monkeypatch.setattr(cohomology_module._Component, "__init__", spy_init)
    singletons = 0
    for n in sorted({g.degree for g in cx.model.generators}):
        win = cohomology_module._Window.build(cx, n)
        singletons += len(win.exact) + len(win.unclosed)
    # the complex has no basis method, and the columns enumerate closed
    # monomials and active words only
    assert not hasattr(cx, "basis")
    assert not [key for key in enumerated if key[0] == cx.view.degs]
    assert sizes and min(sizes) >= 2 and singletons > 0
