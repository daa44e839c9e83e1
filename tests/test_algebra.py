import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohaut.algebra import (
    AlgebraError,
    Generator,
    Monomial,
    Polynomial,
    basis,
    canonicalize,
    coordinates,
    _enumerate,
    _mul_poly,
    _Packing,
    _sorted_gens,
    multiply,
    poincare_series,
)

x1 = Generator("x1", 10)
x2 = Generator("x2", 12)
y1 = Generator("y1", 41)
y2 = Generator("y2", 43)
y3 = Generator("y3", 45)
GENS = [x1, x2, y1, y2, y3]
# generators the W-ex32 and U1 models add to V-ex31, mixed with two of V-ex31's
TOWER_GENS = [Generator("x0", 2), Generator("x3", 3), x1, y2]


def mono(*factors):
    return Monomial(tuple(factors))


# --- canonicalize ---------------------------------------------------------------


def test_canonicalize_even_factors_sorted():
    sign, m = canonicalize([(x2, 1), (x1, 3)])
    assert sign == 1
    assert m == mono((x1, 3), (x2, 1))


def test_canonicalize_odd_swap_gives_sign():
    sign, m = canonicalize([(y2, 1), (y1, 1)])
    assert sign == -1
    assert m == mono((y1, 1), (y2, 1))


def test_canonicalize_odd_square_is_zero():
    assert canonicalize([(y1, 1), (y1, 1)]) is None
    assert canonicalize([(y1, 2)]) is None


def test_canonicalize_rejects_nonpositive_exponent():
    with pytest.raises(AlgebraError):
        canonicalize([(x1, 0)])


def _brute_force_sign(sequence):
    """Independent Koszul sign: bubble-sort the expanded word, flipping the
    sign on every adjacent transposition of two odd letters."""
    letters = []
    for g, e in sequence:
        letters.extend([g] * e)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i].sort_key > letters[i + 1].sort_key:
                if letters[i].is_odd and letters[i + 1].is_odd:
                    sign = -sign
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    for i in range(len(letters) - 1):
        if letters[i] == letters[i + 1] and letters[i].is_odd:
            return None
    return sign


@given(
    st.lists(
        st.tuples(st.sampled_from(GENS), st.integers(min_value=1, max_value=3)),
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_canonicalize_sign_matches_bubble_sort_oracle(seq):
    expected = _brute_force_sign(seq)
    got = canonicalize(seq)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got[0] == expected


def test_non_canonical_factor_tuples_are_rejected():
    x, y, a, b = Generator("x", 2), Generator("y", 4), Generator("a", 3), Generator("b", 5)
    for factors, what in (
        (((y, 1), (x, 1)), "canonical order"),
        (((x, 1), (x, 2)), "repeats"),
        (((x, 0),), "exponent 0"),
        (((x, -1), (y, 1)), "exponent -1"),
        (((a, 2),), "exponent 2"),
        (((x, 1), (b, 1), (a, 1)), "canonical order"),
    ):
        with pytest.raises(AlgebraError, match=what):
            Monomial(factors)
    assert Monomial(((x, 3), (a, 1), (y, 2), (b, 1))).degree == 22


# --- multiply -------------------------------------------------------------------


def test_multiply_paper_class_monomial():
    p = multiply(Polynomial.monomial(mono((x1, 3))), Polynomial.generator(x2))
    assert p == Polynomial.monomial(mono((x1, 3), (x2, 1)))


def test_multiply_odd_square_zero():
    assert multiply(Polynomial.generator(y1), Polynomial.generator(y1)).is_zero()


def test_multiply_mixed_square():
    # (y1 + x1)^2 = x1^2 + 2 x1 y1 since y1^2 = 0 and x1 y1 = y1 x1
    p = Polynomial.generator(y1) + Polynomial.generator(x1)
    sq = multiply(p, p)
    assert sq == Polynomial(
        {mono((x1, 2)): Q(1), mono((x1, 1), (y1, 1)): Q(2)}
    )


def _random_homogeneous(rng, degree_budget=90, gens=GENS):
    """A random homogeneous polynomial in gens (possibly a single monomial)."""
    for _ in range(50):
        factors = []
        total = 0
        for g in rng.sample(gens, k=rng.randint(1, 3)):
            e = 1 if g.is_odd else rng.randint(1, 3)
            if total + g.degree * e > degree_budget:
                continue
            factors.append((g, e))
            total += g.degree * e
        canon = canonicalize(factors)
        if canon is not None and factors:
            _, m = canon
            return Polynomial.monomial(m, rng.choice([1, -1, 2, Q(1, 2)]))
    return Polynomial.unit()


def test_graded_commutativity_and_associativity():
    import random

    rng = random.Random(7)
    for _ in range(60):
        a = _random_homogeneous(rng)
        b = _random_homogeneous(rng)
        c = _random_homogeneous(rng)
        da = a.homogeneous_degree() or 0
        db = b.homogeneous_degree() or 0
        sign = -1 if (da % 2 and db % 2) else 1
        assert multiply(a, b) == sign * multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        # the coded product agrees with canonicalize, also when the operands'
        # generators come from different models (a union generator index)
        e = _random_homogeneous(rng, gens=TOWER_GENS)
        for p, q in ((a, b), (a, e), (e, c)):
            (mp, cp), (mq, cq) = p.terms()[0], q.terms()[0]
            canon = canonicalize(mp.factors + mq.factors)
            mp_mq = multiply(Polynomial.monomial(mp), Polynomial.monomial(mq))
            if canon is None:
                assert mp_mq.is_zero()
            else:
                assert mp_mq == Polynomial.monomial(canon[1], canon[0])
            assert multiply(p, q) == cp * cq * mp_mq


# --- the product against a brute-force Koszul product ------------------------------

# mixed parities: even x, y, z and odd a, b, c, w
_X, _A, _Y, _B, _Z, _C, _W = (
    Generator(n, d) for n, d in (("x", 2), ("a", 3), ("y", 4), ("b", 5), ("z", 6), ("c", 7), ("w", 9))
)
_ORACLE_GENS = (_X, _A, _Y, _B, _Z, _C, _W)


def _koszul_product(letters):
    """The product of a list of letters, by brute force: (sign, Monomial), or
    None when an odd letter repeats.  Sorting the list into canonical order
    transposes each pair of odd letters that stand out of order once, so the
    sign is -1 to the number of such pairs."""
    odd = [g for g in letters if g.is_odd]
    if len(set(odd)) < len(odd):
        return None
    swaps = sum(h.sort_key < g.sort_key for i, g in enumerate(odd) for h in odd[i + 1 :])
    factors = sorted(Counter(letters).items(), key=lambda ge: ge[0].sort_key)
    return (-1) ** swaps, Monomial(tuple(factors))


def _letters(m):
    return [g for g, e in m.factors for _ in range(e)]


def _oracle_product(a, b):
    acc = Polynomial.zero()
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            canon = _koszul_product(_letters(ma) + _letters(mb))
            if canon is not None:
                acc = acc + Polynomial.monomial(canon[1], canon[0] * ca * cb)
    return acc


def _random_monomial(rng, degree):
    """A random canonical monomial of degree 0 or >= 2 in _ORACLE_GENS."""
    while True:
        odd = [g for g in (_A, _B, _C, _W) if rng.random() < 0.5]
        rem = degree - sum(g.degree for g in odd)
        if rem >= 0 and rem % 2 == 0:
            break
    exps = {g: 1 for g in odd}
    for g in (_Z, _Y):
        exps[g] = rng.randint(0, rem // g.degree)
        rem -= exps[g] * g.degree
    exps[_X] = rem // 2
    return Monomial(tuple(sorted(((g, e) for g, e in exps.items() if e), key=lambda ge: ge[0].sort_key)))


def _random_poly(rng, degree):
    """One to three random monomials of one degree with nonzero coefficients."""
    coeffs = (1, -1, 2, Q(-1, 3))
    return Polynomial({_random_monomial(rng, degree): rng.choice(coeffs) for _ in range(rng.randint(1, 3))})


def _packed_product(a, b, degree):
    pk = _Packing(_ORACLE_GENS, degree)
    pa, pb = ({pk.packed(m): c for m, c in p.terms()} for p in (a, b))
    return Polynomial({pk.monomial(m): c for m, c in _mul_poly(pk, pa, pb).items()})


@pytest.mark.parametrize("total", [16, 40, 127, 128, 129, 255, 256, 257])
def test_products_match_a_brute_force_koszul_product(total):
    # the operands' degrees add up to `total`, on both sides of the packing bounds
    rng = random.Random(total)
    vanished = 0
    for _ in range(40):
        da = rng.randint(2, total - 2)
        a, b = _random_poly(rng, da), _random_poly(rng, total - da)
        expected = _oracle_product(a, b)
        assert multiply(a, b) == expected, (a, b)
        assert _packed_product(a, b, total) == expected, (a, b)
        # one raw word: both letter lists shuffled together, letters repeated
        letters = _letters(a.terms()[0][0]) + _letters(b.terms()[0][0])
        rng.shuffle(letters)
        raw = [(g, 1) for g in letters]
        canon = _koszul_product(letters)
        assert canonicalize(raw) == canon, raw
        vanished += canon is None
    assert 0 < vanished < 40  # some words hold an odd square, most do not


def test_products_of_high_powers_widen_the_fields():
    x300 = Polynomial.monomial(mono((_X, 300)))
    x600 = Polynomial.monomial(mono((_X, 600)))
    assert multiply(x300, x300) == x600 == _oracle_product(x300, x300)
    assert _packed_product(x300, x300, 1200) == x600
    # x^64 fits the fields of bound 128, but x^64 * x^64 needs bound 256
    x64 = Polynomial.monomial(mono((_X, 64), (_A, 1)))
    assert _packed_product(x64, x64, 256).is_zero()
    y = Polynomial.monomial(mono((_X, 64), (_B, 1)))
    assert multiply(x64, y) == _packed_product(x64, y, 256) == _oracle_product(x64, y)
    assert canonicalize([(_X, 300), (_B, 1), (_X, 300), (_A, 1)]) == (-1, mono((_X, 600), (_A, 1), (_B, 1)))


# --- basis ----------------------------------------------------------------------


def test_basis_no_degree_41_monomials_in_even_generators():
    assert tuple(basis([x1, x2], 41)) == ()


def test_basis_degree_119_contains_the_expected_word():
    b = basis([x1, x2, y1], 119)
    assert mono((x1, 3), (x2, 4), (y1, 1)) in b


def test_basis_degree_zero_is_unit():
    assert tuple(basis(GENS, 0)) == (Monomial(()),)


def test_basis_order_is_graded_lex_front_loaded():
    b = basis([x1, x2], 120)
    assert [str(m) for m in b] == ["x1^12", "x1^6*x2^5", "x2^10"]


def _series_coefficients(gens, dmax):
    """Power-series oracle: Π_even 1/(1 - t^d) * Π_odd (1 + t^d)."""
    coeff = [0] * (dmax + 1)
    coeff[0] = 1
    for g in gens:
        if g.is_odd:
            for m in range(dmax, g.degree - 1, -1):
                coeff[m] += coeff[m - g.degree]
        else:
            for m in range(g.degree, dmax + 1):
                coeff[m] += coeff[m - g.degree]
    return coeff


@pytest.mark.parametrize("label", ["V-ex31", "W-ex32", "U1"])
def test_dimension_formula_small_models(label):
    from cohaut.corpus import load_builtin

    m = load_builtin(label)
    oracle = _series_coefficients(m.generators, 121)
    for d in range(122):
        assert len(m.basis(d)) == oracle[d], f"{label} degree {d}"


def test_poincare_series_matches_the_oracle_past_its_first_table():
    # the first table reaches degree 128; asking for more rebuilds it
    degs = tuple(g.degree for g in GENS)
    assert poincare_series(degs, 60)[:61] == tuple(_series_coefficients(GENS, 60))
    assert poincare_series(degs, 300)[:301] == tuple(_series_coefficients(GENS, 300))
    assert poincare_series((), 10)[:3] == (1, 0, 0)


def test_basis_iteration_equals_indexing():
    b = basis(GENS, 96)
    assert list(b) == [b[i] for i in range(len(b))]


_ODD = [Generator(f"o{d}", d) for d in (3, 5, 7, 9, 11, 13, 15)]
_EVEN = [Generator(f"e{d}", d) for d in (2, 4, 6)]
_MIXED = [Generator("a", 2), Generator("b", 3), Generator("c", 6)]
_RANKED = (
    [("odd", _ODD, d) for d in (0, 1, 27, 36, 63)]
    + [("even", _EVEN, d) for d in (0, 1, 30, 60, 127, 128, 129, 130)]
    + [("x1x2", [x1, x2], d) for d in (41, 120)]
    + [("mixed", GENS, d) for d in (0, 41, 96, 119, 120)]
    # a degree-2 generator across the packing bound 128
    + [("abc", _MIXED, d) for d in range(126, 131)]
    + [("tower", TOWER_GENS, d) for d in range(126, 131)]
    + [("empty", [], d) for d in (0, 5)]
)


@pytest.mark.parametrize(
    "gens, k", [(gens, k) for _, gens, k in _RANKED], ids=[f"{n}-{k}" for n, _, k in _RANKED]
)
def test_basis_ranks_and_unranks_every_index_in_enumeration_order(gens, k):
    b = basis(gens, k)
    ordered = _sorted_gens(gens)
    pk = _Packing(ordered, k)
    expected = [pk.monomial(w) for w in _enumerate(tuple(g.degree for g in ordered), k, pk.shifts)]
    assert len(b) == len(expected) and bool(b) == bool(expected)
    for i, m in enumerate(expected):
        assert b[i] == m and b[i - len(b)] == m
        assert b.index(b[i]) == i and b.rank(pk.packed(m)) == i and m in b
    if expected:
        assert b[-1] == expected[-1]
    for i in (len(b), -len(b) - 1):
        with pytest.raises(IndexError):
            b[i]
    # index raises ValueError on a non-Monomial, a wrong degree and a foreign generator
    bad = ["x1", Polynomial.unit(), Monomial(((Generator("w", k + 2), 1),))]
    if k >= 2:
        bad.append(Monomial(((Generator("w", k), 1),)))
    for m in bad:
        assert m not in b
        with pytest.raises(ValueError):
            b.index(m)


def test_basis_rejects_repeated_generators():
    # a repeated generator once gave basis([x1, x1], 10) == (x1, x1)
    for k in (0, 10, 20):
        with pytest.raises(AlgebraError, match="x1 repeats"):
            basis([x1, x2, x1], k)
    with pytest.raises(AlgebraError, match="y1 repeats"):
        coordinates([y1, y1], Polynomial.generator(y1), 41)


def test_basis_views_never_enumerate_outside_iteration(monkeypatch):
    import cohaut.algebra as algebra

    calls = []

    def spy(*args):
        calls.append(args)
        return _enumerate(*args)

    monkeypatch.setattr(algebra, "_enumerate", spy)
    gens = [Generator("s2", 2), Generator("s3", 3), Generator("s4", 4), Generator("s6", 6)]
    b = basis(gens, 77)
    m = b[len(b) // 3]
    assert len(b) > 100 and b and b.index(m) == len(b) // 3 and m in b
    p = Polynomial.monomial(m, 2) + Polynomial.monomial(b[-1], -1)
    assert coordinates(gens, p, 77)[len(b) // 3] == 2
    assert calls == []
    assert list(b)[len(b) // 3] == m and len(calls) == 1


def test_seeded_draws_from_a_basis_equal_draws_from_its_tuple():
    # random.sample iterates a population of at most 277 and indexes a larger
    # one when it draws 40, so cover both sides
    small, large = basis(_EVEN, 60), basis(_EVEN, 128)
    assert 40 <= len(small) <= 277 < len(large)
    for b in (small, large):
        for seed in range(5):
            view_draws = random.Random(seed)
            tuple_draws = random.Random(seed)
            assert view_draws.sample(b, 40) == tuple_draws.sample(tuple(b), 40)
            assert view_draws.choice(b) == tuple_draws.choice(tuple(b))


# --- coordinates ----------------------------------------------------------------


def test_coordinates_unit_vector():
    b = basis([x1, x2], 42)
    p = Polynomial.monomial(mono((x1, 3), (x2, 1)))
    vec = coordinates([x1, x2], p, 42)
    assert vec[b.index(mono((x1, 3), (x2, 1)))] == 1
    assert sum(1 for v in vec if v) == 1


def test_coordinates_zero_polynomial():
    assert coordinates(GENS, Polynomial.zero(), 50) == [Q(0)] * len(basis(GENS, 50))


def test_coordinates_two_entry_vector():
    p = Polynomial.monomial(mono((x1, 12))) + Polynomial.monomial(mono((x2, 10)))
    vec = coordinates([x1, x2], p, 120)
    assert sorted(v for v in vec if v) == [1, 1]
    assert len([v for v in vec if v]) == 2


def test_coordinates_requires_matching_degree():
    with pytest.raises(AlgebraError):
        coordinates([x1, x2], Polynomial.generator(x1), 12)


def test_coordinates_round_trip_on_bases():
    for d in (0, 10, 22, 53, 84):
        b = basis(GENS, d)
        for i, m in enumerate(b):
            vec = coordinates(GENS, Polynomial.monomial(m), d)
            assert vec[i] == 1 and sum(1 for v in vec if v) == 1
            assert Polynomial({b[j]: c for j, c in enumerate(vec) if c}) == Polynomial.monomial(m)
