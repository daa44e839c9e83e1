"""Free graded-commutative algebra over Q.

Monomials are words in graded generators, kept in a fixed global order
(generator degree, then name).  Odd-degree generators anticommute and square
to zero; even-degree generators commute.  All coefficients are exact
`fractions.Fraction` values; no floating point is used anywhere.

The basis of a graded piece (`basis`) is a view that stores no monomial: its
size is a coefficient of the Poincaré series, and it ranks and unranks
monomials against the same count table (`_series`) that prunes the
enumeration.  Nothing here caches a basis.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Q = Fraction
ZERO = Q(0)
ONE = Q(1)


class AlgebraError(ValueError):
    pass


# Generator names, as the model text format (dsl.py) reads them.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENTIFIER_RE = re.compile(IDENTIFIER)


@dataclass(frozen=True)
class Generator:
    """A free generator with a positive degree >= 2 (1-connectedness)."""

    name: str
    degree: int

    def __post_init__(self) -> None:
        if not _IDENTIFIER_RE.fullmatch(self.name):
            raise AlgebraError(f"bad generator name {self.name!r}")
        if self.degree < 2:
            raise AlgebraError(f"generator {self.name} has degree {self.degree} < 2")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    @property
    def sort_key(self) -> tuple[int, str]:
        return (self.degree, self.name)

    def __repr__(self) -> str:
        return f"{self.name}[{self.degree}]"


@dataclass(frozen=True)
class Monomial:
    """Canonical word: factors sorted in global order, odd exponents == 1."""

    factors: tuple[tuple[Generator, int], ...]
    degree: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        degree = 0
        prev = None
        for g, e in self.factors:
            key = (g.degree, g.name)
            if prev is not None and not prev < key:
                what = "repeats" if prev == key else "is not in canonical order after"
                raise AlgebraError(f"monomial {self}: {g.name} {what} {prev[1]}")
            if e < 1:
                raise AlgebraError(f"monomial {self}: exponent {e} < 1 for generator {g.name}")
            if e != 1 and g.degree % 2:
                raise AlgebraError(
                    f"monomial {self}: odd generator {g.name} has exponent {e} != 1"
                )
            degree += g.degree * e
            prev = key
        object.__setattr__(self, "degree", degree)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def linear_generator(self) -> Generator | None:
        """The generator g if this monomial is the word g itself, else None."""
        if len(self.factors) == 1 and self.factors[0][1] == 1:
            return self.factors[0][0]
        return None

    @property
    def word_length(self) -> int:
        return sum(e for _, e in self.factors)

    def sort_key(self):
        # Graded, then lexicographic with higher powers of earlier generators
        # first; missing generators compare as exponent 0.
        return (self.degree, tuple((g.sort_key, -e) for g, e in self.factors))

    def __str__(self) -> str:
        return _word(self.factors)

    def __repr__(self) -> str:
        return f"Monomial({self})"


UNIT = Monomial(())


def _word(factors: Iterable[tuple[Generator, int]]) -> str:
    """Display form of a factor list: x^2*y, or 1 when it is empty."""
    return "*".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in factors) or "1"


def canonicalize(
    raw: Iterable[tuple[Generator, int]]
) -> tuple[int, Monomial] | None:
    """Sort a raw factor list into canonical order with its Koszul sign.

    Returns (sign, monomial), or None when the word is zero because an
    odd-degree generator acquires exponent >= 2.  The factors are multiplied
    left to right, so the sign is that of the graded-commutative product.
    """
    items = list(raw)
    for g, e in items:
        if e < 1:
            raise AlgebraError(f"exponent {e} < 1 for generator {g.name}")
    pk = _Packing(_sorted_gens({g for g, _ in items}), sum(g.degree * e for g, e in items))
    sign, word = 1, 0
    for g, e in items:
        letter = e << pk.shifts[pk.index[g]]
        if g.is_odd and e >= 2 or word & letter & pk.odd:
            return None
        if (word & pk.koszul(letter)).bit_count() & 1:
            sign = -sign
        word += letter
    return sign, pk.monomial(word)


class Polynomial:
    """Finite Q-linear combination of canonical monomials (immutable)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self._terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self._terms[m] = c if type(c) is Fraction else Q(c)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "Polynomial":
        return cls({m: Q(coeff)})

    @classmethod
    def generator(cls, g: Generator, coeff=1) -> "Polynomial":
        return cls({Monomial(((g, 1),)): Q(coeff)})

    @classmethod
    def unit(cls, coeff=1) -> "Polynomial":
        return cls({UNIT: Q(coeff)})

    @classmethod
    def from_raw_terms(
        cls, raw: Iterable[tuple[Fraction, Iterable[tuple[Generator, int]]]]
    ) -> tuple["Polynomial", list[str]]:
        """Canonicalize raw (coeff, factor-list) terms.

        Returns the polynomial together with the raw words that normalized to
        zero (odd generator powers), in display form with sorted, merged
        factors such as x3^40, so callers can report them.
        """
        acc: dict[Monomial, Fraction] = {}
        vanished: list[str] = []
        for coeff, factors in raw:
            factors = tuple(factors)
            canon = canonicalize(factors)
            if canon is None:
                merged: dict[Generator, int] = {}
                for g, e in factors:
                    merged[g] = merged.get(g, 0) + e
                vanished.append(_word(sorted(merged.items(), key=lambda fe: fe[0].sort_key)))
                continue
            sign, mono = canon
            c = acc.get(mono, ZERO) + sign * Q(coeff)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls(acc), vanished

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def monomials(self) -> list[Monomial]:
        return [m for m, _ in self.terms()]

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self._terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms; None for the zero polynomial."""
        degs = {m.degree for m in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            s = acc.get(m, ZERO) + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return Polynomial(acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, coeff) -> "Polynomial":
        c = Q(coeff)
        if not c:
            return Polynomial()
        return Polynomial({m: c * v for m, v in self._terms.items()})

    def __rmul__(self, coeff) -> "Polynomial":
        if isinstance(coeff, (int, Fraction)):
            return self.scale(coeff)
        return NotImplemented

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return multiply(self, other)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.terms():
            if m.is_unit:
                body = str(c)
            elif c == 1:
                body = str(m)
            elif c == -1:
                body = f"-{m}"
            else:
                body = f"{c}*{m}"
            if parts and not body.startswith("-"):
                parts.append(f" + {body}")
            elif parts:
                parts.append(f" - {body[1:]}")
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def multiply(a: Polynomial, b: Polynomial) -> Polynomial:
    """Graded-commutative product (bilinear, Koszul signs)."""
    if not a or not b:
        return Polynomial()
    pk = _Packing(
        _sorted_gens({g for p in (a, b) for m in p._terms for g, _ in m.factors}),
        max(m.degree for m in a._terms) + max(m.degree for m in b._terms),
    )
    pa, pb = ({pk.packed(m): c for m, c in p._terms.items()} for p in (a, b))
    return Polynomial({pk.monomial(m): c for m, c in _mul_poly(pk, pa, pb).items()})


def _sorted_gens(generators: Iterable[Generator]) -> tuple[Generator, ...]:
    return tuple(sorted(generators, key=lambda g: g.sort_key))


# --- the packed kernel --------------------------------------------------------
#
# Internally a monomial is one int, its exponent vector packed by a `_Packing`
# of a sorted generator tuple, wide enough for the degrees an operation
# touches.  The product (`_mul_poly`), the Leibniz differential (model.py),
# the bases (`_enumerate`) and the coboundary columns (cohomology.py) all run
# on packed ints; Monomial and Polynomial are their public views, converted
# only at the API boundary (`_Packing.packed` and `_Packing.monomial`).


def _mul_poly(
    pk: "_Packing", a: Mapping[int, Fraction], b: Mapping[int, Fraction]
) -> dict[int, Fraction]:
    """Product of two packed polynomials (monomial -> coefficient maps) whose
    degrees add up to at most pk.dmax: each product of monomials is their
    sum, 0 when they share an odd letter, signed by `_Packing.koszul`."""
    odd = pk.odd
    acc: dict[int, Fraction] = {}
    for mb, cb in b.items():
        kb = pk.koszul(mb)
        for ma, ca in a.items():
            if ma & mb & odd:
                continue
            c = -ca * cb if (ma & kb).bit_count() & 1 else ca * cb
            m = ma + mb
            v = acc.get(m)
            if v is not None:
                c += v
                if not c:
                    del acc[m]
                    continue
            acc[m] = c
    return acc


_SERIES: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}


def _series(degs: tuple[int, ...], dmax: int) -> tuple[tuple[int, ...], ...]:
    """series[i][m] = number of monomials of degree m in generators i.. .

    Row i holds the coefficients of the Poincaré series of the free algebra on
    generators i.., the product of 1/(1 - t^|x|) over even x and (1 + t^|y|)
    over odd y.  One table per degree tuple, at least up to degree 128,
    rebuilt larger when a higher degree is asked for.
    """
    table = _SERIES.get(degs)
    if table is not None and len(table[0]) > dmax:
        return table
    dmax = max(dmax, 128)
    cur = [0] * (dmax + 1)
    cur[0] = 1
    rows = [tuple(cur)]
    for d in reversed(degs):
        prev = rows[-1]
        if d % 2:
            for m in range(d, dmax + 1):
                cur[m] += prev[m - d]
        else:
            for m in range(d, dmax + 1):
                cur[m] += cur[m - d]
        rows.append(tuple(cur))
    if len(_SERIES) >= 64:  # bound the cache; clear() is atomic for threads
        _SERIES.clear()
    table = _SERIES[degs] = tuple(reversed(rows))
    return table


def poincare_series(degs: tuple[int, ...], dmax: int) -> tuple[int, ...]:
    """Basis sizes of the free algebra on generators of these degrees, in
    degrees 0..dmax at least: the coefficients of its Poincaré series.  The
    same counts prune the basis enumeration, so a count costs no enumeration."""
    return _series(degs, dmax)[0]


def _packing_bound(degree: int) -> int:
    """The degree bound of the packing of monomials of degree <= `degree`:
    the least power of two >= degree, and at least 128, so one packing
    serves every degree up to it."""
    return max(128, 1 << (degree - 1).bit_length())


class _Packing:
    """Exponent vectors over the generators `gens` packed into one int,
    generator 0 most significant.

    Field i holds the exponent of generator i and is wide enough for every
    exponent a monomial of degree <= `dmax` can have: dmax // |x| for an even
    generator x, 1 for an odd one.  So descending int order is basis order
    (descending lexicographic exponent vectors), and a product of monomials
    of degree <= dmax is the sum of their ints, with its Koszul sign read off
    the odd generators' one-bit fields, whose union is the mask `odd` (the
    packed exponent vectors of Monagan and Pearce, "Polynomial division using
    dynamic arrays, heaps, and packed exponent vectors", CASC 2007).
    """

    __slots__ = ("gens", "index", "dmax", "shifts", "masks", "odd", "_owner")

    def __init__(self, gens: tuple[Generator, ...], degree: int):
        self.gens = gens
        self.index = {g: i for i, g in enumerate(gens)}
        self.dmax = dmax = _packing_bound(degree)
        shifts = [0] * len(gens)
        masks = [0] * len(gens)
        owner: list[int] = []  # owner[b]: the generator whose field holds bit b
        odd = 0
        for i in reversed(range(len(gens))):
            d = gens[i].degree
            width = 1 if d % 2 else (dmax // d).bit_length()
            if d % 2:
                odd |= 1 << len(owner)
            shifts[i] = len(owner)
            masks[i] = (1 << width) - 1
            owner.extend([i] * width)
        self.shifts = tuple(shifts)
        self.masks = tuple(masks)
        self.odd = odd
        self._owner = owner

    def packed(self, m: Monomial) -> int:
        """The packed monomial m; KeyError(g) for a generator g not in gens."""
        shifts, index = self.shifts, self.index
        return sum(e << shifts[index[g]] for g, e in m.factors)

    def monomial(self, packed: int) -> Monomial:
        """The Monomial of a packed one, read field by field from the top."""
        factors = []
        while packed:
            i = self._owner[packed.bit_length() - 1]
            shift = self.shifts[i]
            factors.append((self.gens[i], packed >> shift))
            packed &= (1 << shift) - 1
        return Monomial(tuple(factors))

    def low(self, i: int) -> int:
        """The mask of the fields of generators i.. (all bits when i == 0)."""
        return (1 << self.shifts[i - 1]) - 1 if i else -1

    def koszul(self, packed: int) -> int:
        """The mask K with sign(P·X) = (-1)^{popcount(P & K)} for packed P and
        X that share no odd letter: each odd letter x of X passes the odd
        letters of P that come after it, whose fields lie below x's."""
        odd = self.odd
        mask = 0
        x = packed & odd
        while x:
            top = x.bit_length() - 1
            x ^= 1 << top
            mask ^= odd & ((1 << top) - 1)
        return mask


def _enumerate(degs: tuple[int, ...], degree: int, shifts: tuple[int, ...]) -> tuple[int, ...]:
    """Packed monomials of degree `degree >= 0` in basis order (see
    `basis`), field i at bit offset shifts[i].  The generators may be a
    subsequence of a packing's, with that packing's shifts.

    The monomials of degree r in generators i.. are those of generators
    i+1.. of degree r - e·|x_i|, plus e·x_i, for e from high to low; each
    such list is built once per call and shared by every prefix reaching it.
    `_Basis` reads the same order off the same counts without enumerating.
    """
    reach = _series(degs, degree)  # nonzero iff the remaining degree is reachable
    lists: dict[tuple[int, int], list[int]] = {}

    def suffix(i: int, rem: int) -> list[int]:
        # degree-rem monomials in generators i.., in basis order; reach[i][rem] != 0
        out = lists.get((i, rem))
        if out is None:
            d = degs[i]
            shift = shifts[i]
            nxt = reach[i + 1]
            out = []
            for e in range(1 if d % 2 else rem // d, -1, -1):
                r = rem - e * d
                if r == 0:
                    out.append(e << shift)
                elif r > 0 and nxt[r]:
                    if e:
                        a = e << shift
                        out.extend([a + x for x in suffix(i + 1, r)])
                    else:
                        out.extend(suffix(i + 1, r))
            lists[(i, rem)] = out
        return out

    if degree == 0:
        return (0,)
    return tuple(suffix(0, degree)) if reach[0][degree] else ()


# --- bases and coordinates ----------------------------------------------------


class _Basis(Sequence[Monomial]):
    """The canonical monomials of degree `degree` in `generators`, in basis
    order, as a read-only sequence that stores none of them.

    Ranking and unranking (Nijenhuis and Wilf, *Combinatorial Algorithms*,
    ch. 13) read the count table that prunes `_enumerate`: table[j][r] is
    the number of degree-r monomials in generators j.., so exponent e of
    generator j, with degree r left, heads a run of table[j+1][r - e|x_j|]
    consecutive monomials.  Only iteration enumerates.
    """

    __slots__ = ("_pk", "_degs", "_degree", "_table")

    def __init__(self, generators: Sequence[Generator], degree: int):
        if degree < 0:
            raise AlgebraError("negative degree")
        gens = _sorted_gens(generators)
        for g, h in zip(gens, gens[1:]):
            if g == h:
                raise AlgebraError(f"generator {g.name} repeats in the basis generators")
        self._pk = _Packing(gens, degree)
        self._degs = tuple(g.degree for g in gens)
        self._degree = degree
        self._table = _series(self._degs, degree)

    def __len__(self) -> int:
        return self._table[0][self._degree]

    def __iter__(self) -> Iterator[Monomial]:
        return map(self._pk.monomial, _enumerate(self._degs, self._degree, self._pk.shifts))

    def __getitem__(self, i: int) -> Monomial:
        i = range(len(self))[operator.index(i)]  # IndexError as on a tuple; no slices
        word, r = 0, self._degree
        for j, d in enumerate(self._degs):
            below = self._table[j + 1]
            for e in range(min(1, r // d) if d % 2 else r // d, -1, -1):
                if i < below[r - e * d]:
                    break
                i -= below[r - e * d]
            word += e << self._pk.shifts[j]
            r -= e * d
        return self._pk.monomial(word)

    def rank(self, word: int) -> int:
        """The index of the packed degree-`degree` monomial `word`: the number
        of monomials before it, those with a higher exponent of some generator
        and the same exponents of the generators before that one."""
        pk, i, r = self._pk, 0, self._degree
        for j, d in enumerate(self._degs):
            below = self._table[j + 1]
            e = word >> pk.shifts[j] & pk.masks[j]
            # of the table[j][r] monomials left, those with exponent <= e come last
            i += self._table[j][r] - sum(below[r - f * d] for f in range(e + 1))
            r -= e * d
        return i

    def __contains__(self, m) -> bool:
        # a Monomial is canonical, so it is here when its degree and generators are
        return isinstance(m, Monomial) and m.degree == self._degree and all(
            g in self._pk.index for g, _ in m.factors)

    def index(self, m) -> int:
        """The position of the monomial m; AlgebraError, a ValueError, when m
        is not a Monomial, has another degree or a generator not listed."""
        if m not in self:
            raise AlgebraError(f"monomial {m} not in the degree-{self._degree} basis")
        return self.rank(self._pk.packed(m))


def basis(generators: Sequence[Generator], degree: int) -> Sequence[Monomial]:
    """The ordered monomial basis of the degree-`degree` graded piece.

    Order is graded-lex: higher powers of earlier (lower-degree) generators
    come first, and basis(gens, 0) holds only the unit.  The result is a
    view: its length comes from the Poincaré series, indexing unranks,
    `index` ranks, `in` reads a monomial's degree and generators, and only
    iteration enumerates.  It compares equal to nothing but itself (convert
    with tuple()), and takes no slices.  Repeated generators raise
    AlgebraError.
    """
    return _Basis(generators, degree)


def coordinates(
    generators: Sequence[Generator], p: Polynomial, degree: int
) -> list[Fraction]:
    """Coordinate vector of a homogeneous polynomial over basis(degree)."""
    if p and p.homogeneous_degree() != degree:
        raise AlgebraError(
            f"polynomial has degree {p.homogeneous_degree()}, expected {degree}"
        )
    b = _Basis(generators, degree)
    vec = [ZERO] * len(b)
    for m, c in p._terms.items():
        vec[b.index(m)] = c
    return vec
