"""Minimal Sullivan algebras (ΛV, d) and cochain morphisms between them.

A model is a finite list of generators of degree >= 2 together with a
degree +1 differential sending each generator to a decomposable polynomial.
Models are immutable; equality and hashing are structural (generators plus
differential), ignoring the label, so equal models share the caches keyed by
model (the cohomology complexes).  A model keeps the truncation it returns for
each cutoff, so every `truncate(n)` of one model is one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from .algebra import (
    Generator,
    Monomial,
    Polynomial,
    Q,
    _mul_poly,
    _packed_coeff,
    _Packing,
    _packing_bound,
    basis,
    coordinates,
)

# A packed coefficient: an int while integral, else a Fraction (algebra.py)
Coeff = int | Fraction


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    label: str
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        lines = [f"validation of {self.label}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            lines.append(f"  [{status}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        for w in self.warnings:
            lines.append(f"  [warn] {w}")
        return "\n".join(lines)


class SullivanModel:
    """The pair (ΛV, d): free graded-commutative algebra with differential."""

    __slots__ = (
        "generators", "label", "warnings", "_diff", "_by_name", "_by_degree", "_key", "_hash",
        "_view", "_report", "_truncations",
    )

    def __init__(
        self,
        generators: Iterable[Generator],
        differential: Mapping[str, Polynomial] | None = None,
        label: str = "model",
        warnings: Iterable[str] = (),
    ):
        gens = tuple(sorted(generators, key=lambda g: g.sort_key))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate generator names in {label}")
        diff = {}
        for name, p in (differential or {}).items():
            if name not in names:
                raise ModelError(f"differential given for unknown generator {name}")
            if p:
                diff[name] = p
        self.generators = gens
        self.label = label
        self.warnings = tuple(warnings)
        self._diff = diff
        self._by_name = {g.name: g for g in gens}
        self._key = (
            gens,
            tuple(
                (name, tuple((m, c) for m, c in diff[name].terms()))
                for name in sorted(diff)
            ),
        )
        self._hash = hash(self._key)
        self._by_degree: dict[int, tuple[Generator, ...]] | None = None
        self._view: _PackedModel | None = None
        self._report: ValidationReport | None = None
        self._truncations: dict[int, SullivanModel] = {}

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SullivanModel) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SullivanModel({self.label}: {len(self.generators)} generators)"

    # -- accessors -----------------------------------------------------------

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown generator {name!r} in {self.label}")

    def differential(self, gen: Generator | str) -> Polynomial:
        name = gen if isinstance(gen, str) else gen.name
        self.generator(name)
        return self._diff.get(name, Polynomial.zero())

    @property
    def top_degree(self) -> int:
        return self.generators[-1].degree if self.generators else 0

    def degrees(self) -> list[int]:
        return [g.degree for g in self.generators]

    def gens_of_degree(self, d: int) -> tuple[Generator, ...]:
        table = self._by_degree
        if table is None:
            # generators are sorted by degree; built on first use, since
            # most truncations never ask
            table = self._by_degree = {
                e: tuple(same) for e, same in groupby(self.generators, key=lambda g: g.degree)
            }
        return table.get(d, ())

    @property
    def is_diagonal(self) -> bool:
        degs = self.degrees()
        return len(degs) == len(set(degs))

    def basis(self, degree: int) -> Sequence[Monomial]:
        return basis(self.generators, degree)

    def coordinates(self, p: Polynomial, degree: int):
        return coordinates(self.generators, p, degree)

    # -- the differential as a derivation ------------------------------------

    @property
    def _packed(self) -> "_PackedModel":
        """The packed view, built on first use."""
        view = self._view
        if view is None:
            view = self._view = _PackedModel(self)
        return view

    def d(self, p: Polynomial) -> Polynomial:
        """Leibniz extension: d(ab) = d(a) b + (-1)^|a| a d(b)."""
        if p and not p.is_homogeneous():
            raise ModelError("apply_differential needs a homogeneous polynomial")
        if not p:
            return Polynomial.zero()
        view = self._packed
        pk = view.packing(p.homogeneous_degree() + 1)
        acc: dict[int, Coeff] = {}
        for mono, coeff in view.pack_poly(pk, p).items():
            _add_scaled(acc, coeff, view.d(pk, mono))
        return view.polynomial(pk, acc)

    # -- construction helpers --------------------------------------------------

    def truncate(self, n: int) -> "SullivanModel":
        """Sub-model ΛV^{<=n} with the restricted differential, built once
        per cutoff n and kept (as `self` when nothing is cut)."""
        if n < 0:
            raise ModelError("truncation cutoff must be >= 0")
        if n >= self.top_degree:
            return self
        trunc = self._truncations.get(n)
        if trunc is not None:
            return trunc
        kept = tuple(g for g in self.generators if g.degree <= n)
        kept_names = {g.name for g in kept}
        diff = {}
        for g in kept:
            dg = self._diff.get(g.name)
            if dg is None:
                continue
            for mono in dg.monomials():
                if any(f.name not in kept_names for f, _ in mono.factors):
                    raise ModelError(
                        f"differential of {g.name} leaves ΛV^(<={n}); parent is not minimal"
                    )
            diff[g.name] = dg
        return self._truncations.setdefault(n, SullivanModel(kept, diff, label=f"{self.label}<={n}"))

    def relabel(self, label: str) -> "SullivanModel":
        return SullivanModel(self.generators, self._diff, label=label, warnings=self.warnings)

    # -- validation -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The report of every validation check, computed once per model (the
        model is immutable, so callers that validate on each call pay once)."""
        report = self._report
        if report is None:
            report = self._report = self._validate()
        return report

    def _validate(self) -> ValidationReport:
        checks: list[CheckResult] = []
        bad = [g for g in self.generators if g.degree < 2]
        checks.append(
            CheckResult(
                "1-connected (all generator degrees >= 2)",
                not bad,
                ", ".join(g.name for g in bad),
            )
        )
        deg_bad = []
        for g in self.generators:
            dg = self._diff.get(g.name)
            if dg and dg.homogeneous_degree() != g.degree + 1:
                deg_bad.append(f"d({g.name}) has degree {dg.homogeneous_degree()} != {g.degree + 1}")
        checks.append(CheckResult("differential raises degree by 1", not deg_bad, "; ".join(deg_bad)))
        indec = []
        for g in self.generators:
            dg = self._diff.get(g.name)
            if dg is None:
                continue
            for mono in dg.monomials():
                if mono.word_length < 2:
                    indec.append(f"d({g.name}) contains the indecomposable term {mono}")
        checks.append(CheckResult("minimality (differential decomposable)", not indec, "; ".join(indec)))
        dd_bad = []
        for g in self.generators:
            dg = self._diff.get(g.name)
            if dg and (ddg := self.d(dg)):
                dd_bad.append(f"d(d({g.name})) = {ddg}")
        checks.append(CheckResult("d ∘ d = 0 on generators", not dd_bad, "; ".join(dd_bad)))
        return ValidationReport(self.label, tuple(checks), self.warnings)

    def require_valid(self) -> None:
        """Raise ModelError naming every failed validation check, so no caller
        computes on a non-minimal model or a non-complex."""
        failed = [c for c in self.validate().checks if not c.ok]
        if failed:
            raise ModelError(
                f"{self.label} fails validation: "
                + "; ".join(f"{c.name} ({c.detail})" for c in failed)
            )


class _PackedModel:
    """The packed view of one model: its generators and differential, and per
    degree bound the one packing of that bound (see the packed kernel in
    algebra.py) with the Leibniz table of d in it.  Packed coefficients are
    ints while integral (`algebra._packed_coeff`)."""

    __slots__ = ("label", "gens", "degs", "index", "diff", "diff_terms", "_bounds")

    def __init__(self, model: SullivanModel):
        self.label = model.label
        self.gens = model.generators
        self.degs = tuple(g.degree for g in self.gens)
        self.index = {g: i for i, g in enumerate(self.gens)}
        # d of each active generator, by generator index
        self.diff = {i: model._diff[g.name] for i, g in enumerate(self.gens) if g.name in model._diff}
        # the same, as word terms, for evaluating algebra maps on it
        self.diff_terms = {i: self.word_terms(dv) for i, dv in self.diff.items()}
        self._bounds: dict[int, tuple[_Packing, list]] = {}

    def packing(self, degree: int) -> _Packing:
        """The packing of monomials of degree <= `degree` (one per bound)."""
        return self._bound(degree)[0]

    def _bound(self, degree: int) -> tuple[_Packing, list]:
        bound = _packing_bound(degree)
        entry = self._bounds.get(bound)
        if entry is None:
            # per active generator g: its field, the mask of the odd fields
            # above it (None for an even g), and (T, K(T), c) per term c·T of d(g)
            pk = _Packing(self.gens, bound)
            table = [
                (
                    pk.shifts[i],
                    pk.masks[i],
                    pk.odd & -(2 << pk.shifts[i]) if self.degs[i] % 2 else None,
                    [(t, pk.koszul(t), c) for t, c in self.pack_poly(pk, dg).items()],
                )
                for i, dg in self.diff.items()
            ]
            entry = self._bounds.setdefault(bound, (pk, table))
        return entry

    def d_gen(self, pk: _Packing, i: int) -> dict[int, Coeff]:
        """d of the generator of index i, packed in pk, one of this view's
        packings: the terms of its row of the Leibniz table, the row of its
        field."""
        field = pk.shifts[i]
        for shift, _, _, terms in self._bounds[pk.dmax][1]:
            if shift == field:
                return {t: c for t, _, c in terms}
        return {}

    def pack(self, pk: _Packing, monos: Iterable[Monomial]) -> list[int]:
        """The monomials packed in pk; ModelError for a generator outside the model."""
        try:
            return [pk.packed(m) for m in monos]
        except KeyError as exc:
            raise ModelError(f"generator {exc.args[0].name} is not in {self.label}") from None

    def word_terms(self, p: Polynomial) -> list[tuple[Coeff, tuple[tuple[int, int], ...]]]:
        """p as (packed coefficient, ((generator index, exponent), ...)) per
        term; KeyError(g) for a generator g outside the model."""
        index = self.index
        return [
            (_packed_coeff(c), tuple((index[g], e) for g, e in mono.factors))
            for mono, c in p._terms.items()
        ]

    def pack_poly(self, pk: _Packing, p: Polynomial) -> dict[int, Coeff]:
        """p packed in pk, its integral coefficients as ints."""
        return dict(zip(self.pack(pk, p._terms), map(_packed_coeff, p._terms.values())))

    def polynomial(self, pk: _Packing, terms: Mapping[int, Coeff]) -> Polynomial:
        """The Polynomial of packed terms; its coefficients are Fractions."""
        return Polynomial({pk.monomial(m): c for m, c in terms.items()})

    def d(self, pk: _Packing, mono: int) -> dict[int, Coeff]:
        """Leibniz d of a monomial packed in pk, one of this view's packings,
        of a bound > |mono|.  The term of g in mono = prefix·g^e·suffix is
        rest·d(g), rest = mono - g: an odd g passes the prefix, so the sign is
        (-1)^{|prefix|}, the parity of the odd letters above g's field; for an
        even g, d(g) is odd and passes the suffix, so the term is
        (-1)^{|mono|}·e·rest·d(g).  rest·T is 0 when they share an odd letter
        and signed by K(T) otherwise (`_Packing.koszul`)."""
        odd = pk.odd
        parity = (mono & odd).bit_count() & 1
        out: dict[int, Coeff] = {}
        for shift, mask, above, terms in self._bounds[pk.dmax][1]:
            e = mono >> shift & mask
            if not e:
                continue
            rest = mono - (1 << shift)
            if above is None:
                head = -e if parity else e
            else:
                head = -1 if (mono & above).bit_count() & 1 else 1
            for t, kt, c in terms:
                if rest & t & odd:
                    continue
                val = -head * c if (rest & kt).bit_count() & 1 else head * c
                m = rest + t
                acc = out.get(m)
                if acc is not None:
                    val += acc
                    if not val:
                        del out[m]
                        continue
                out[m] = val
        return out


def _add_scaled(acc: dict[int, Coeff], coeff: Coeff, terms: Mapping[int, Coeff]) -> None:
    """acc += coeff * terms, dropping coefficients that cancel.  Sums of ints
    stay ints; a Fraction enters only with a Fraction coeff or term."""
    for m, c in terms.items():
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def apply_differential(m: SullivanModel, p: Polynomial) -> Polynomial:
    return m.d(p)


def truncate(m: SullivanModel, n: int) -> SullivanModel:
    return m.truncate(n)


def extend_tower(
    m: SullivanModel,
    closing_generator: str,
    new_degree: int,
    exponent: int,
    name: str | None = None,
    label: str | None = None,
) -> SullivanModel:
    """Add a closed generator x of degree d and the term x^k to d(closing_generator).

    Requires d * k == |closing_generator| + 1 so the new term is homogeneous.
    When d is odd and k >= 2 the term normalizes to zero; the model is built
    as the algebra dictates and the event is recorded as a warning.
    """
    z = m.generator(closing_generator)
    if new_degree * exponent != z.degree + 1:
        raise ModelError(
            f"extension degree mismatch: {new_degree} * {exponent} != |{z.name}| + 1 = {z.degree + 1}"
        )
    if name is None:
        name = f"x{new_degree}"
        if name in {g.name for g in m.generators}:
            name = f"x{new_degree}_2"
    if name in {g.name for g in m.generators}:
        raise ModelError(f"generator name {name} already used")
    return _add_tower_term(
        m, z, Generator(name, new_degree), exponent, label or f"{m.label}-{name}-{exponent}"
    )


def _add_tower_term(
    m: SullivanModel, z: Generator, new_gen: Generator, exponent: int, label: str
) -> SullivanModel:
    """Add the closed generator new_gen and the raw term new_gen^exponent to d(z).

    A term that normalizes to zero (odd generator power) is dropped and
    recorded as a warning.  Callers check the degrees.
    """
    raw = [(c, mono.factors) for mono, c in m.differential(z).terms()]
    raw.append((Q(1), ((new_gen, exponent),)))
    dz, vanished = Polynomial.from_raw_terms(raw)
    warnings = list(m.warnings)
    for word in vanished:
        warnings.append(
            f"term {word} in d({z.name}) normalized to zero (odd generator power)"
        )
    diff = {g.name: m.differential(g) for g in m.generators if m.differential(g)}
    diff[z.name] = dz
    return SullivanModel(m.generators + (new_gen,), diff, label=label, warnings=warnings)


# --- cochain morphisms -------------------------------------------------------


class MorphismError(ValueError):
    pass


class CochainMorphism:
    """Algebra morphism determined by generator images, commuting with d.

    The defining identities (degree preservation and d-commutation on every
    generator) are verified at construction time, never assumed.  The
    morphism evaluates θ from one table of image powers (`_ImagePowers`):
    the check d'(θ g) = θ(d g) reads it, and so does every later `apply`.
    A morphism built from images opens its own table; one that a lift or an
    inversion built (`_from_table`) keeps that table, so no image power is
    computed twice, and the check still evaluates d'(θ g) afresh by the
    Leibniz d on each final image.
    """

    __slots__ = ("source", "target", "images", "_theta")

    def __init__(
        self,
        source: SullivanModel,
        target: SullivanModel,
        images: Mapping[str, Polynomial],
    ):
        extra = set(images) - {g.name for g in source.generators}
        if extra:
            raise MorphismError(f"images given for unknown generators {sorted(extra)}")
        self.source = source
        self.target = target
        self.images = {g.name: images.get(g.name, Polynomial.zero()) for g in source.generators}
        self._theta = _ImagePowers(source, target, self.images)
        self._check()

    @classmethod
    def _from_table(
        cls,
        source: SullivanModel,
        target: SullivanModel,
        theta: "_ImagePowers",
        theta_d: list[dict[int, Coeff]] | None = None,
    ) -> "CochainMorphism":
        """The morphism whose generator images a lift or an inversion has
        built in the table theta, whose `images` holds all of them; it keeps
        the table.  theta_d[i], when given, is θ(d g) for the generator g of
        index i, as the lift's stage computed it from the same table."""
        self = object.__new__(cls)
        self.source = source
        self.target = target
        self.images = theta.images
        self._theta = theta
        self._check(theta_d)
        return self

    def _check(self, theta_d: list[dict[int, Coeff]] | None = None) -> None:
        """Check that every image has its generator's degree and that
        d'(θ g) = θ(d g) for every generator g.  d'(θ g) is the Leibniz d of
        the packed image; θ(d g) is theta_d[i] when given, else evaluated
        from the table on the source's packed differential."""
        source, theta = self.source, self._theta
        for g in source.generators:
            img = self.images[g.name]
            if img and img.homogeneous_degree() != g.degree:
                raise MorphismError(
                    f"image of {g.name} has degree {img.homogeneous_degree()}, expected {g.degree}"
                )
        tgt = self.target._packed
        for i, g in enumerate(source.generators):
            pk = theta.packing(g.degree + 1)
            lhs: dict[int, Coeff] = {}
            try:
                for w, c in theta.power(i, 1).items():
                    _add_scaled(lhs, c, tgt.d(pk, w))
            except ModelError as exc:
                raise MorphismError(f"image of {g.name}: {exc}") from None
            rhs = theta_d[i] if theta_d is not None else theta.packed_d(i)
            if lhs != rhs:
                raise MorphismError(
                    f"not a cochain morphism: d(f({g.name})) != f(d({g.name})) "
                    f"({tgt.polynomial(pk, lhs)} != {tgt.polynomial(pk, rhs)})"
                )

    def apply(self, p: Polynomial) -> Polynomial:
        """Multiplicative extension to arbitrary polynomials."""
        try:
            return self._theta(p)
        except ModelError as exc:
            raise MorphismError(str(exc)) from None

    def restrict(self, n: int) -> "CochainMorphism":
        """Restriction ΛV^{<=n} -> ΛW^{<=n} (valid because images preserve degree)."""
        src = self.source.truncate(n)
        tgt = self.target.truncate(n)
        return CochainMorphism(
            src, tgt, {g.name: self.images[g.name] for g in src.generators}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self) -> str:
        return f"CochainMorphism({self.source.label} -> {self.target.label})"


class _ImagePowers:
    """θ: ΛV -> ΛW for the algebra map given by generator images, evaluated
    from a table of packed images and their powers.

    `images` maps names of source generators to target polynomials.  It may
    be partial and may grow between calls, as it does over the stages of a
    lift, as long as an image, once read, does not change.  An image may
    also enter the table packed (`put`), as a lift's stage computes it, next
    to its entry in `images`.  Each entry θ(x)^e of the table is computed
    once, on first use:
    - a one-term image c·w gives c^e·(w·e), the packed w times e, which is 0
      when w has an odd letter and e >= 2;
    - any other image gives the cached θ(x)^{e-1} times θ(x).
    θ of a word x1^e1···xk^ek is then the product of k table entries.  The
    table lives in one packing of ΛW, opened at |top source generator| + 1,
    the degree of the last θ(d v), so it never widens, and never starts
    afresh, while a morphism, a lift or an inversion fills it.  A later
    call of higher degree widens it and starts the table afresh from
    `images`.

    Entries follow the packed kernel's coefficient rule: ints while
    integral, a Fraction only where an image, or a term of d(v), has a true
    denominator.  θ(d v) is evaluated from the source's packed differential
    (`packed_d`), a polynomial argument from its `Polynomial` (`packed`);
    `__call__` returns a `Polynomial`, whose coefficients are Fractions.
    """

    __slots__ = ("_src", "_tgt", "images", "_pk", "_powers")

    def __init__(
        self,
        source: SullivanModel,
        target: SullivanModel,
        images: Mapping[str, Polynomial],
    ):
        self._src = source._packed
        self._tgt = target._packed
        self.images = images
        self._pk = self._tgt.packing(source.top_degree + 1)
        self._powers: dict[tuple[int, int], dict[int, Coeff]] = {}

    def packing(self, degree: int) -> _Packing:
        """The table's packing, widened first if it cannot hold `degree`."""
        if degree > self._pk.dmax:
            self._pk = self._tgt.packing(degree)
            self._powers = {}
        return self._pk

    def put(self, i: int, img: dict[int, Coeff]) -> None:
        """Enter θ(x) for the source generator x of index i, packed in the
        table's packing, before any power of it is read."""
        self._powers[(i, 1)] = img

    def power(self, i: int, e: int) -> dict[int, Coeff]:
        """θ(x)^e, packed in the table's packing, for the source generator x
        of index i."""
        powers = self._powers
        out = powers.get((i, e))
        if out is not None:
            return out
        pk = self._pk
        img = powers.get((i, 1))
        if img is None:
            img = powers[(i, 1)] = self._tgt.pack_poly(pk, self.images[self._src.gens[i].name])
            if e == 1:
                return img
        if len(img) == 1:
            ((w, c),) = img.items()
            out = powers[(i, e)] = {} if w & pk.odd else {w * e: c**e}
            return out
        k = e - 1
        while (i, k) not in powers:
            k -= 1
        out = powers[(i, k)]
        for k in range(k + 1, e + 1):
            out = powers[(i, k)] = _mul_poly(pk, out, img)
        return out

    def packed(self, p: Polynomial) -> dict[int, Coeff]:
        """θ(p), packed in the table's packing; ModelError for a generator
        outside the source."""
        if not p:
            return {}
        self.packing(max(m.degree for m in p._terms))
        try:
            terms = self._src.word_terms(p)
        except KeyError as exc:
            raise ModelError(f"generator {exc.args[0].name} is not in {self._src.label}") from None
        return self._sum(terms)

    def packed_d(self, i: int) -> dict[int, Coeff]:
        """θ(d x), packed in the table's packing, for the source generator x
        of index i, from the source's packed differential; the table's
        packing holds its degree |x| + 1."""
        return self._sum(self._src.diff_terms.get(i, ()))

    def _sum(self, terms) -> dict[int, Coeff]:
        """Σ c·θ(word) over word terms (`_PackedModel.word_terms`)."""
        pk = self._pk
        acc: dict[int, Coeff] = {}
        for coeff, factors in terms:
            term = _UNIT_TERM
            for i, e in factors:
                f = self.power(i, e)
                term = f if term is _UNIT_TERM else _mul_poly(pk, term, f)
            _add_scaled(acc, coeff, term)
        return acc

    def __call__(self, p: Polynomial) -> Polynomial:
        terms = self.packed(p)
        return self._tgt.polynomial(self._pk, terms)


_UNIT_TERM: Mapping[int, Coeff] = {0: 1}


def identity(m: SullivanModel) -> CochainMorphism:
    return CochainMorphism(m, m, {g.name: Polynomial.generator(g) for g in m.generators})


def compose(f: CochainMorphism, g: CochainMorphism) -> CochainMorphism:
    """f ∘ g; morphism invariants are re-verified by the constructor."""
    if g.target != f.source:
        raise MorphismError(
            f"cannot compose: target of {g!r} differs from source of {f!r}"
        )
    images = {name: f.apply(img) for name, img in g.images.items()}
    return CochainMorphism(g.source, f.target, images)
