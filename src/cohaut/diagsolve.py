"""Monomial constraint systems for diagonal models.

For models with at most one generator per degree, a graded linear map A -> B
is a tuple of scalars (p_d).  Each monomial M shared by d(v) in A and the
matching d(w) in B contributes one multiplicative equation
p_v = c * prod p_w^{e_w(M)} with c = c^A_M / c^B_M; a monomial on one side
only forces a zero.  The equations are exact (not just necessary) when the
monomials at each degree are linearly independent modulo coboundaries in the
truncated complex of B, which the extractor checks and records as the
completeness flag.  The self-map system is the cross system of (X, X), with
its own notes.

The rational solution set is computed exactly: zero supports are enumerated
over the source variables and propagated; on the nonzero part, signs form an
affine F2 system and absolute values split prime-by-prime into integer
lattice systems solved via Smith normal form.  Infinite families are returned
symbolically (sign kernel + multiplicative kernel directions), never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping

from . import linalg
from .algebra import Generator, Monomial, Q
from .cohomology import residues_independent
from .coherence import GradedLinearMap, LiftResult, try_lift
from .model import SullivanModel

Vector = tuple[Fraction, ...]


class NotDiagonal(ValueError):
    pass


@dataclass(frozen=True)
class Equation:
    """p_target = coeff * prod p_w^{e_w} (factor degrees all < target)."""

    target: int
    coeff: Fraction
    exponents: tuple[tuple[int, int], ...]  # (variable degree, exponent >= 1)

    def __str__(self) -> str:
        rhs = "*".join(
            f"p{d}" if e == 1 else f"p{d}^{e}" for d, e in self.exponents
        )
        if self.coeff != 1:
            rhs = f"({self.coeff})*{rhs}"
        return f"p{self.target} = {rhs}"


@dataclass(frozen=True)
class ZeroForcer:
    """Cross-model constraint from a monomial present on one side only."""

    kind: str  # "lhs": p_target = 0; "rhs": prod p_w^{e_w} = 0
    target: int
    exponents: tuple[tuple[int, int], ...]
    origin: str

    def __str__(self) -> str:
        if self.kind == "lhs":
            return f"p{self.target} = 0 ({self.origin})"
        prod = "*".join(f"p{d}^{e}" if e > 1 else f"p{d}" for d, e in self.exponents)
        return f"{prod} = 0 ({self.origin})"


@dataclass(frozen=True)
class MonomialConstraintSystem:
    source: SullivanModel
    target: SullivanModel
    variables: tuple[int, ...]  # generator degrees, ascending
    equations: tuple[Equation, ...]
    forcers: tuple[ZeroForcer, ...]
    complete: bool
    notes: tuple[str, ...]

    @property
    def dependent_variables(self) -> tuple[int, ...]:
        dep = {eq.target for eq in self.equations}
        dep |= {f.target for f in self.forcers if f.kind == "lhs"}
        return tuple(v for v in self.variables if v in dep)

    @property
    def source_variables(self) -> tuple[int, ...]:
        dep = set(self.dependent_variables)
        return tuple(v for v in self.variables if v not in dep)

    def equations_for(self, v: int) -> list[Equation]:
        return [eq for eq in self.equations if eq.target == v]

    def check_vector(self, values: Mapping[int, Fraction]) -> bool:
        """Brute-force verification of every equation and forcer, exact."""
        for eq in self.equations:
            rhs = eq.coeff
            for d, e in eq.exponents:
                rhs *= values[d] ** e
            if values[eq.target] != rhs:
                return False
        for f in self.forcers:
            if f.kind == "lhs":
                if values[f.target] != 0:
                    return False
            else:
                prod = Q(1)
                for d, e in f.exponents:
                    prod *= values[d] ** e
                if prod != 0:
                    return False
        return True

    def __str__(self) -> str:
        lines = [f"constraint system on degrees {list(self.variables)}:"]
        lines += [f"  {eq}" for eq in self.equations]
        lines += [f"  {f}" for f in self.forcers]
        lines.append(f"  complete: {self.complete}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _require_diagonal(m: SullivanModel) -> None:
    if not m.is_diagonal:
        degs = [d for d in m.degrees() if m.degrees().count(d) > 1]
        raise NotDiagonal(
            f"{m.label} has more than one generator in degree(s) {sorted(set(degs))}"
        )


def _extract(
    a: SullivanModel, b: SullivanModel
) -> tuple[list[Equation], list[ZeroForcer], list[Generator]]:
    """One walk over d(v) in A and the matching d(w) in B (same degree): the
    equations (coefficient c^A_M / c^B_M on each shared monomial M), the zero
    forcers (M on one side only), and the generators v of A whose monomials
    are dependent modulo the coboundaries of ΛB^{≤|v|-1}.  Raises ModelError
    when either model fails validation."""
    a.require_valid()
    b.require_valid()
    b_by_degree = {g.degree: g for g in b.generators}
    equations: list[Equation] = []
    forcers: list[ZeroForcer] = []
    dependent: list[Generator] = []
    for ga in a.generators:
        gb = b_by_degree[ga.degree]
        a_terms = {
            Monomial(tuple((b_by_degree[g.degree], e) for g, e in mono.factors)): c
            for mono, c in a.differential(ga).terms()
        }
        b_terms = dict(b.differential(gb).terms())
        union = sorted(a_terms.keys() | b_terms.keys(), key=Monomial.sort_key)
        for mono in union:
            ca, cb = a_terms.get(mono), b_terms.get(mono)
            exponents = tuple((g.degree, e) for g, e in mono.factors)
            if ca is not None and cb is not None:
                equations.append(Equation(ga.degree, ca / cb, exponents))
            elif ca is not None:
                origin = f"monomial {mono} only in d({ga.name}) of {a.label}"
                forcers.append(ZeroForcer("rhs", ga.degree, exponents, origin))
            else:
                origin = f"monomial {mono} only in d({gb.name}) of {b.label}"
                forcers.append(ZeroForcer("lhs", ga.degree, exponents, origin))
        if union and not residues_independent(
            b.truncate(ga.degree - 1), ga.degree + 1, union
        ):
            dependent.append(ga)
    return equations, forcers, dependent


def _variables(m: SullivanModel) -> tuple[int, ...]:
    return tuple(sorted({g.degree for g in m.generators}))


def extract_constraints(m: SullivanModel) -> MonomialConstraintSystem:
    """The self-map system of a diagonal model: the cross system of (m, m),
    whose coefficient ratios are all 1 and which has no zero forcers."""
    _require_diagonal(m)
    equations, _, dependent = _extract(m, m)
    notes = list(m.warnings)
    notes += [
        f"monomials of d({g.name}) are dependent modulo coboundaries; "
        "the per-monomial equations may be stronger than coherence, so "
        "solver output is a candidate subset, verified by lifting"
        for g in dependent
    ]
    used = {eq.target for eq in equations}
    used |= {d for eq in equations for d, _ in eq.exponents}
    variables = _variables(m)
    notes += [
        f"variable p{v} appears in no equation (unconstrained)"
        for v in variables
        if v not in used
    ]
    return MonomialConstraintSystem(
        m, m, variables, tuple(equations), (), not dependent, tuple(notes)
    )


def extract_cross_constraints(
    a: SullivanModel, b: SullivanModel
) -> MonomialConstraintSystem:
    """The system governing diagonal maps A -> B with invertibility-relevant
    zero forcers for monomials present on one side only.  Coefficient ratios
    are c^A_M / c^B_M on shared monomials."""
    _require_diagonal(a)
    _require_diagonal(b)
    if sorted(a.degrees()) != sorted(b.degrees()):
        raise ValueError(
            f"{a.label} and {b.label} have different generator degree multisets"
        )
    equations, forcers, dependent = _extract(a, b)
    notes = tuple(
        f"monomials at degree {g.degree} are dependent modulo "
        "coboundaries; system is necessary conditions only"
        for g in dependent
    )
    return MonomialConstraintSystem(
        a, b, _variables(a), tuple(equations), tuple(forcers), not dependent, notes
    )


# --- solving ------------------------------------------------------------------


def _prime_factors(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _valuations(c: Fraction) -> dict[int, int]:
    vals = dict(_prime_factors(c.numerator))
    for p, e in _prime_factors(c.denominator).items():
        vals[p] = vals.get(p, 0) - e
    return vals


@dataclass(frozen=True)
class Branch:
    """Solutions with a fixed zero set: signs form a coset of an F2 kernel,
    absolute values a coset of a multiplicative lattice kernel."""

    zero: tuple[int, ...]  # variable degrees forced to zero
    nonzero: tuple[int, ...]
    sign_particular: int  # bitmask over nonzero positions (1 = negative)
    sign_kernel: tuple[int, ...]  # bitmask basis
    pos_particular: tuple[Fraction, ...]  # positive rationals over nonzero
    pos_kernel: tuple[tuple[int, ...], ...]  # integer exponent directions

    @property
    def finite(self) -> bool:
        return not self.pos_kernel

    def count(self) -> int | None:
        return 2 ** len(self.sign_kernel) if self.finite else None

    def _signed(self, mask: int, variables: tuple[int, ...]) -> Vector:
        """The solution with sign bitmask `mask` and the particular absolute values."""
        values = {v: Q(0) for v in self.zero}
        for pos_i, (v, q) in enumerate(zip(self.nonzero, self.pos_particular)):
            values[v] = -q if mask >> pos_i & 1 else q
        return tuple(values[v] for v in variables)

    def particular(self, variables: tuple[int, ...]) -> Vector:
        """The particular solution: particular signs and absolute values."""
        return self._signed(self.sign_particular, variables)

    def iter_vectors(self, variables: tuple[int, ...]) -> Iterator[Vector]:
        """Every solution of a finite branch, the particular one first."""
        if not self.finite:
            raise ValueError("infinite branch cannot be enumerated")
        for bits in range(2 ** len(self.sign_kernel)):
            mask = self.sign_particular
            for i, basis_vec in enumerate(self.sign_kernel):
                if bits >> i & 1:
                    mask ^= basis_vec
            yield self._signed(mask, variables)


@dataclass(frozen=True)
class SolutionSet:
    system: MonomialConstraintSystem
    branches: tuple[Branch, ...]

    @property
    def is_finite(self) -> bool:
        return all(b.finite for b in self.branches)

    @property
    def free_rank(self) -> int:
        """Multiplicative free rank of the invertible (all-nonzero) branch."""
        b = self.invertible_branch()
        return len(b.pos_kernel) if b else 0

    @property
    def torsion_rank(self) -> int:
        b = self.invertible_branch()
        return len(b.sign_kernel) if b else 0

    def invertible_branch(self) -> Branch | None:
        for b in self.branches:
            if not b.zero:
                return b
        return None

    def count(self) -> int | None:
        if not self.is_finite:
            return None
        return sum(b.count() for b in self.branches)

    def solutions(self) -> tuple[Vector, ...]:
        """All solutions of a finite set, ascending lexicographic order."""
        if not self.is_finite:
            raise ValueError("solution set is infinite; inspect branches instead")
        out = []
        for b in self.branches:
            out.extend(b.iter_vectors(self.system.variables))
        return tuple(sorted(set(out)))

    def invertible_solutions(self) -> tuple[Vector, ...]:
        b = self.invertible_branch()
        if b is None:
            return ()
        if not b.finite:
            raise ValueError("invertible part is infinite")
        return tuple(sorted(b.iter_vectors(self.system.variables)))

    def contains(self, vec: Vector) -> bool:
        values = dict(zip(self.system.variables, (Q(x) for x in vec)))
        return self.system.check_vector(values)


def solve(system: MonomialConstraintSystem) -> SolutionSet:
    """Enumerate zero supports over the source variables, propagate forced
    zeros, and solve each feasible support's sign and lattice systems."""
    variables = system.variables
    sources = system.source_variables
    dependents = system.dependent_variables
    lhs_forced = {f.target for f in system.forcers if f.kind == "lhs"}
    branches: list[Branch] = []
    for n_zero in range(len(sources) + 1):
        for zero_combo in combinations(sources, n_zero):
            nonzero: dict[int, bool] = {v: v not in zero_combo for v in sources}
            feasible = True
            for v in dependents:
                status: bool | None = False if v in lhs_forced else None
                for eq in system.equations_for(v):
                    rhs_nonzero = all(nonzero[d] for d, _ in eq.exponents)
                    if status is None:
                        status = rhs_nonzero
                    elif status != rhs_nonzero:
                        feasible = False
                        break
                if not feasible:
                    break
                nonzero[v] = bool(status)
            if not feasible:
                continue
            for f in system.forcers:
                if f.kind == "rhs" and all(nonzero[d] for d, _ in f.exponents):
                    feasible = False
                    break
            if not feasible:
                continue
            branch = _solve_support(system, nonzero)
            if branch is not None:
                branches.append(branch)
    return SolutionSet(system, tuple(branches))


def _solve_support(
    system: MonomialConstraintSystem, nonzero: Mapping[int, bool]
) -> Branch | None:
    nz = tuple(v for v in system.variables if nonzero[v])
    zero = tuple(v for v in system.variables if not nonzero[v])
    pos_of = {v: i for i, v in enumerate(nz)}
    live = [
        eq for eq in system.equations if nonzero[eq.target]
    ]  # all factors nonzero by propagation
    n = len(nz)
    # signs over F2
    rows = []
    rhs_bits = []
    for eq in live:
        row = 1 << pos_of[eq.target]
        for d, e in eq.exponents:
            if e % 2:
                row ^= 1 << pos_of[d]
        rows.append(row)
        rhs_bits.append(1 if eq.coeff < 0 else 0)
    sign_particular = linalg.solve_f2(rows, rhs_bits, n)
    if sign_particular is None:
        return None
    sign_kernel = tuple(linalg.nullspace_f2(rows, n))
    # absolute values: integer lattice per prime
    a_rows = []
    for eq in live:
        row = [0] * n
        row[pos_of[eq.target]] = 1
        for d, e in eq.exponents:
            row[pos_of[d]] -= e
        a_rows.append(row)
    primes: set[int] = set()
    for eq in live:
        primes |= set(_valuations(eq.coeff))
    pos = [Q(1)] * n
    for p in sorted(primes):
        rhs = [_valuations(eq.coeff).get(p, 0) for eq in live]
        y = linalg.integer_solve(a_rows, rhs) if a_rows else [0] * n
        if y is None:
            return None
        for i in range(n):
            pos[i] *= Q(p) ** y[i]
    pos_kernel = tuple(tuple(vec) for vec in linalg.kernel_z(a_rows, n))
    return Branch(
        zero=zero,
        nonzero=nz,
        sign_particular=sign_particular,
        sign_kernel=sign_kernel,
        pos_particular=tuple(pos),
        pos_kernel=pos_kernel,
    )


# --- group structure ------------------------------------------------------------


@dataclass(frozen=True)
class GroupStructure:
    """The group of invertible solutions of a self-map system."""

    order: int | None  # None = infinite
    torsion_rank: int  # elementary-abelian 2-rank
    free_rank: int

    @property
    def name(self) -> str:
        if self.order is None:
            parts = []
            if self.torsion_rank:
                parts.append(f"Z2^{self.torsion_rank}")
            parts.append(f"Q>0^{self.free_rank} (free rank {self.free_rank})")
            return " x ".join(parts)
        if self.torsion_rank == 0:
            return "trivial"
        return f"Z2^{self.torsion_rank}"

    @property
    def paper_name(self) -> str:
        if self.order is None:
            return "infinite"
        if self.torsion_rank == 0:
            return "1"
        return " ⊕ ".join(["Z2"] * self.torsion_rank)

    def __str__(self) -> str:
        order = "infinite" if self.order is None else str(self.order)
        return f"group of order {order}: {self.name}"


def group_structure(solutions: SolutionSet) -> GroupStructure:
    """Ranks and order of the invertible part (self-map systems only)."""
    if solutions.system.source != solutions.system.target:
        raise ValueError("group structure is defined for self-map systems only")
    b = solutions.invertible_branch()
    if b is None:
        return GroupStructure(order=1, torsion_rank=0, free_rank=0)
    if b.pos_kernel:
        return GroupStructure(
            order=None, torsion_rank=len(b.sign_kernel), free_rank=len(b.pos_kernel)
        )
    return GroupStructure(
        order=2 ** len(b.sign_kernel), torsion_rank=len(b.sign_kernel), free_rank=0
    )


# --- lift verification and the canonical grid extension -------------------------


def as_linear_map(
    system: MonomialConstraintSystem, vec: Vector
) -> GradedLinearMap:
    entries = dict(zip(system.variables, (Q(x) for x in vec)))
    return GradedLinearMap.diagonal(system.source, entries, target=system.target)


def lift_verify(
    solutions: SolutionSet,
) -> list[tuple[Vector, bool, str]]:
    """Run try_lift on every solution (finite sets) or on the family
    generators plus one sample per free direction (infinite sets)."""
    system = solutions.system
    vectors: list[Vector] = []
    if solutions.is_finite:
        vectors = list(solutions.solutions())
    else:
        seen = set()
        for b in solutions.branches:
            base = b.particular(system.variables)
            candidates = [base] + [
                b._signed(b.sign_particular ^ kvec, system.variables)
                for kvec in b.sign_kernel
            ]
            for direction in b.pos_kernel:
                alt = dict(zip(system.variables, base))
                for pos_i, v in enumerate(b.nonzero):
                    alt[v] = alt[v] * Q(2) ** direction[pos_i]
                candidates.append(tuple(alt[v] for v in system.variables))
            for vec in candidates:
                if vec not in seen:
                    seen.add(vec)
                    vectors.append(vec)
    out = []
    for vec in vectors:
        result = try_lift(as_linear_map(system, vec))
        out.append(
            (vec, result.ok, "" if result.ok else str(result.obstruction))
        )
    return out


def canonical_extension(
    system: MonomialConstraintSystem, assignment: Mapping[int, Fraction]
) -> Vector:
    """Extend a source-variable assignment to all variables by evaluating each
    dependent variable's first defining equation (ascending degree order)."""
    values: dict[int, Fraction] = {v: Q(assignment[v]) for v in system.source_variables}
    lhs_forced = {f.target for f in system.forcers if f.kind == "lhs"}
    for v in system.dependent_variables:
        if v in lhs_forced:
            values[v] = Q(0)
            continue
        eq = system.equations_for(v)[0]
        rhs = eq.coeff
        for d, e in eq.exponents:
            rhs *= values[d] ** e
        values[v] = rhs
    return tuple(values[v] for v in system.variables)


# --- coherent isomorphism decision ----------------------------------------------


@dataclass(frozen=True)
class IsoDecision:
    isomorphic: bool
    witness: Vector | None
    reason: str
    lift: LiftResult | None = None

    def __str__(self) -> str:
        verdict = "coherently isomorphic" if self.isomorphic else "NOT coherently isomorphic"
        return f"{verdict}: {self.reason}"


def coherent_iso_exists(a: SullivanModel, b: SullivanModel) -> IsoDecision:
    """Decide whether the Whitehead sequences of two diagonal models are
    coherently isomorphic; a TRUE answer carries a lift-verified witness.
    A non-diagonal model raises NotDiagonal whatever the other one is."""
    _require_diagonal(a)
    _require_diagonal(b)
    if sorted(a.degrees()) != sorted(b.degrees()):
        return IsoDecision(
            False, None, "generator degree multisets differ", None
        )
    system = extract_cross_constraints(a, b)
    if system.forcers:
        return IsoDecision(
            False,
            None,
            "a differential monomial exists on one side only, forcing a zero "
            f"entry ({system.forcers[0]})",
            None,
        )
    nonzero = {v: True for v in system.variables}
    branch = _solve_support(system, nonzero)
    if branch is None:
        return IsoDecision(
            False,
            None,
            "no invertible solution: the sign system or the exponent lattice "
            "cannot express the coefficient ratios",
            None,
        )
    witness = branch.particular(system.variables)
    result = try_lift(as_linear_map(system, witness))
    if not result.ok:
        return IsoDecision(
            False,
            witness,
            "solver produced a candidate that fails lift verification "
            f"({result.obstruction}); system marked complete={system.complete}",
            result,
        )
    return IsoDecision(True, witness, "lift-verified witness found", result)
