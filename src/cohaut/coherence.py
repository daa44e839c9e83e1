"""Coherent morphisms: stage-wise lifting of graded linear maps.

A graded linear map ξ: V* -> W* is coherent when it lifts to a cochain
morphism θ: (ΛV, d) -> (ΛW, d') inducing ξ on the indecomposables.  The lift
is built one generator degree at a time: at a generator v of degree n+1 the
equation d'(u) = θ(d v) - d'(ξ v) must be solvable for u in (ΛW^{<=n})^{n+1};
the failure class [θ(d v) - d'(ξ v)] in H^{n+2}(ΛW^{<=n}) is exactly the
defect of the coherence square and is returned as the obstruction.

The algorithm follows one canonical branch: particular solutions u with free
variables zeroed, degrees ascending.  A success is a genuine witness; an
obstruction is evidence along the canonical branch (branch search over all
stage morphisms is out of scope and results are labeled accordingly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .algebra import Generator, Monomial, Polynomial, Q, _packed_coeff, _Packing, poincare_series
from .cohomology import CohomologyClass, class_of, solve_coboundary
from .model import CochainMorphism, Coeff, SullivanModel, _add_scaled, _ImagePowers, _PackedModel


class ShapeError(ValueError):
    pass


class GradedLinearMap:
    """Degree-preserving linear map V* -> W*, one matrix per degree.

    blocks[d] has one row per degree-d target generator and one column per
    degree-d source generator (both in model order); absent degrees are zero.
    """

    __slots__ = ("source", "target", "blocks")

    def __init__(
        self,
        source: SullivanModel,
        target: SullivanModel,
        blocks: Mapping[int, list[list[Fraction]]],
    ):
        self.source = source
        self.target = target
        clean: dict[int, list[list[Fraction]]] = {}
        for d, mat in blocks.items():
            n_rows = len(target.gens_of_degree(d))
            n_cols = len(source.gens_of_degree(d))
            if len(mat) != n_rows or any(len(row) != n_cols for row in mat):
                raise ShapeError(
                    f"block at degree {d} must be {n_rows}x{n_cols}, "
                    f"got {len(mat)}x{len(mat[0]) if mat else 0}"
                )
            if any(any(x for x in row) for row in mat):
                clean[d] = [[x if type(x) is Fraction else Q(x) for x in row] for row in mat]
        self.blocks = clean

    @classmethod
    def diagonal(
        cls,
        source: SullivanModel,
        entries: Mapping[int, Fraction],
        target: SullivanModel | None = None,
    ) -> "GradedLinearMap":
        """Scalar-per-degree map; requires at most one generator per degree."""
        target = target or source
        blocks = {}
        for d, c in entries.items():
            ns, nt = len(source.gens_of_degree(d)), len(target.gens_of_degree(d))
            if ns != 1 or nt != 1:
                raise ShapeError(
                    f"diagonal entry for degree {d} needs exactly one generator "
                    f"on each side (source has {ns}, target has {nt})"
                )
            blocks[d] = [[c]]
        return cls(source, target, blocks)

    @classmethod
    def identity(cls, m: SullivanModel) -> "GradedLinearMap":
        blocks = {}
        for d in sorted({g.degree for g in m.generators}):
            n = len(m.gens_of_degree(d))
            blocks[d] = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
        return cls(m, m, blocks)

    def block(self, d: int) -> list[list[Fraction]]:
        mat = self.blocks.get(d)
        if mat is not None:
            return mat
        return [
            [Q(0)] * len(self.source.gens_of_degree(d))
            for _ in self.target.gens_of_degree(d)
        ]

    def apply_gen(self, g: Generator) -> Polynomial:
        return Polynomial({Monomial(((w, 1),)): c for w, c in self._column(g)})

    def _column(self, g: Generator) -> list[tuple[Generator, Fraction]]:
        """(w, c) for each term c·w of ξ(g), c nonzero, in target order."""
        mat = self.blocks.get(g.degree)
        if mat is None:
            return []
        j = self.source.gens_of_degree(g.degree).index(g)
        return [
            (w, mat[i][j])
            for i, w in enumerate(self.target.gens_of_degree(g.degree))
            if mat[i][j]
        ]

    def diagonal_entries(self) -> dict[int, Fraction]:
        """Per-degree scalars (for diagonal source/target); zero when absent."""
        out = {}
        for d in sorted({g.degree for g in self.source.generators}):
            mat = self.blocks.get(d)
            out[d] = mat[0][0] if mat else Q(0)
        return out

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self ∘ other."""
        if other.target != self.source:
            raise ShapeError("composition shape mismatch")
        degrees = set(self.blocks) | set(other.blocks)
        blocks = {}
        for d in degrees:
            blocks[d] = linalg.matmul(self.block(d), other.block(d))
        return GradedLinearMap(other.source, self.target, blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            return False
        degrees = set(self.blocks) | set(other.blocks)
        return all(self.block(d) == other.block(d) for d in degrees)

    def __repr__(self) -> str:
        if self.source.is_diagonal and self.target.is_diagonal:
            ent = ", ".join(
                f"p{d}={c}" for d, c in self.diagonal_entries().items()
            )
            return f"GradedLinearMap({ent})"
        return f"GradedLinearMap(degrees {sorted(self.blocks)})"


@dataclass(frozen=True)
class Obstruction:
    """First failure of the coherence square along the canonical branch."""

    degree: int  # degree of the failing generator
    generator: str
    failure_class: CohomologyClass  # H(α)∘b − b'∘ξ on the generator, nonzero
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class LiftResult:
    morphism: CochainMorphism | None = None
    obstruction: Obstruction | None = None

    @property
    def ok(self) -> bool:
        return self.morphism is not None

    def __str__(self) -> str:
        if self.ok:
            return f"coherent (witness found): {self.morphism!r}"
        return f"obstructed along canonical branch: {self.obstruction}"


def induced_on_indecomposables(f: CochainMorphism) -> GradedLinearMap:
    """The graded linear map of linear parts of the generator images."""
    blocks: dict[int, list[list[Fraction]]] = {}
    for d in sorted({g.degree for g in f.source.generators}):
        src = f.source.gens_of_degree(d)
        tgt = f.target.gens_of_degree(d)
        mat = [[Q(0)] * len(src) for _ in tgt]
        t_index = {g: i for i, g in enumerate(tgt)}
        for j, g in enumerate(src):
            for mono, c in f.images[g.name].terms():
                lin = mono.linear_generator()
                if lin is not None:
                    mat[t_index[lin]][j] = c
        blocks[d] = mat
    return GradedLinearMap(f.source, f.target, blocks)


def try_lift(xi: GradedLinearMap) -> LiftResult:
    """Run the stage-wise lifting algorithm on ξ.

    Processes generators by ascending degree.  At each generator v the
    correction u solves d'(u) = θ(d v) - d'(ξ v) inside the target truncation
    below |v|; inconsistency yields the obstruction class in
    H^{|v|+1}(ΛW^{<=|v|-1}).  One table of image powers serves every stage:
    d(v) involves only generators of lower degree, whose images are final.
    The table is opened at |top generator| + 1, so it never widens during
    the lift, and the stages stay packed in it: ξ(v), θ(d v) (from the
    source's packed differential), the right-hand side and the image
    ξ(v) + u, with int coefficients while they are integral.  A
    `Polynomial` is built only for a nonzero right-hand side, which
    `solve_coboundary` and `class_of` take, and for each stage's image,
    which goes into the public `images` as it enters the table.  The
    returned morphism keeps the table and each stage's θ(d v), and its
    check evaluates d'(θ v) afresh from each final image.  Raises
    ModelError when either model fails validation.
    """
    source, target = xi.source, xi.target
    source.require_valid()
    target.require_valid()
    images: dict[str, Polynomial] = {}
    theta = _ImagePowers(source, target, images)
    tgt = target._packed
    pk = theta.packing(source.top_degree + 1)  # the table's own packing
    theta_d: list[dict[int, Coeff]] = []
    for i, v in enumerate(source.generators):
        n1 = v.degree
        theta_dv = theta.packed_d(i)
        theta_d.append(theta_dv)
        image, rhs = _linear_stage(xi, tgt, pk, v, theta_dv)
        if rhs:
            trunc = target.truncate(n1 - 1)
            rhs_poly = tgt.polynomial(pk, rhs)
            u = solve_coboundary(trunc, n1 + 1, rhs_poly)
            if u is None:
                cls = class_of(trunc, n1 + 1, rhs_poly)
                coords = ", ".join(f"{j}: {c}" for j, c in cls.coords.items())
                return LiftResult(
                    obstruction=Obstruction(
                        degree=n1,
                        generator=v.name,
                        failure_class=cls,
                        message=(
                            f"lifting fails at {v.name} (degree {n1}): the class "
                            f"H(α)b({v.name}) - b'ξ({v.name}) = {{{coords}}} is nonzero "
                            f"in H^{n1 + 1}(Λ{target.label}^(<={n1 - 1}))"
                        ),
                    )
                )
            _add_scaled(image, 1, tgt.pack_poly(pk, u))
        theta.put(i, image)
        images[v.name] = tgt.polynomial(pk, image)
    return LiftResult(morphism=CochainMorphism._from_table(source, target, theta, theta_d))


def _linear_stage(
    xi: GradedLinearMap,
    tgt: _PackedModel,
    pk: _Packing,
    v: Generator,
    theta_dv: dict[int, Coeff],
) -> tuple[dict[int, Coeff], dict[int, Coeff]]:
    """ξ(v) and the right-hand side θ(d v) - d'(ξ v) of v's stage, packed in
    pk.  ξ(v) = Σ c·w is linear, so d'(ξ v) = Σ c·d'(w), each d'(w) read
    from the target's Leibniz table.  An integral entry c of ξ enters as an
    int."""
    xi_v: dict[int, Coeff] = {}
    rhs = dict(theta_dv)
    for w, c in xi._column(v):
        c = _packed_coeff(c)
        k = tgt.index[w]
        xi_v[1 << pk.shifts[k]] = c
        _add_scaled(rhs, -c, tgt.d_gen(pk, k))
    return xi_v, rhs


def is_coherent(xi: GradedLinearMap) -> tuple[bool, LiftResult]:
    result = try_lift(xi)
    return result.ok, result


def invert_coherent(
    xi: GradedLinearMap, theta: CochainMorphism
) -> tuple[GradedLinearMap, CochainMorphism]:
    """Inverse of a coherent isomorphism together with an inverse lift.

    θ is triangular for the word-length filtration (θ(v) = ξ(v) + decomposable),
    so the inverse is built by back-substitution through ascending degrees.
    """
    if theta.source != xi.source or theta.target != xi.target:
        raise ShapeError("theta is not a morphism between ξ's models")
    if induced_on_indecomposables(theta) != xi:
        raise ShapeError("theta does not induce ξ on the indecomposables")
    inv_blocks: dict[int, list[list[Fraction]]] = {}
    for d in sorted({g.degree for g in xi.source.generators}):
        inv = linalg.inverse(xi.block(d))
        if inv is None:
            raise ShapeError(f"ξ is not invertible in degree {d}")
        inv_blocks[d] = inv
    inv_xi = GradedLinearMap(xi.target, xi.source, inv_blocks)
    inv_images: dict[str, Polynomial] = {}
    # the back-substitution's table, handed on to the inverse morphism
    inv_theta = _ImagePowers(xi.target, xi.source, inv_images)
    for w in xi.target.generators:
        lin = inv_xi.apply_gen(w)  # ξ^{-1}(w) in the source generators
        junk = theta.apply(lin) - Polynomial.generator(w)  # decomposable, lower gens
        inv_images[w.name] = lin - inv_theta(junk)
    return inv_xi, CochainMorphism._from_table(xi.target, xi.source, inv_theta)


@dataclass(frozen=True)
class GapRow:
    degree: int  # a generator degree d
    gap_dim: int  # dim (ΛV^{<=d-1})^d, the space of possible corrections u
    unique: bool  # True when the stage lift is forced (gap is zero)


@dataclass(frozen=True)
class GapReport:
    model_label: str
    rows: tuple[GapRow, ...]

    @property
    def all_unique(self) -> bool:
        return all(r.unique for r in self.rows)

    def __str__(self) -> str:
        lines = [f"stage-correction gaps of {self.model_label}:"]
        for r in self.rows:
            status = "unique lift" if r.unique else "condition FAILS"
            lines.append(
                f"  degree {r.degree}: dim (Λ^(<={r.degree - 1}))^{r.degree} = "
                f"{r.gap_dim} -> {status}"
            )
        if not self.all_unique:
            lines.append(
                "  stage lifts are not unique at the flagged degrees; lifting "
                "follows the canonical branch (free variables zero)"
            )
        return "\n".join(lines)


def gap_report(m: SullivanModel) -> GapReport:
    """Per generator degree d: dimension of (ΛV^{<=d-1})^d.

    A zero gap at every stage means each graded linear map has at most one
    stage lift, so obstruction answers are decisive rather than one-branch.
    """
    rows = []
    for d in sorted({g.degree for g in m.generators}):
        below = tuple(g.degree for g in m.generators if g.degree < d)
        gap = poincare_series(below, d)[d]
        rows.append(GapRow(degree=d, gap_dim=gap, unique=gap == 0))
    return GapReport(m.label, tuple(rows))
