"""The Whitehead exact sequence of a Sullivan model.

For each n the sequence reads

    ... -> V^n --b^n--> H^{n+1}(ΛV^{<=n-1}) --i--> H^{n+1}(ΛV) --j--> V^{n+1} -> ...

with b^n(v) = [d(v)] and j the projection of a class representative onto its
single-generator part (well defined because differentials are decomposable).
The map b is stored at its domain degree n; section-3 style reports label the
same map by its codomain degree n+1, and reports print both.

Exactness is verified numerically: containments by direct class computations,
im = ker by exact rank bookkeeping.  For the rank of ker(i) we use
dim ker(i) = dim B^{n+1}(ΛV) - dim B^{n+1}(ΛV^{<=n-1}), the difference of the
two image ranks.  This holds because B^{n+1}(ΛV) ⊂ ΛV^{<=n-1} on a minimal
model: generators have degree >= 2, so (ΛV)^n is spanned by V^n and by
products of generators of degree <= n-2; d maps the products into
ΛV^{<=n-2}, and d(V^n) is decomposable of degree n+1, so each of its factors
has degree <= n-1.  `build_wes` therefore refuses a model that fails
validation (`SullivanModel.require_valid` raises ModelError naming every
failed check), a d(v) with a linear term among them.

Every dimension of a node comes from coboundary ranks (`_Complex.rank`, each
computed once per complex and degree) and from Poincaré-series counts of the
bases (`_Complex.basis_size`), so no dimension needs a window:

    dim H^{n+1}(ΛV)  = dim (ΛV)^{n+1} - rank d_n - rank d_{n+1},
    dim Γ^{n+1}      = the same on the complex of the cut ΛV^{<=n-1},
    dim ker(i)       = rank d_n on ΛV - rank d_n on ΛV^{<=n-1}.

Where V^n = V^{n+1} = 0, no monomial of degree n or n+1 holds a generator
of degree >= n, so ΛV^{<=n-1} and ΛV have the same bases in degrees n and
n+1 and the same d on them: ΛV's ranks stand in for the cut's, and no cut is
made.  Then dim Γ^{n+1} = dim H^{n+1}(ΛV) and ker(i) = 0, as exactness of
0 = V^n -> Γ^{n+1} -> H^{n+1}(ΛV) -> V^{n+1} = 0 requires; b and j vanish.

Γ^{n+1} is the cohomology of the cut's own complex (`complex_for` of
`m.truncate(n-1)`), as for any other query on a truncation.  Windows are
built only at the n with V^n != 0, two per node: Γ^{n+1} on the cut, for the
b-columns [d(v)], and H^n(ΛV), for the linear parts of j.  At an n with
V^n = 0, b and j are zero and no window is needed.

`check_exactness` reads windows only at the n with V^n != 0, and there only
the Γ^{n+1} windows `build_wes` built, still cached in the cuts' complexes.
Every class it computes is a [d(v)] or [d(ℓ)] with v, ℓ in V^n: b-fidelity
and b ∘ j = 0 in Γ^{n+1}, and i ∘ b = 0, that is [d(v)] = 0 in
H^{n+1}(ΛV), decided by `solve_coboundary` on the local block of d(v) in ΛV,
with no window.  Every other check compares ranks and dimensions stored in
the nodes.  In the 120-degree range of the builtin models that leaves 6 to
14 degrees per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from . import linalg
from .algebra import Monomial, Polynomial, Q
from .cohomology import CohomologyBasis, cohomology, complex_for, solve_coboundary
from .model import CochainMorphism, SullivanModel


@dataclass(frozen=True)
class WESNode:
    """Numeric summary of the sequence around degree n."""

    n: int
    gens: tuple[str, ...]  # generators spanning V^n
    gamma_dim: int  # dim H^{n+1}(ΛV^{<=n-1})
    h_dim: int  # dim H^{n+1}(ΛV)
    b_columns: tuple[tuple[tuple[int, Fraction], ...], ...]  # sparse class coords of [d v]
    ker_i_dim: int  # dim ker(H^{n+1}(ΛV^{<=n-1}) -> H^{n+1}(ΛV))
    rank_j: int  # rank of j: H^n(ΛV) -> V^n
    j_parts: tuple[tuple[int, tuple[tuple[str, Fraction], ...]], ...]
    # sparse linear parts of H^n(ΛV) representatives: (class position, ((gen, coeff), ...))


@dataclass
class WhiteheadSequence:
    model: SullivanModel
    n_min: int
    n_max: int
    nodes: dict[int, WESNode]

    def gamma_basis(self, n: int) -> CohomologyBasis:
        """H^{n+1}(ΛV^{<=n-1}), the target of b^n."""
        return cohomology(self.model.truncate(n - 1), n + 1)

    def b_matrix(self, n: int) -> list[list[Fraction]]:
        """Dense matrix of b^n (rows: Γ^{n+1} classes, columns: V^n generators)."""
        node = self.nodes[n]
        mat = [[Q(0)] * len(node.gens) for _ in range(node.gamma_dim)]
        for j, col in enumerate(node.b_columns):
            for i, c in col:
                mat[i][j] = c
        return mat

    def __repr__(self) -> str:
        return f"WES({self.model.label}, degrees {self.n_min}..{self.n_max})"


def _node(m: SullivanModel, n: int) -> WESNode:
    # dimensions from coboundary ranks; where V^n = V^{n+1} = 0, ΛV stands in
    # for the cut (see the module docstring)
    gens = m.gens_of_degree(n)
    cut = m.truncate(n - 1) if gens or m.gens_of_degree(n + 1) else m
    cx, cut_cx = complex_for(m), complex_for(cut)
    b_cols = []
    parts: dict[int, dict[str, Fraction]] = {}
    if gens:
        gamma = cohomology(cut, n + 1)
        for g in gens:
            cls = gamma.class_of(m.differential(g))
            b_cols.append(tuple(sorted(cls.coords.items())))
        parts = cohomology(m, n).linear_parts()
    j_parts = tuple(
        (pos, tuple(sorted(d.items()))) for pos, d in sorted(parts.items())
    )
    return WESNode(
        n=n,
        gens=tuple(g.name for g in gens),
        gamma_dim=cut_cx.basis_size(n + 1) - cut_cx.rank(n) - cut_cx.rank(n + 1),
        h_dim=cx.basis_size(n + 1) - cx.rank(n) - cx.rank(n + 1),
        b_columns=tuple(b_cols),
        ker_i_dim=cx.rank(n) - cut_cx.rank(n),
        rank_j=linalg.sparse_rank(parts.values()),
        j_parts=j_parts,
    )


def build_wes(m: SullivanModel, n_max: int | None = None) -> WhiteheadSequence:
    """Materialize the sequence data for 3 <= n <= n_max.

    Defaults to n_max = top generator degree + 1; beyond that every V^n
    vanishes and the sequence carries no further information.
    """
    if n_max is None:
        n_max = max(m.top_degree + 1, 3)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    m.require_valid()
    nodes = {n: _node(m, n) for n in range(3, n_max + 1)}
    return WhiteheadSequence(model=m, n_min=3, n_max=n_max, nodes=nodes)


def j_map(m: SullivanModel, n: int) -> list[list[Fraction]]:
    """Dense matrix of j: H^n(ΛV) -> V^n (rows: generators of degree n)."""
    h = cohomology(m, n)
    gens = m.gens_of_degree(n)
    mat = [[Q(0)] * h.dimension for _ in gens]
    names = {g.name: i for i, g in enumerate(gens)}
    for pos, row in h.linear_parts().items():
        for name, c in row.items():
            mat[names[name]][pos] = c
    return mat


@dataclass(frozen=True)
class ExactnessCheck:
    n: int
    node: str
    ok: bool
    detail: str


@dataclass
class ExactnessReport:
    model_label: str
    checks: list[ExactnessCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ExactnessCheck]:
        return [c for c in self.checks if not c.ok]

    def __str__(self) -> str:
        lines = [
            f"exactness of WES({self.model_label}): {'PASS' if self.ok else 'FAIL'} "
            f"({len(self.checks)} checks)"
        ]
        for c in self.failures():
            lines.append(f"  FAIL at n={c.n} {c.node}: {c.detail}")
        return "\n".join(lines)


def check_exactness(w: WhiteheadSequence) -> ExactnessReport:
    """Verify im = ker at every interior node of the materialized range.

    Also re-verifies that every stored b-column equals [d(v)], and that there
    is one per generator, so corruption of the sequence data is detected and
    localized.  Windows are built only at the n with V^n != 0 (see the module
    docstring).
    """
    m = w.model
    report = ExactnessReport(m.label)
    add = report.checks.append
    for n in range(w.n_min, w.n_max + 1):
        node = w.nodes[n]
        rank_b = linalg.sparse_rank(dict(col) for col in node.b_columns)
        # every class query below is about some v in V^n and the other checks
        # read ranks stored in the node, so only V^n != 0 needs a window
        if node.gens:
            gamma = cohomology(m.truncate(n - 1), n + 1)
        # b-fidelity: stored columns must equal the defining classes [d(v)]
        detail = ""
        if len(node.b_columns) != len(node.gens):
            detail = f"{len(node.b_columns)} stored b-columns != dim V^{n} = {len(node.gens)}"
        else:
            for g, col in zip(node.gens, node.b_columns):
                cls = gamma.class_of(m.differential(g))
                if tuple(sorted(cls.coords.items())) != col:
                    detail = f"stored b-column of {g} differs from [d({g})]"
                    break
        add(
            ExactnessCheck(
                n, f"b^{n} fidelity (codomain label b^{n + 1})", not detail, detail
            )
        )

        # node V^n: im j^n = ker b^n
        dim_v = len(node.gens)
        ok_dim = node.rank_j == dim_v - rank_b
        add(
            ExactnessCheck(
                n,
                f"V^{n}: im j = ker b",
                ok_dim,
                ""
                if ok_dim
                else f"rank j = {node.rank_j}, dim V - rank b = {dim_v - rank_b}",
            )
        )
        # containment b(j(class)) = 0 for classes with a linear part
        if node.j_parts and node.gens:
            for pos, row in node.j_parts:
                d_ell = sum((c * m.differential(name) for name, c in row), Polynomial.zero())
                cls = gamma.class_of(d_ell)
                ok_bj = cls.is_zero()
                add(
                    ExactnessCheck(
                        n,
                        f"V^{n}: b(j(class {pos})) = 0",
                        ok_bj,
                        "" if ok_bj else f"nonzero class {cls.coords}",
                    )
                )

        # node Γ^{n+1}: im b^n = ker i^{n+1}
        ok_ib = True
        detail = ""
        for g in node.gens:
            # [d(g)] = 0 in H^{n+1}(ΛV): d(g) is a coboundary of ΛV
            if solve_coboundary(m, n + 1, m.differential(g)) is None:
                ok_ib = False
                detail = f"i(b({g})) != 0"
                break
        add(ExactnessCheck(n, f"Γ^{n + 1}: i ∘ b = 0", ok_ib, detail))
        ok_dim = rank_b == node.ker_i_dim
        add(
            ExactnessCheck(
                n,
                f"Γ^{n + 1}: im b = ker i",
                ok_dim,
                "" if ok_dim else f"rank b = {rank_b}, dim ker i = {node.ker_i_dim}",
            )
        )

        # node H^{n+1}: im i = ker j^{n+1}  (j ∘ i = 0 holds structurally:
        # Γ-representatives live in ΛV^{<=n-1} and have no degree-(n+1) linear part)
        if n + 1 <= w.n_max:
            up = w.nodes[n + 1]
            im_i = node.gamma_dim - node.ker_i_dim
            ker_j = node.h_dim - up.rank_j
            ok_dim = im_i == ker_j
            add(
                ExactnessCheck(
                    n,
                    f"H^{n + 1}: im i = ker j",
                    ok_dim,
                    "" if ok_dim else f"dim im i = {im_i}, dim ker j = {ker_j}",
                )
            )
    return report


@dataclass
class NaturalityReport:
    degree: int
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __str__(self) -> str:
        status = "commutes" if self.ok else "FAILS"
        lines = [f"naturality square at degree {self.degree}: {status}"]
        for name, ok, detail in self.checks:
            if not ok:
                lines.append(f"  FAIL for {name}: {detail}")
        return "\n".join(lines)


def naturality_check(f: CochainMorphism, n: int) -> NaturalityReport:
    """Verify b' ∘ ξ = H^{n+1}(f|) ∘ b on V^n (the square of the naturality
    diagram at degree n), where ξ is the map induced on indecomposables."""
    src, tgt = f.source, f.target
    gamma_tgt = cohomology(tgt.truncate(n - 1), n + 1)  # Γ^{n+1} of the target
    checks = []
    for g in src.gens_of_degree(n):
        dv = src.differential(g)
        lhs = gamma_tgt.class_of(f.apply(dv))  # H^{n+1}(f_(n-1)) (b(v))
        image = f.images[g.name]
        rhs_poly = Polynomial.zero()
        for w in tgt.gens_of_degree(n):
            c = image.coefficient(Monomial(((w, 1),)))
            if c:
                rhs_poly = rhs_poly + c * tgt.differential(w)
        rhs = gamma_tgt.class_of(rhs_poly)  # b'(ξ(v))
        ok = lhs == rhs
        checks.append(
            (
                g.name,
                ok,
                "" if ok else f"H(f)b = {lhs.coords}, b'ξ = {rhs.coords}",
            )
        )
    return NaturalityReport(n, checks)
