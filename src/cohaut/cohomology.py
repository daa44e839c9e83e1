"""Degree-wise cochain cohomology of Sullivan models over Q.

The cochain complex of a model in a fixed degree window splits into connected
components: two monomials interact only when one appears in the differential
of the other.  Most monomials of a big model are inert (closed, and never hit
by a differential), so they are their own cohomology classes; the remaining
active monomials fall into small components on which dense exact elimination
is cheap.  A component with one degree-k member carries no class (its member
is exact or not closed, see `_components`), so it is kept as a member of one
of two int sets, not as a `_Component`.  Dimensions need only the two
boundary ranks per component, so the kernel and representative data are
computed lazily, on first access.  Classes are numbered in basis order: an
inert monomial has one, and a block's first degree-k member (its head) is
followed by the block's echelon classes.  An inert monomial's position is
counted from its rank in the degree-k basis (`algebra._rank`), the active
members before it and the classes of the heads before it, so a window stores
no inert monomial.

Monomials are packed exponent vectors (`algebra._Packing`): one int each,
generator 0 most significant, so descending int order is basis order and a
product is an integer sum.  The packed int is the only name of a monomial: a
coboundary column names the packed monomials it hits, and a window's blocks,
heads, one-member sets and class queries name degree-k monomials the same
way, so nothing keeps a basis position.  Positions are class coordinates
only.  No window enumerates a basis: the inert monomials are counted and
ranked against the Poincaré series' count table, and unranked only to name
a representative.

Every column comes from a template.  A generator is closed when d of it is 0
and active otherwise.  A monomial with an active factor is P·A, with P a
monomial in the closed generators and A != 1 a word in the active ones; in
canonical order it is M = κ(P, A)·P·A, where κ(P, X) is the Koszul sign of
the product P·X.  Since d(P) = 0, d(M) = κ(P, A)·(-1)^{|P|}·P·d(A), which is
the sum of κ(P, A)·(-1)^{|P|}·κ(P, T)·c·(P + T) over the terms c·T of d(A);
P·T = 0 when P and T share an odd letter, and distinct T give distinct
P + T, so nothing cancels.  Each of the three signs is (-1)^n, n the number
of odd letters of P under a mask: all of them for (-1)^{|P|}, and for
κ(P, X), per odd letter x of X, those that come after x (`_Packing.koszul`).
The three masks XOR into one sign mask per template term.  So d(A) is expanded
once per active word (`_Complex._words`; active words are enumerated by
degree, as an even active generator gives infinitely many), and a column
costs one addition and at most one popcount per term.  The columns of degree
k enumerate no basis of ΛV, only the closed monomials of degree k - |A|.

Where only a dimension is wanted, the complex answers from per-degree ranks:
`_Complex.rank(k)` is the rank of d: (ΛV)^k -> (ΛV)^{k+1}, so that
dim H^k = dim (ΛV)^k - rank(k-1) - rank(k).  It splits the columns of that
one map into blocks with the same union-find as the window split (`_blocks`)
and sums the block ranks; a block with one column or one hit row has rank 1
without elimination, since stored columns are nonzero.  Each rank is computed
once and kept, as an int, for the life of the complex.

A generator is free when it is closed and appears in no differential.  With F
the span of the free generators and V' the rest, (ΛV, d) = (ΛF, 0) ⊗ (ΛV', d')
as complexes: d(f·c) = (-1)^{|f|} f·d'(c) for a monomial f of ΛF and c in ΛV',
because d(f) = 0 and d(V') lies in ΛV'.  Ordering (ΛV)^k by f, the matrix of
d_k is block-diagonal with one block ±d'_{k-j} per degree-j monomial f, and a
sign on a block does not change its rank, so
rank d_k = Σ_j dim(ΛF)^j · rank d'_{k-j} (the Künneth formula).  A complex with
free generators takes its ranks that way from the complex of the core model
ΛV' (`_Complex.core`, from `complex_for`, so equal cores share their ranks),
and dim(ΛF)^j from the Poincaré series: the rank path of such a model
enumerates no basis of ΛV and builds no column.  Windows are built on ΛV's
own columns.

A truncation ΛV^{<=c} is a model of its own (`SullivanModel.truncate`, one
object per set of generators kept), so its cohomology has the one path every
model has: its own complex, with its ranks and windows, in `complex_for`.
Equal cuts are equal models and share that complex.  Generators that only
the dropped ones use become free in the cut, so its ranks may come from a
core by the Künneth formula above.

Questions about a few degree-k monomials (`residues_independent`,
`solve_coboundary`) are answered on their local block, not on a window.  The
block is the closure of the queried monomials over the edges u -> M of
d: degree k-1 -> k.  Forward edges are the terms of d(u).  Backward edges come
from divisibility: d is a derivation, so M is a term of d(u) only if
u = (M/t)·v for a generator v and a term t of d(v) dividing M; each such
candidate is kept if M survives in d(u).  The pairs (v, t), with the field
and exponent of each letter of t, are read from the packed view's Leibniz
table (`_PackedModel.table`), so a block packs no `Polynomial`.  The
closure is exact: d(u) lies in u's block, so a relation Σ aᵢMᵢ = d(Σ bⱼuⱼ)
restricts to the blocks of the Mᵢ.  `solve_coboundary` orders the block's
columns by basis order (descending packed ints, as `_enumerate` lists
them).  The system of the whole degree is block-diagonal, and the pivot
columns of a block-diagonal matrix are the union of each block's pivot
columns in any interleaving, so the free-variables-zero solution is the one
the whole degree-k system gives; blocks with a zero right-hand side
contribute 0.

Column entries are the packed kernel's coefficients, ints while integral
(algebra.py), so blocks are eliminated in int arithmetic until a pivot
division makes a Fraction.  Public coefficients are Fractions: a
representative is a `Polynomial`, class coordinates of a `Polynomial` are
computed from its Fractions, and `linear_parts` converts its entries.

All public results (dimensions, representative order, class coordinates) are
deterministic.  Cohomology is computed per (model, degree) on demand.  Two
bounded caches hold what is read again: the complexes (`complex_for`, the 32
last models, truncations and cores included) and, per complex, the 4 last
windows; a complex also keeps its ranks and active-word templates.  Columns
are rebuilt on each call, and no basis of ΛV is enumerated.
A window holds no reference to its complex, so an evicted complex is freed
as soon as nothing else refers to it.  Insertion uses atomic insert-if-absent
semantics, so concurrent readers are safe.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Callable

from . import linalg
from .algebra import (
    Monomial,
    Polynomial,
    Q,
    _enumerate,
    _Packing,
    _rank,
    _series,
    _unrank,
    poincare_series,
)
from .model import SullivanModel, _PackedModel

_Q0 = Q(0)
_Q1 = Q(1)


class NotACocycle(ValueError):
    pass


class _LRU:
    """Tiny thread-safe LRU map with insert-if-absent semantics."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get_or_create(self, key, factory: Callable):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        value = factory()
        with self._lock:
            if key not in self._data:
                self._data[key] = value
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
            return self._data[key]


class _Complex:
    """Ranks, active-word templates and windows of one model's cochain
    complex, on the model's packed view.

    Monomials are packed ints (`algebra._Packing`).  Everything at degree k
    (columns(k) and the window at k) uses the view's packing of degree k + 1;
    the window at k also reads columns(k - 1) in it.  Columns are built on
    each call and not kept: a window keeps the two column dicts its blocks
    read, and a rank keeps only its int.
    """

    def __init__(self, model: SullivanModel):
        self.model = model
        self.view = view = model._packed
        self._windows = _LRU(4)
        self._ranks: dict[int, int] = {}
        # templates of the active words, by (packing bound, word degree)
        self._templates: dict[tuple[int, int], list[tuple[int, list[tuple[int, int, Fraction]]]]] = {}
        diff = view.diff_terms
        n = len(view.degs)
        self._active = tuple(i for i in range(n) if i in diff)
        self._closed = tuple(i for i in range(n) if i not in diff)
        # free generators: closed, and a letter of no term of any differential
        used = {j for dv in diff.values() for _, letters in dv for j, _ in letters}
        self._free = [i for i in self._closed if i not in used]
        self._core: _Complex | None = None

    def basis_size(self, degree: int) -> int:
        """len(basis(degree)), counted from the Poincaré series."""
        return poincare_series(self.view.degs, degree)[degree] if degree >= 0 else 0

    def columns(
        self, degree: int, pk: _Packing | None = None
    ) -> dict[int, list[tuple[int, Fraction]]]:
        """Sparse coboundary columns of basis(degree), packed in `pk` (by
        default the packing of degree + 1): each nonzero column, keyed by its
        monomial, as (degree-(k+1) monomial, coefficient) rows.  Built from
        the templates of the active words: the monomial P + A (P closed, A
        active) has the rows P + T, signed by the mask of the template term T
        of d(A) (see the module docstring)."""
        if degree < 0:
            return {}
        if pk is None:
            pk = self.view.packing(degree + 1)
        degs = self.view.degs
        closed_degs = tuple(degs[i] for i in self._closed)
        closed_shifts = tuple(pk.shifts[i] for i in self._closed)
        n_words = poincare_series(tuple(degs[i] for i in self._active), degree)
        odd = pk.odd
        cols: dict[int, list[tuple[int, Fraction]]] = {}
        for j in range(1, degree + 1):
            words = self._words(j, pk) if n_words[j] else ()
            if not words:
                continue
            closed = _enumerate(closed_degs, degree - j, closed_shifts)
            for a, terms in words:
                for p in closed:
                    if p & odd:
                        col = [
                            (p + t, -c if (p & signs).bit_count() & 1 else c)
                            for t, signs, c in terms
                            if not p & t & odd
                        ]
                        if col:
                            cols[p + a] = col
                    else:
                        cols[p + a] = [(p + t, c) for t, _, c in terms]
        return cols

    def _words(self, degree: int, pk: _Packing) -> list[tuple[int, list[tuple[int, int, Fraction]]]]:
        """The templates of the degree-`degree` active words A with d(A) != 0:
        (A, [(T, sign mask, c) for each term c·T of d(A)]), kept per packing.
        The sign mask is odd ^ K(A) ^ K(T), with the Koszul masks K of
        `_Packing.koszul`."""
        key = (pk.dmax, degree)
        words = self._templates.get(key)
        if words is None:
            view = self.view
            active = self._active
            words = []
            for a in _enumerate(
                tuple(view.degs[i] for i in active), degree, tuple(pk.shifts[i] for i in active)
            ):
                image = view.d(pk, a)
                if image:
                    base = pk.odd ^ pk.koszul(a)
                    words.append((a, [(t, base ^ pk.koszul(t), c) for t, c in image.items()]))
            words = self._templates.setdefault(key, words)
        return words

    @property
    def core(self) -> "_Complex | None":
        """The complex of ΛV', the model without its free generators, or None
        when it has none; built on first use."""
        if not self._free:
            return None
        if self._core is None:
            model = self.model
            gens = [g for i, g in enumerate(model.generators) if i not in self._free]
            diff = {g.name: model.differential(g) for g in gens}
            self._core = complex_for(SullivanModel(gens, diff, label=f"{model.label} core"))
        return self._core

    def rank(self, degree: int) -> int:
        """Rank of d: basis(degree) -> basis(degree + 1), kept per degree.
        With free generators, by the Künneth formula from the core's ranks."""
        r = self._ranks.get(degree)
        if r is None:
            core = self.core
            if core is None:
                r = _coboundary_rank(self.columns(degree))
            else:
                free = tuple(self.view.degs[i] for i in self._free)
                sizes = poincare_series(free, degree)
                r = sum(sizes[j] * core.rank(degree - j) for j in range(degree + 1) if sizes[j])
            self._ranks[degree] = r
        return r

    def window(self, degree: int) -> "_Window":
        return self._windows.get_or_create(degree, lambda: _Window.build(self, degree))


_COMPLEXES = _LRU(32)


def complex_for(model: SullivanModel) -> _Complex:
    return _COMPLEXES.get_or_create(model, lambda: _Complex(model))


class _Component:
    """One connected block of the window with at least two degree-k members:
    active monomials at k-1, k, k+1.

    Boundary ranks (hence the local cohomology dimension) are computed
    eagerly; kernel and representative data only on first use.
    """

    __slots__ = (
        "rows_k",
        "cols_k_members",
        "_cols_k_src",
        "img_rows",
        "img_pivots",
        "dim_h",
        "_h_rows",
        "_h_pivots",
    )

    def __init__(self, members_km1, members_k, cols_km1, cols_k):
        self.rows_k = rows = sorted(members_k, reverse=True)  # basis order
        self._cols_k_src = cols_k
        n = len(rows)
        img_vecs = []
        for c in sorted(members_km1):
            v = [_Q0] * n
            for r, val in cols_km1[c]:
                v[self.row(r)] = val
            img_vecs.append(v)
        red, self.img_pivots, rk = linalg.rref(img_vecs)
        self.img_rows = red[:rk]
        self.cols_k_members = members = [g for g in rows if g in cols_k]
        if len(members) == 1:
            rank_out = 1  # a stored column is nonzero by construction
        else:
            rank_out = linalg.rank(self._outgoing_matrix())
        self.dim_h = n - rank_out - len(self.img_rows)
        self._h_rows = None
        self._h_pivots = None

    def row(self, mono: int) -> int:
        """Local row of the packed degree-k member `mono` (rows_k descends)."""
        return bisect.bisect_left(self.rows_k, -mono, key=operator.neg)

    def _outgoing_matrix(self):
        """Dense matrix of the outgoing differential, rows = hit monomials at
        k+1, columns = this block's degree-k monomials (only nonzero ones)."""
        cols_k = self._cols_k_src
        up_rows: dict[int, int] = {}
        entries = []
        for g in self.cols_k_members:
            col = cols_k[g]
            for r, _ in col:
                if r not in up_rows:
                    up_rows[r] = len(up_rows)
            entries.append((self.row(g), col))
        if not up_rows:
            return []
        mat = [[_Q0] * len(self.rows_k) for _ in range(len(up_rows))]
        for j, col in entries:
            for r, val in col:
                mat[up_rows[r]][j] = val
        return mat

    def _ensure_h(self):
        if self._h_rows is not None:
            return
        kernel = linalg.nullspace(self._outgoing_matrix(), len(self.rows_k))
        reduced = [v for v in (self._reduce_by_image(k) for k in kernel) if any(v)]
        red, self._h_pivots, rk = linalg.rref(reduced)
        self._h_rows = red[:rk]

    @property
    def h_rows(self):
        self._ensure_h()
        return self._h_rows

    @property
    def h_pivots(self):
        self._ensure_h()
        return self._h_pivots

    def _reduce_by_image(self, v: list[Fraction]) -> list[Fraction]:
        v = list(v)
        for row, p in zip(self.img_rows, self.img_pivots):
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def class_coords(self, v: list[Fraction]) -> list[Fraction]:
        """Coordinates over h_rows; raises NotACocycle if v is not in ker+im."""
        w = self._reduce_by_image(v)
        coords = []
        for row, p in zip(self.h_rows, self.h_pivots):
            f = w[p]
            coords.append(f)
            if f:
                w = [x - f * y for x, y in zip(w, row)]
        if any(w):
            raise NotACocycle("vector is not a cocycle of this complex")
        return coords


def _blocks(*maps) -> list[list[tuple]]:
    """Connected blocks of consecutive coboundary maps: `maps[i]` holds the
    sparse columns from level i to level i+1, and a node is a pair (level,
    key).  Union-find over every stored column and the rows it hits; nodes
    that no column touches appear in no block."""
    parent: dict[tuple, tuple] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for level, cols in enumerate(maps):
        for c, col in cols.items():
            a = (level, c)
            parent.setdefault(a, a)
            for r, _ in col:
                b = (level + 1, r)
                parent.setdefault(b, b)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[tuple, list[tuple]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


def _components(cols_km1, cols_k) -> tuple[list[_Component], set[int], set[int]]:
    """The connected blocks of a window, from its coboundary columns
    degree k-1 -> k and k -> k+1 (level 0 = degree k-1): the blocks with at
    least two degree-k members, in basis order of their first one, and the
    sets `exact` and `unclosed` of the members of the blocks with one.
    Blocks living entirely at k-1/k+1 contribute nothing and are dropped.

    A block with one degree-k member M carries no class.  If it has a
    degree-(k-1) member u, then d(u) lies in the block and is a nonzero
    stored column, so d(u) = c·M with c != 0, d(M) = d(d(u))/c = 0, and M is
    exact.  Otherwise M is in the block only through its own column, so
    d(M) != 0 and M is not closed.  d is block-diagonal, so a cocycle has
    coefficient 0 at an unclosed M, and an exact M is 0 in cohomology:
    either way the block's dim_h is 0, and it needs no `_Component`."""
    comps = []
    exact: set[int] = set()
    unclosed: set[int] = set()
    for members in _blocks(cols_km1, cols_k):
        mk = [m for d, m in members if d == 1]
        if len(mk) > 1:
            comps.append(
                _Component([m for d, m in members if d == 0], mk, cols_km1, cols_k)
            )
        elif mk:
            (exact if any(d == 0 for d, _ in members) else unclosed).add(mk[0])
    comps.sort(key=lambda comp: comp.rows_k[0], reverse=True)
    return comps, exact, unclosed


def _coboundary_rank(cols: dict[int, list[tuple[int, Fraction]]]) -> int:
    """Rank of the map with these sparse columns, summed over its blocks.  A
    block with one column or one hit row has rank 1, since a stored column
    is nonzero; the others are eliminated densely (one row per column)."""
    total = 0
    for members in _blocks(cols):
        src = [c for level, c in members if level == 0]
        hit = [r for level, r in members if level == 1]
        if len(src) == 1 or len(hit) == 1:
            total += 1
            continue
        local = dict(zip(hit, range(len(hit))))
        mat = [[_Q0] * len(hit) for _ in src]
        for row, c in zip(mat, src):
            for r, val in cols[c]:
                row[local[r]] = val
        total += linalg.rank(mat)
    return total


class _Window:
    """Cohomology data of one model at one degree k (uses degrees k-1..k+1).

    A window is a value: its packing, its degree and its blocks, with no
    reference to the complex it came from.  Monomials are named by their
    packed ints in `packing`, that of degree k+1 (see `_Complex`), at every
    degree k-1..k+1.  It is built only by `build`, on the complex of its
    model, a truncation included.

    The class layout follows basis order (descending packed ints).  A
    degree-k monomial is inert (closed and hit by nothing: one class), a
    member of a block (`components`: dim_h classes, placed at the block's
    first member, its head), or the member of a one-member block (`exact`
    or `unclosed`: no class, see `_components`).  The window keeps only the
    active members (`active`: those of the blocks and both sets, in basis
    order), and the heads of the blocks with classes (`heads`) with their
    first class positions.  An inert monomial's first class position is its
    rank in the degree-k basis (`algebra._rank`, O(1) per generator), minus
    the active members before it, plus the classes of the heads before it
    (`_start`); the dimension is counted the same way.  So no window
    enumerates a basis, and the inert monomials, most of the degree-k basis,
    cost nothing.
    """

    def __init__(
        self,
        packing: _Packing,
        k: int,
        degs: tuple[int, ...],
        components: list[_Component],
        exact: set[int],
        unclosed: set[int],
    ):
        self.packing = packing
        self.degree = k
        self.components = components
        self.exact = exact
        self.unclosed = unclosed
        self.comp_of_k = {m: cid for cid, comp in enumerate(components) for m in comp.rows_k}
        self.active = sorted([*self.comp_of_k, *exact, *unclosed], reverse=True)
        table = _series(degs, k)
        self._rank = functools.partial(_rank, degs, table, packing.shifts, packing.masks, k)
        self._unrank = functools.partial(_unrank, degs, table, packing.shifts, k)
        self.inert = table[0][k] - len(self.active)
        with_classes = [comp for comp in components if comp.dim_h]
        self.heads = [comp.rows_k[0] for comp in with_classes]
        # _classes_before[j]: the classes of the heads before head j
        self._classes_before = list(
            itertools.accumulate((comp.dim_h for comp in with_classes), initial=0)
        )
        self.dimension = self.inert + self._classes_before[-1]
        # the first class position of each block with classes, by block id
        self._start_of = {
            cid: self._start(comp.rows_k[0]) for cid, comp in enumerate(components) if comp.dim_h
        }
        self._head_starts = list(self._start_of.values())

    @classmethod
    def build(cls, cx: _Complex, k: int) -> "_Window":
        pk = cx.view.packing(k + 1)
        return cls(pk, k, cx.view.degs, *_components(cx.columns(k - 1, pk), cx.columns(k, pk)))

    # -- queries ----------------------------------------------------------------

    def _start(self, anchor: int) -> int:
        """First class position of an inert monomial or a head: the inert
        monomials before it (its rank less the active members before it),
        plus the classes of the heads before it."""
        key = operator.neg
        return (
            self._rank(anchor)
            - bisect.bisect_left(self.active, -anchor, key=key)
            + self._classes_before[bisect.bisect_left(self.heads, -anchor, key=key)]
        )

    def class_of_vec(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Class coordinates (sparse, by class position) of a cocycle vector:
        inert monomials are classes, exact ones are 0, an unclosed one must
        have coefficient 0, and the rest is split into one dense vector per
        block."""
        out: dict[int, Fraction] = {}
        parts: dict[int, list[Fraction]] = {}
        for mono, val in vec.items():
            cid = self.comp_of_k.get(mono)
            if cid is None:
                if mono in self.unclosed:
                    if val:
                        raise NotACocycle("vector is not a cocycle of this complex")
                elif mono not in self.exact:
                    out[self._start(mono)] = val
                continue
            comp = self.components[cid]
            v = parts.get(cid)
            if v is None:
                v = parts[cid] = [_Q0] * len(comp.rows_k)
            v[comp.row(mono)] = val
        for cid, v in sorted(parts.items()):
            comp = self.components[cid]
            for local_no, coord in enumerate(comp.class_coords(v)):
                if coord:
                    out[self._start_of[cid] + local_no] = coord
        return out

    def classes_containing(self, mono: int) -> dict[int, Fraction]:
        """{class position: coefficient of the packed degree-k monomial
        `mono` in that class's representative}."""
        cid = self.comp_of_k.get(mono)
        if cid is None:
            if mono in self.exact or mono in self.unclosed:
                return {}
            return {self._start(mono): _Q1}
        comp = self.components[cid]
        loc = comp.row(mono)
        return {
            self._start_of[cid] + local_no: row[loc]
            for local_no, row in enumerate(comp.h_rows)
            if row[loc]
        }

    def representative_vec(self, pos: int) -> dict[int, Fraction]:
        """The representative of class `pos`: a row of a head's block when
        pos lies in its classes, else the inert monomial of index q among
        the inert ones, found by bisecting the active members Mᵢ on the
        inert count rank(Mᵢ) - i before them and unranking once."""
        if not 0 <= pos < self.dimension:
            raise IndexError(f"class position {pos} out of range 0..{self.dimension - 1}")
        j = bisect.bisect_right(self._head_starts, pos) - 1
        if j >= 0:
            comp = self.components[self.comp_of_k[self.heads[j]]]
            if pos - self._head_starts[j] < comp.dim_h:
                row = comp.h_rows[pos - self._head_starts[j]]
                return {comp.rows_k[i]: v for i, v in enumerate(row) if v}
        q = pos - self._classes_before[j + 1]
        active, rank = self.active, self._rank
        before = bisect.bisect_right(range(len(active)), q, key=lambda i: rank(active[i]) - i)
        return {self._unrank(q + before): _Q1}


# --- public API ---------------------------------------------------------------


class CohomologyBasis:
    """Basis of H^k(model): deterministic representatives and coordinates.

    The model must pass validation (ModelError otherwise), so nothing is
    computed on a non-complex.  The window is that of the model's own
    complex (`complex_for`), for a truncation as for any model.
    Polynomials are converted at this boundary, in the window's packing;
    `class_of` takes d in the model first, so a generator outside the model
    raises ModelError.  Positions are class coordinates: class i is the
    i-th in the window's layout.
    """

    __slots__ = ("model", "degree", "dimension", "_window")

    def __init__(self, model: SullivanModel, degree: int):
        model.require_valid()
        self.model = model
        self.degree = degree
        self._window = complex_for(model).window(degree)
        self.dimension = self._window.dimension

    def representative(self, i: int) -> Polynomial:
        monomial = self._window.packing.monomial
        return Polynomial({monomial(m): c for m, c in self._window.representative_vec(i).items()})

    def representatives(self) -> list[Polynomial]:
        return [self.representative(i) for i in range(self.dimension)]

    def class_of(self, p: Polynomial) -> "CohomologyClass":
        if p and p.homogeneous_degree() != self.degree:
            raise NotACocycle(
                f"polynomial has degree {p.homogeneous_degree()}, expected {self.degree}"
            )
        dp = self.model.d(p)
        if dp:
            raise NotACocycle(f"d(p) = {dp} != 0")
        packed = self._window.packing.packed
        vec = {packed(m): c for m, c in p.terms()}
        return CohomologyClass(self, self._window.class_of_vec(vec))

    def linear_parts(self) -> dict[int, dict[str, Fraction]]:
        """Sparse map class position -> {generator name: coefficient}.

        Only classes whose representatives contain single-generator monomials
        appear; this is the data of the projection onto indecomposables.
        """
        gens = self.model.gens_of_degree(self.degree)
        if not gens:
            return {}
        packed = self._window.packing.packed
        out: dict[int, dict[str, Fraction]] = {}
        for g in gens:
            for pos, c in self._window.classes_containing(packed(Monomial(((g, 1),)))).items():
                out.setdefault(pos, {})[g.name] = Q(c)
        return out

    def __repr__(self) -> str:
        return f"H^{self.degree}({self.model.label}), dim {self.dimension}"


class CohomologyClass:
    """Element of a CohomologyBasis, stored as sparse coordinates."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: CohomologyBasis, coords: dict[int, Fraction]):
        self.basis = basis
        self.coords = {k: v for k, v in sorted(coords.items()) if v}

    def vector(self) -> list[Fraction]:
        v = [_Q0] * self.basis.dimension
        for i, c in self.coords.items():
            v[i] = c
        return v

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyClass)
            and self.basis.model == other.basis.model
            and self.basis.degree == other.basis.degree
            and self.coords == other.coords
        )

    def __repr__(self) -> str:
        return f"CohomologyClass({self.coords} in {self.basis!r})"


def cohomology(m: SullivanModel, k: int) -> CohomologyBasis:
    """H^k(m) with deterministic representatives (echelon per component)."""
    if k < 0:
        raise ValueError("cohomology degree must be >= 0")
    return CohomologyBasis(m, k)


def class_of(m: SullivanModel, k: int, p: Polynomial) -> CohomologyClass:
    return cohomology(m, k).class_of(p)


def coboundary_matrix(m: SullivanModel, k: int) -> list[list[Fraction]]:
    """Dense matrix of d: degree k -> k+1 over the monomial bases, from one
    Leibniz expansion (`_PackedModel.d`) per basis monomial: an oracle that
    does not read the template columns."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    view = m._packed
    pk = view.packing(k + 2)
    row_of = {mono: i for i, mono in enumerate(_enumerate(view.degs, k + 1, pk.shifts))}
    src = _enumerate(view.degs, k, pk.shifts)
    mat = [[_Q0] * len(src) for _ in row_of]
    for j, mono in enumerate(src):
        for hit, val in view.d(pk, mono).items():
            mat[row_of[hit]][j] = Q(val)
    return mat


def image_rank(m: SullivanModel, k: int) -> int:
    """rank of d: degree k-1 -> k (dimension of the coboundary space)."""
    return complex_for(m).rank(k - 1)


def _block(view: _PackedModel, pk: _Packing, monos: list[int]) -> dict[int, dict[int, Fraction]]:
    """The degree-(k-1) side of the local block of some degree-k monomials,
    packed in pk: each u with a term of d(u) in the closure of `monos` over
    the edges u -> M (M a term of d(u)), mapped to its column d(u); see the
    module docstring.  The candidates come from the view's Leibniz table: a
    term T of d(v) divides M when no letter of T has a higher exponent in T
    than in M."""
    table = view.table(pk).values()
    seen = set(monos)
    todo = list(dict.fromkeys(monos))
    cols: dict[int, dict[int, Fraction]] = {}
    while todo:
        big = todo.pop()
        for shift, _, above, terms in table:
            v = 1 << shift
            for t, _, _, letters in terms:
                if any(big >> s & mask < e for s, mask, e in letters):
                    continue
                rest = big - t
                u = rest + v
                if above is not None and rest & v or u in cols:
                    continue  # an odd v squares to 0, or u is known
                col = view.d(pk, u)
                if big in col:  # else the term cancels in d(u)
                    cols[u] = col
                    for hit in col:
                        if hit not in seen:
                            seen.add(hit)
                            todo.append(hit)
    return cols


def residues_independent(m: SullivanModel, k: int, monos: list[Monomial]) -> bool:
    """True iff the degree-k monomials are linearly independent modulo the
    coboundaries of m, decided on their local block."""
    for mono in monos:
        if mono.degree != k:
            raise ValueError(f"monomial {mono} has degree {mono.degree}, expected {k}")
    view = m._packed
    pk = view.packing(k)
    packed = view.pack(pk, monos)
    cols = list(_block(view, pk, packed).values())
    units = [{c: _Q1} for c in packed]
    return linalg.sparse_rank(cols + units) - linalg.sparse_rank(cols) == len(packed)


def solve_coboundary(m: SullivanModel, k: int, rhs: Polynomial) -> Polynomial | None:
    """u of degree k-1 with d(u) = rhs (free variables zero), or None.

    Solved on the local block of rhs with its columns in basis order
    (descending packed ints), which gives the u of the whole degree-k system."""
    if rhs.is_zero():
        return Polynomial.zero()
    if rhs.homogeneous_degree() != k:
        raise ValueError(f"rhs has degree {rhs.homogeneous_degree()}, expected {k}")
    view = m._packed
    pk = view.packing(k)
    vec = view.pack_poly(pk, rhs)
    cols = _block(view, pk, list(vec))
    rows: dict[int, int] = {}
    for col in cols.values():
        for mono in col:
            rows.setdefault(mono, len(rows))
    if not rows.keys() >= vec.keys():
        return None  # a monomial of rhs is a term of no d(u)
    order = sorted(cols, reverse=True)
    mat = [[_Q0] * len(order) for _ in rows]
    for j, u in enumerate(order):
        for mono, c in cols[u].items():
            mat[rows[mono]][j] = c
    x = linalg.solve(mat, [vec.get(mono, _Q0) for mono in rows])
    if x is None:
        return None
    return view.polynomial(pk, {u: c for u, c in zip(order, x) if c})


def induced_map(f, k: int) -> list[list[Fraction]]:
    """Matrix of H^k(f) from source classes to target class coordinates."""
    src = cohomology(f.source, k)
    tgt = cohomology(f.target, k)
    cols = []
    for i in range(src.dimension):
        image = f.apply(src.representative(i))
        cols.append(tgt.class_of(image).vector())
    return [[cols[j][i] for j in range(src.dimension)] for i in range(tgt.dimension)]

