"""Exact linear algebra over Q, Z and F2.

Matrices are plain lists of rows; Q-matrix entries are `fractions.Fraction`,
Z-matrix entries are ints, F2 rows are int bitmasks.  Pivoting is
deterministic (leftmost nonzero, first available row) - exact arithmetic
makes numerical pivoting unnecessary and determinism keeps every downstream
basis and report reproducible.  Everything here is desk scale; no attempt is
made to be fast on large dense systems.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

Q = Fraction
Vector = list[Fraction]
Matrix = list[list[Fraction]]


def qmatrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Q(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    bt = list(zip(*b)) if b else []
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in bt] for row in a]


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int], int]:
    """Reduced row-echelon form; returns (reduced, pivot columns, rank)."""
    a = [list(row) for row in m]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        if a[r][c] != 1:
            inv = 1 / a[r][c]
            a[r] = [x * inv for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, pivots, r


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    return rref(m)[2]


def sparse_rank(vectors: Iterable[Mapping[Hashable, Fraction]]) -> int:
    """Rank of sparse vectors given as dicts {coordinate key: entry}."""
    rows = list(vectors)
    keys = {key: None for row in rows for key in row}  # first-seen order
    return rank([[row.get(key, Q(0)) for key in keys] for row in rows])


def nullspace(m: Sequence[Sequence[Fraction]], n_cols: int | None = None) -> list[Vector]:
    """Basis of the right kernel; one vector per free column, that column's
    entry set to 1 and other free columns to 0."""
    if n_cols is None:
        if not m:
            raise ValueError("nullspace of an empty matrix needs n_cols")
        n_cols = len(m[0])
    if not m:
        return [[Q(1) if i == j else Q(0) for i in range(n_cols)] for j in range(n_cols)]
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    out: list[Vector] = []
    for fc in free:
        v = [Q(0)] * n_cols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        out.append(v)
    return out


def solve(m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector | None:
    """One solution of m x = b with free variables set to 0, or None."""
    n_rows = len(m)
    if len(b) != n_rows:
        raise ValueError(f"rhs length {len(b)} != row count {n_rows}")
    n_cols = len(m[0]) if m else 0
    aug = [list(row) + [Q(bi)] for row, bi in zip(m, b)]
    if not aug:
        return [Q(0)] * n_cols if not any(b) else None
    red, pivots, r = rref(aug)
    if n_cols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [Q(0)] * n_cols
    for row, pc in zip(red, pivots):
        x[pc] = row[n_cols]
    return x


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free-ish elimination (small matrices only)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det of a non-square matrix")
    a = [[Q(x) for x in row] for row in m]
    sign = 1
    result = Q(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            return Q(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def inverse(m: Sequence[Sequence[Fraction]]) -> Matrix | None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + ident_row for row, ident_row in zip(qmatrix(m), identity(n))]
    red, pivots, r = rref(aug)
    if r < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


# --- integer matrices / Smith normal form ---------------------------------


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (S, U, V) with U @ m @ V == S.

    S is diagonal with nonnegative entries d1 | d2 | ...; U and V are products
    of elementary integer operations, hence unimodular (det = +-1).
    """
    a = [[int(x) for x in row] for row in m]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]
    v = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(n_rows, n_cols)):
        # pivot: nonzero entry of least absolute value in the trailing block
        # (first such scanning row-major), for fast termination + determinism
        piv = None
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            # clear column t with row operations
            dirty = False
            for i in range(t + 1, n_rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:  # remainder became the smaller pivot
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t with column operations
            for j in range(t + 1, n_cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce a[t][t] | everything remaining: fold an offending row in
            offender = None
            for i in range(t + 1, n_rows):
                for j in range(t + 1, n_cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # row_t += row_offender, then re-clear
        if a[t][t] < 0:
            row_negate(t)
    return a, u, v


def kernel_z(m: Sequence[Sequence[int]], n_cols: int | None = None) -> list[list[int]]:
    """Basis of the integer kernel {x : m x = 0} from the SNF transform."""
    if n_cols is None:
        if not m:
            raise ValueError("kernel_z of an empty matrix needs n_cols")
        n_cols = len(m[0])
    if not m:
        return [[1 if i == j else 0 for i in range(n_cols)] for j in range(n_cols)]
    s, _, v = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), n_cols))]
    out = []
    for j in range(n_cols):
        if j >= len(diag) or diag[j] == 0:
            out.append([v[i][j] for i in range(n_cols)])
    return out


def integer_solve(m: Sequence[Sequence[int]], b: Sequence[int]) -> list[int] | None:
    """One integer solution of m x = b, or None when none exists."""
    if not m:
        return [] if not any(b) else None
    n_cols = len(m[0])
    s, u, v = smith_normal_form(m)
    ub = [sum(ui * bi for ui, bi in zip(row, b)) for row in u]
    t = [0] * n_cols
    for i in range(len(m)):
        d = s[i][i] if i < n_cols else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            t[i] = ub[i] // d
    return [sum(v[i][j] * t[j] for j in range(n_cols)) for i in range(n_cols)]


# --- F2 matrices (rows as bitmasks) ----------------------------------------


def rref_f2(rows: Sequence[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Row reduce over F2; returns (reduced rows, pivot columns)."""
    red: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for r, p in zip(red, pivots):
            if row >> p & 1:
                row ^= r
        if row:
            p = (row & -row).bit_length() - 1  # leftmost = lowest column index
            for i, r in enumerate(red):
                if r >> p & 1:
                    red[i] ^= row
            red.append(row)
            pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [red[i] for i in order], [pivots[i] for i in order]


def nullspace_f2(rows: Sequence[int], n_cols: int) -> list[int]:
    """Kernel basis over F2, one bitmask per free column."""
    red, pivots = rref_f2(rows, n_cols)
    pivot_set = set(pivots)
    out = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = 1 << fc
        for r, p in zip(red, pivots):
            if r >> fc & 1:
                v |= 1 << p
        out.append(v)
    return out


def solve_f2(rows: Sequence[int], rhs: Sequence[int], n_cols: int) -> int | None:
    """Particular solution of the affine F2 system, free variables 0."""
    aug = [row | (bit << n_cols) for row, bit in zip(rows, rhs)]
    red, pivots = rref_f2(aug, n_cols + 1)
    x = 0
    for r, p in zip(red, pivots):
        if p == n_cols:
            return None
        if r >> n_cols & 1:
            x |= 1 << p
    return x
