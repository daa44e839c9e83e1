import random
from fractions import Fraction as Q

from cohaut.linalg import (
    det,
    identity,
    integer_solve,
    inverse,
    kernel_z,
    matmul,
    nullspace,
    nullspace_f2,
    qmatrix,
    rank,
    rref,
    rref_f2,
    smith_normal_form,
    solve,
    solve_f2,
    sparse_rank,
)


def test_rref_identity():
    red, pivots, r = rref(identity(4))
    assert red == identity(4) and pivots == [0, 1, 2, 3] and r == 4


def test_rref_zero_matrix():
    m = qmatrix([[0, 0], [0, 0]])
    red, pivots, r = rref(m)
    assert red == m and pivots == [] and r == 0


def test_rref_rank_one():
    red, pivots, r = rref(qmatrix([[1, 2], [2, 4]]))
    assert r == 1 and pivots == [0]
    assert red == qmatrix([[1, 2], [0, 0]])


def test_nullspace_identity_empty():
    assert nullspace(identity(3)) == []


def test_nullspace_zero_matrix_full():
    vecs = nullspace(qmatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert len(vecs) == 3


def test_nullspace_single_row():
    vecs = nullspace(qmatrix([[1, 2]]))
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] * 1 + v[1] * 2 == 0 and v != [0, 0]
    assert v == [Q(-2), Q(1)]


def test_solve_identity():
    b = [Q(3), Q(-1), Q(7)]
    assert solve(identity(3), b) == b


def test_solve_underdetermined_free_vars_zero():
    assert solve(qmatrix([[1, 1]]), [Q(2)]) == [Q(2), Q(0)]


def test_solve_inconsistent():
    assert solve(qmatrix([[0]]), [Q(1)]) is None


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = qmatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        r = rank(m)
        assert r + len(nullspace(m)) == cols
        for v in nullspace(m):
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)


def test_sparse_rank_against_dense_rank():
    assert sparse_rank([]) == sparse_rank([{}, {}]) == 0
    assert sparse_rank([{"a": Q(1), "b": Q(2)}, {"b": Q(4), "a": Q(2)}, {"c": Q(1)}]) == 2
    rng = random.Random(12)
    for _ in range(25):
        m = qmatrix([[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)])
        vectors = [{(7, j): x for j, x in enumerate(row) if x} for row in m]
        assert sparse_rank(vectors) == rank(m)


# --- Smith normal form ------------------------------------------------------------


def _recompose(u, m, v):
    return matmul(matmul(qmatrix(u), qmatrix(m)), qmatrix(v))


def test_snf_diag_2_3():
    s, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert s == [[1, 0], [0, 6]]
    assert _recompose(u, [[2, 0], [0, 3]], v) == qmatrix(s)


def test_snf_zero_and_identity():
    s, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    s, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert s == [[1, 0], [0, 1]]


def test_snf_random_recompose_divisibility_unimodular():
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        s, u, v = smith_normal_form(m)
        assert _recompose(u, m, v) == qmatrix(s)
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        assert abs(det(qmatrix(u))) == 1
        assert abs(det(qmatrix(v))) == 1


def test_kernel_z_single_relation():
    assert kernel_z([[2, -2]]) == [[1, 1]]


def test_integer_solve():
    assert integer_solve([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert integer_solve([[2]], [3]) is None
    assert integer_solve([[0]], [1]) is None
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(m[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        y = integer_solve(m, b)
        assert y is not None
        assert [sum(m[i][j] * y[j] for j in range(cols)) for i in range(rows)] == b


def test_inverse():
    m = qmatrix([[1, 2], [3, 4]])
    assert matmul(m, inverse(m)) == identity(2)
    assert inverse(qmatrix([[1, 2], [2, 4]])) is None


# --- F2 -----------------------------------------------------------------------


def test_nullspace_f2_identity_empty():
    assert nullspace_f2([0b1, 0b10, 0b100], 3) == []


def test_nullspace_f2_parity_row():
    assert nullspace_f2([0b11], 2) == [0b11]


def test_example_31_sign_system_kernel_dimension_one():
    # sign equations of Example 3.1 over (s10, s12, s41, s43, s45, s119):
    #   s41 = 3 s10 + s12,  s43 = 2 s10 + 2 s12,  s45 = s10 + 3 s12,
    #   s119 = s12 (3) + s41 + s43 = s10 + 2 s12 + s41 + s45
    #        = 2 s10 + s12 + s43 + s45 = 12 s10 = 10 s12        (all mod 2)
    # hand reduction: s10 = s43 = s119 = 0, s41 = s45 = s12 free -> kernel dim 1
    def bits(*positions):
        out = 0
        for p in positions:
            out ^= 1 << p
        return out

    rows = [
        bits(0, 1, 2),  # s41 + s10 + s12 = 0  (3 s10 odd)
        bits(3),  # s43 + 2 s10 + 2 s12 = s43
        bits(0, 1, 4),  # s45 + s10 + 3 s12
        bits(1, 2, 3, 5),  # s119 + 3 s12 + s41 + s43
        bits(0, 2, 4, 5),  # s119 + s10 + 2 s12 + s41 + s45
        bits(1, 3, 4, 5),  # s119 + 2 s10 + s12 + s43 + s45
        bits(5),  # s119 + 12 s10
        bits(5),  # s119 + 10 s12
    ]
    kernel = nullspace_f2(rows, 6)
    assert len(kernel) == 1
    # the kernel vector is the sign pattern (1, -1, -1, 1, -1, 1)
    assert kernel[0] == bits(1, 2, 4)


def test_solve_f2_affine():
    # x0 + x1 = 1, x1 = 1 -> particular (0, 1) with free vars zero
    assert solve_f2([0b11, 0b10], [1, 1], 2) == 0b10
    assert solve_f2([0b1, 0b1], [0, 1], 2) is None


def test_rref_f2_pivots_leftmost():
    red, pivots = rref_f2([0b110, 0b011], 3)
    assert pivots == sorted(pivots)
