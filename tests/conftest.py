from fractions import Fraction

import pytest

from cohaut.algebra import _enumerate
from cohaut.corpus import BUILTIN_LABELS, load_builtin


def packed_basis(cx, degree):
    """The degree-`degree` basis of a cochain complex's model, packed in the
    packing of degree + 1, in basis order (descending ints): an enumeration
    that the library itself never makes, for oracles."""
    if degree < 0:
        return ()
    return _enumerate(cx.view.degs, degree, cx.view.packing(degree + 1).shifts)


def det(m):
    """Determinant of a small square matrix by exact elimination, for
    oracles: the library itself needs no determinant."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det of a non-square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


@pytest.fixture(scope="session")
def V():
    return load_builtin("V-ex31")


@pytest.fixture(scope="session")
def W():
    return load_builtin("W-ex32")


@pytest.fixture(scope="session")
def U1():
    return load_builtin("U1")


@pytest.fixture(scope="session")
def all_builtins():
    return [load_builtin(label) for label in BUILTIN_LABELS]
