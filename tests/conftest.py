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
