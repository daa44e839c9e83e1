"""Builtin model corpus.

V-ex31 and its extensions:

  * W-ex32: V-ex31 plus a closed degree-2 generator x0 with x0^60 added to d(z).
  * U1..U8: the tower as written, adding x3, x4, x5, x6, x15, x20, x30, x60 in
    turn.  Odd-degree powers (x3^40, x5^20, x15^8) normalize to zero and are
    recorded as warnings; x5^20 also has the wrong total degree (100, not 120),
    which extend_tower rejects, so the U steps insert their terms directly.
  * E2..E7: the even tower.  E2 is W-ex32 relabeled (the rank-2 base); E3..E7
    successively add (4,30), (6,20), (20,6), (30,4), (60,2).  Every step is a
    legal extend_tower call and every added term survives, so the coherent
    automorphism groups stay finite with ranks 2..7.
"""

from __future__ import annotations

from .algebra import Generator
from .model import ModelError, SullivanModel, _add_tower_term, extend_tower

V_EX31_SOURCE = """\
# Arkowitz-Lupton style example: six generators, rank-1 automorphism group
model V-ex31;
gen x1 : 10;
gen x2 : 12;
gen y1 : 41;
gen y2 : 43;
gen y3 : 45;
gen z : 119;
d y1 = x1^3*x2;
d y2 = x1^2*x2^2;
d y3 = x1*x2^3;
d z = y1*y2*x2^3 - y1*y3*x1*x2^2 + y2*y3*x1^2*x2 + x1^12 + x2^10;
"""


def _build_v() -> SullivanModel:
    from .dsl import parse

    return parse(V_EX31_SOURCE, filename="<builtin V-ex31>")


def _build_w() -> SullivanModel:
    return extend_tower(_build_v(), "z", 2, 60, name="x0", label="W-ex32")


# (generator name, degree, exponent) for the tower as written in turn
_U_STEPS = [
    ("x3", 3, 40),
    ("x4", 4, 30),
    ("x5", 5, 20),  # degree slip: 5*20 = 100 != 120; the term is zero anyway
    ("x6", 6, 20),
    ("x15", 15, 8),
    ("x20", 20, 6),
    ("x30", 30, 4),
    ("x60", 60, 2),
]

_E_STEPS = [
    ("x4", 4, 30),
    ("x6", 6, 20),
    ("x20", 20, 6),
    ("x30", 30, 4),
    ("x60", 60, 2),
]


def _build_u(i: int) -> SullivanModel:
    m = _build_w()
    for step, (name, degree, exponent) in enumerate(_U_STEPS[:i], start=1):
        z = m.generator("z")
        # a degree slip is harmless only when the added term vanishes
        if degree * exponent != z.degree + 1 and not (degree % 2 and exponent >= 2):
            raise ModelError(f"raw tower step {name}^{exponent} would break homogeneity")
        m = _add_tower_term(m, z, Generator(name, degree), exponent, f"U{step}")
    return m


def _build_e(i: int) -> SullivanModel:
    m = _build_w().relabel("E2")
    for step, (name, degree, exponent) in enumerate(_E_STEPS[: i - 2], start=3):
        m = extend_tower(m, "z", degree, exponent, name=name, label=f"E{step}")
    return m


_BUILDERS = {"V-ex31": _build_v, "W-ex32": _build_w}
for _i in range(1, 9):
    _BUILDERS[f"U{_i}"] = (lambda i: lambda: _build_u(i))(_i)
for _i in range(2, 8):
    _BUILDERS[f"E{_i}"] = (lambda i: lambda: _build_e(i))(_i)

BUILTIN_LABELS = tuple(_BUILDERS)

_CACHE: dict[str, SullivanModel] = {}


def load_builtin(label: str) -> SullivanModel:
    """One of V-ex31, W-ex32, U1..U8 (as written), E2..E7 (even tower)."""
    if label not in _BUILDERS:
        raise KeyError(
            f"unknown builtin model {label!r}; available: {', '.join(BUILTIN_LABELS)}"
        )
    if label not in _CACHE:
        _CACHE[label] = _BUILDERS[label]()
    return _CACHE[label]


def all_builtins() -> list[SullivanModel]:
    return [load_builtin(label) for label in BUILTIN_LABELS]
