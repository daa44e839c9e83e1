"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact arithmetic; the only tolerances are the stated
wall-clock budgets.
"""

import hashlib
import importlib.util
import json
import random
import time
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

from cohaut import linalg
from cohaut.algebra import Monomial, Polynomial, multiply
from cohaut.cli import main
from cohaut.cohomology import cohomology, complex_for
from cohaut.coherence import try_lift
from cohaut.corpus import BUILTIN_LABELS, load_builtin
from cohaut.diagsolve import (
    as_linear_map,
    canonical_extension,
    extract_constraints,
    group_structure,
    lift_verify,
    solve,
)
from cohaut.whitehead import build_wes, check_exactness
from conftest import packed_basis

P = Polynomial


def verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{extra}")
    assert ok, f"criterion {number} failed: {description} {extra}"


# --- criterion 1: Example 3.1 end to end -------------------------------------------


def test_criterion_1_example_31_end_to_end():
    t0 = time.monotonic()
    m = load_builtin("V-ex31")
    solutions = solve(extract_constraints(m))
    sols = solutions.solutions()
    inv = solutions.invertible_solutions()
    group = group_structure(solutions)
    elapsed = time.monotonic() - t0
    ok = (
        len(sols) == 3
        and set(inv)
        == {
            (Q(1), Q(1), Q(1), Q(1), Q(1), Q(1)),
            (Q(1), Q(-1), Q(-1), Q(1), Q(-1), Q(1)),
        }
        and (group.order, group.torsion_rank) == (2, 1)
        and elapsed < 60
    )
    verdict(
        1,
        "solve V-ex31: 3 morphisms, automorphisms {(1,1,1,1,1,1), (1,-1,-1,1,-1,1)}, group Z2",
        ok,
        f"{elapsed:.1f}s",
    )


# --- criterion 2: Example 3.2 end to end -------------------------------------------


def test_criterion_2_example_32_end_to_end():
    t0 = time.monotonic()
    m = load_builtin("W-ex32")
    solutions = solve(extract_constraints(m))
    group = group_structure(solutions)
    elapsed = time.monotonic() - t0
    ok = (
        solutions.count() == 5
        and len(solutions.invertible_solutions()) == 4
        and (group.order, group.torsion_rank, group.free_rank) == (4, 2, 0)
        and elapsed < 60
    )
    verdict(2, "solve W-ex32: 5 morphisms, 4 automorphisms, group Z2+Z2", ok, f"{elapsed:.1f}s")


# --- criterion 3: cohomology regression --------------------------------------------


def _span_dim(basis, polys):
    return linalg.rank([basis.class_of(p).vector() for p in polys])


def test_criterion_3_cohomology_regression():
    V = load_builtin("V-ex31")
    W = load_builtin("W-ex32")
    x1, x2 = V.generator("x1"), V.generator("x2")
    y1, y2, y3 = V.generator("y1"), V.generator("y2"), V.generator("y3")

    def mono(*fac):
        return Monomial(tuple(fac))

    checks = []
    for cutoff, degree, rep in ((40, 42, mono((x1, 3), (x2, 1))),
                                (42, 44, mono((x1, 2), (x2, 2))),
                                (44, 46, mono((x1, 1), (x2, 3)))):
        h = cohomology(V.truncate(cutoff), degree)
        checks.append(h.dimension == 1 and _span_dim(h, [P.monomial(rep)]) == 1)
    h120v = cohomology(V.truncate(118), 120)
    combo = (
        P.monomial(mono((x2, 3), (y1, 1), (y2, 1)))
        - P.monomial(mono((x1, 1), (x2, 2), (y1, 1), (y3, 1)))
        + P.monomial(mono((x1, 2), (x2, 1), (y2, 1), (y3, 1)))
    )
    checks.append(h120v.dimension == 3)
    checks.append(
        _span_dim(h120v, [combo, P.monomial(mono((x1, 12))), P.monomial(mono((x2, 10)))]) == 3
    )
    # W: the paper's displayed classes span a 4-dimensional subspace of H^120
    h120w = cohomology(W.truncate(118), 120)
    displayed = [
        combo,
        P.monomial(mono((x1, 12))),
        P.monomial(mono((x2, 10))),
        P.monomial(mono((W.generator("x0"), 60))),
    ]
    checks.append(_span_dim(h120w, displayed) == 4)
    verdict(
        3,
        "cohomology regression: H42/H44/H46 dims and spans, dim H120(V<=118) = 3, "
        "paper's four W-classes independent",
        all(checks),
    )


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the criterion asserts dim H^120(ΛW^<=118) = 4, but the "
    "dimension is 29 (verified by hand count, component engine, and dense "
    "full-basis rank; see notes/decisions.md).  The paper's display 'Im b^120' "
    "is the 4-dimensional span of the d(z) monomial classes, which the "
    "previous test verifies.",
)
def test_criterion_3_literal_w_dimension_clause():
    W = load_builtin("W-ex32")
    h = cohomology(W.truncate(118), 120)
    ok = h.dimension == 4
    print(
        f"ACCEPTANCE 3 (literal W-dim clause): {'PASS' if ok else 'FAIL'} - "
        f"dim H^120(W<=118) = {h.dimension}, criterion demands 4 (spec defect, see ledger)"
    )
    assert ok


# --- criterion 4: cross-oracle grid --------------------------------------------------


GRID = (Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2))


def _cross_oracle(label: str) -> tuple[int, int]:
    m = load_builtin(label)
    system = extract_constraints(m)
    solutions = solve(system)
    sources = system.source_variables
    n_checked = n_rejected = 0
    for values in product(GRID, repeat=len(sources)):
        assignment = dict(zip(sources, values))
        vec = canonical_extension(system, assignment)
        expected = solutions.contains(vec)
        result = try_lift(as_linear_map(system, vec))
        assert result.ok == expected, f"{label}: grid point {vec}"
        if not expected:
            assert result.obstruction is not None
            assert not result.obstruction.failure_class.is_zero()
            n_rejected += 1
        n_checked += 1
    return n_checked, n_rejected


def test_criterion_4_cross_oracle_grid():
    t0 = time.monotonic()
    checked_v, rejected_v = _cross_oracle("V-ex31")
    checked_w, rejected_w = _cross_oracle("W-ex32")
    elapsed = time.monotonic() - t0
    ok = (
        checked_v == 7**2
        and checked_w == 7**3
        and rejected_v == 7**2 - 3
        and rejected_w == 7**3 - 5
        and elapsed < 600
    )
    verdict(
        4,
        "cross-oracle: every solver solution lifts, every other grid point "
        "{0,±1,±2,±1/2} over the source variables is obstructed",
        ok,
        f"{checked_v + checked_w} grid points, {elapsed:.0f}s",
    )


# --- criterion 5: WES exactness over the full corpus ---------------------------------


# sha256 of each builtin's WES node data (`wes_digest`) and its number of
# exactness checks, as `tools/corpus_wes.py` prints them
WES_PINS = {
    "V-ex31": ("479fbc2496a5798bea0ae4b25ab8fc4bfb25ba677a1df6b2b65435fad0bcea86", 591),
    "W-ex32": ("c433eca442caaa18e25cd1a9ad3ad1279c7d9c3b2130b5a065b201fb6961cb7e", 591),
    "U1": ("da298bf5ca065b2d986a2446820b0a65e3c89b01937ba17dac78cc25c41d7fff", 592),
    "U2": ("9301346317301cc3b187b7efae38f2a8a288018c5785422720fc7c1e2978ed45", 593),
    "U3": ("56c1739f2ab6cdf125df5d7ab601b05724b4c8cf8faeaedd9d2f975ca9bb1de1", 594),
    "U4": ("be7761f5de3d5f81fd91cf4079bcab5741dbbf94f3f4e8023f3cee653cd78f59", 595),
    "U5": ("902b59e6d2c4614aad642a6514941b84aba60da3e6cee7c83ee8498eceae99c8", 596),
    "U6": ("6f1c46cee2eb3314420d05ba4cc438dfc9e6c114dcc4cb2d2f1004251dbcd74f", 597),
    "U7": ("5b4d6da73af280b5926007918fc789a732d8e25e7db95565985b5cd3df273846", 598),
    "U8": ("349f9f430c643d94289ab90f76f3b44a2d16f61432b0bbc746d4c28c6bd440e8", 599),
    "E2": ("c433eca442caaa18e25cd1a9ad3ad1279c7d9c3b2130b5a065b201fb6961cb7e", 591),
    "E3": ("b4230822bffabcb84bd9697ff86d1209c6b05673ffb7adeea3025fd43beac71c", 592),
    "E4": ("ca7faa4edec66f7cd819d9e90bf90dcc65ab6fe1dc3ecff286438017c67cbbcd", 593),
    "E5": ("8f75195bbb6e782f827cdb3b12be9d0fe35e562d089d1588bf5b8e6d493212b4", 594),
    "E6": ("b52ddbe14db8efc9ee53aaff081549c1fe01b99c38dcbbeb61681d3ef91bd730", 595),
    "E7": ("50ef968c92853559720db2c011b6f447beaf8dbd6933c47940c75212c7624446", 596),
}


def _wes_digest():
    """`wes_digest`, loaded from bench/workloads.py by its path: the digest
    `tools/corpus_wes.py` prints and bench/golden.json holds."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.wes_digest


def test_criterion_5_wes_property_suite():
    t0 = time.monotonic()
    wes_digest = _wes_digest()
    all_ok = True
    details = []
    for label in BUILTIN_LABELS:
        m = load_builtin(label)
        w = build_wes(m)
        report = check_exactness(w)  # includes b-column fidelity at every node
        pinned = WES_PINS[label] == (wes_digest(w), len(report.checks))
        if not pinned:
            print(f"  [criterion 5] {label}: node digest or check count differs from the pin")
        all_ok = all_ok and report.ok and pinned
        details.append(f"{label}:{'ok' if report.ok else 'FAIL'}")
        if not report.ok:
            print(report)
        print(f"  [criterion 5] {label}: exact={report.ok} ({len(report.checks)} checks)")
    elapsed = time.monotonic() - t0
    verdict(
        5,
        "build_wes + check_exactness at every node for all builtins, full "
        "generator range, b-columns = [d(v)] everywhere, node digests and "
        "check counts as pinned",
        all_ok,
        f"{elapsed:.0f}s",
    )


# --- criterion 6: algebra property suite ----------------------------------------------


def _series_coefficients(gens, dmax):
    coeff = [0] * (dmax + 1)
    coeff[0] = 1
    for g in gens:
        if g.is_odd:
            for m in range(dmax, g.degree - 1, -1):
                coeff[m] += coeff[m - g.degree]
        else:
            for m in range(g.degree, dmax + 1):
                coeff[m] += coeff[m - g.degree]
    return coeff


def test_criterion_6_algebra_property_suite():
    t0 = time.monotonic()
    rng = random.Random(2026)
    all_ok = True
    for label in BUILTIN_LABELS:
        m = load_builtin(label)
        cx = complex_for(m)
        oracle = _series_coefficients(m.generators, 121)
        # generating-function dimension check, every degree up to 121
        for d in range(122):
            if len(packed_basis(cx, d)) != oracle[d]:
                all_ok = False
                print(f"  [criterion 6] {label}: dimension mismatch at degree {d}")
        # the public enumeration agrees with the coded one on sampled degrees
        for d in (0, 41, 60, 119, 120):
            if len(m.basis(d)) != oracle[d]:
                all_ok = False
        # d∘d = 0 on every generator and on a sampled monomial span
        for g in m.generators:
            if m.d(m.d(P.generator(g))):
                all_ok = False
        degrees = [d for d in (60, 119, 120, 121) if packed_basis(cx, d)]
        for d in degrees:
            b = m.basis(d)
            for monomial in rng.sample(b, min(len(b), 40)):
                if m.d(m.d(P.monomial(monomial))):
                    all_ok = False
        # graded commutativity, associativity, Leibniz on random homogeneous pairs
        pool_degrees = [d for d in range(2, 90) if m.basis(d)]
        for _ in range(20):
            da, db, dc = (rng.choice(pool_degrees) for _ in range(3))
            a = P.monomial(rng.choice(m.basis(da)), rng.choice([1, -1, Q(1, 2), 3]))
            b = P.monomial(rng.choice(m.basis(db)), rng.choice([1, 2, Q(-1, 3)]))
            c = P.monomial(rng.choice(m.basis(dc)), 1)
            sign = -1 if (da % 2 and db % 2) else 1
            if multiply(a, b) != sign * multiply(b, a):
                all_ok = False
            if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
                all_ok = False
            leibniz_sign = -1 if da % 2 else 1
            if m.d(a * b) != m.d(a) * b + leibniz_sign * (a * m.d(b)):
                all_ok = False
    elapsed = time.monotonic() - t0
    verdict(
        6,
        "graded commutativity, associativity, d**2 = 0, Leibniz, and the "
        "generating-function dimension check (all builtins, degrees <= 121)",
        all_ok,
        f"{elapsed:.0f}s",
    )


# --- criterion 7: tower audit ----------------------------------------------------------


def test_criterion_7_tower_audit():
    t0 = time.monotonic()
    checks = []
    # U1 as written: infinite family (free rank >= 1) and the vanished-term warning
    u1 = load_builtin("U1")
    system = extract_constraints(u1)
    solutions = solve(system)
    group = group_structure(solutions)
    checks.append(group.order is None and group.free_rank >= 1)
    checks.append(any("x3^40" in w for w in u1.warnings))
    checks.append(any("x3^40" in note for note in system.notes))
    # U2..U8 as written: infinite too (the paper's finiteness claim fails as
    # written); torsion ranks 4..10 pinned by independent hand reduction
    expected_torsion = {f"U{i}": i + 2 for i in range(2, 9)}
    expected_free = {"U2": 1, "U3": 2, "U4": 2, "U5": 3, "U6": 3, "U7": 3, "U8": 3}
    for label, torsion in expected_torsion.items():
        g = group_structure(solve(extract_constraints(load_builtin(label))))
        checks.append(g.order is None)
        checks.append(g.torsion_rank == torsion)
        checks.append(g.free_rank == expected_free[label])
    # corrected even tower: finite elementary abelian, strictly increasing ranks
    e_ranks = []
    for i in range(2, 8):
        solutions = solve(extract_constraints(load_builtin(f"E{i}")))
        g = group_structure(solutions)
        checks.append(g.order == 2**g.torsion_rank and g.free_rank == 0)
        e_ranks.append(g.torsion_rank)
        verified = lift_verify(solutions)
        checks.append(all(ok for _, ok, _ in verified))
    checks.append(e_ranks == [2, 3, 4, 5, 6, 7])
    checks.append(all(a < b for a, b in zip(e_ranks, e_ranks[1:])))
    # the discrepancy must be machine-reported by the CLI pipeline
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["reproduce", "tower", "--json"])
    doc = json.loads(buf.getvalue())
    checks.append(code == 0)
    checks.append(any("NOT reproducible as written" in w for w in doc["warnings"]))
    elapsed = time.monotonic() - t0
    verdict(
        7,
        "tower audit: U1..U8 as written infinite (ranks pinned), E2..E7 ranks "
        "strictly increasing 2..7, discrepancy machine-reported",
        all(checks),
        f"{elapsed:.0f}s",
    )


# --- criterion 8: group axioms on Example 3.2 -------------------------------------------


def test_criterion_8_group_axioms_example_32():
    solutions = solve(extract_constraints(load_builtin("W-ex32")))
    automorphisms = solutions.invertible_solutions()
    identity = tuple([Q(1)] * 7)
    ok = len(automorphisms) == 4 and identity in automorphisms
    table = set(automorphisms)
    for a in automorphisms:
        for b in automorphisms:
            if tuple(x * y for x, y in zip(a, b)) not in table:
                ok = False
    for a in automorphisms:
        if a != identity and tuple(x * x for x in a) != identity:
            ok = False
        if tuple(1 / x for x in a) not in table:
            ok = False
    verdict(
        8,
        "Example 3.2 automorphisms: closed under composition, identity present, "
        "the three non-identity elements have order 2",
        ok,
    )


# --- criterion 9: byte-identical JSON runs ----------------------------------------------


# the bytes and sha256 of `reproduce all --json`; any change to them is a change
# of output, to be explained where it is made
REPRODUCE_ALL_JSON = (21794, "de3e870d1f570a11af7f74125db8997c00e81b9855b2b22f2654ed8a56670398")


def test_criterion_9_reproduce_all_json_deterministic(capsys):
    code1 = main(["reproduce", "all", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["reproduce", "all", "--json"])
    out2 = capsys.readouterr().out
    data = out1.encode()
    pinned = (len(data), hashlib.sha256(data).hexdigest()) == REPRODUCE_ALL_JSON
    ok = code1 == 0 and code2 == 0 and out1 == out2 and pinned
    with capsys.disabled():
        verdict(
            9,
            "two consecutive `reproduce all --json` runs are byte-identical, "
            "with the pinned size and sha256",
            ok,
            f"{len(data)} bytes",
        )
