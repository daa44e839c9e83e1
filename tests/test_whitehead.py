import dataclasses
from fractions import Fraction as Q

import pytest

from cohaut.algebra import Generator, Monomial, Polynomial
from cohaut.cohomology import cohomology
from cohaut.coherence import GradedLinearMap, try_lift
from cohaut.dsl import parse
from cohaut.model import CochainMorphism, ModelError, MorphismError, SullivanModel, identity
from cohaut.whitehead import (
    WhiteheadSequence,
    build_wes,
    check_exactness,
    j_map,
    naturality_check,
)

P = Polynomial


def mono(*factors):
    return Monomial(tuple(factors))


def test_b41_is_the_unit_map_onto_the_x1_cubed_x2_class(V):
    w = build_wes(V, 50)
    node = w.nodes[41]
    assert node.gens == ("y1",)
    assert node.gamma_dim == 1
    assert w.b_matrix(41) == [[Q(1)]]
    gamma = w.gamma_basis(41)
    assert str(gamma.representative(0)) == "x1^3*x2"


def test_b10_vanishes_on_closed_generator(V):
    w = build_wes(V, 12)
    node = w.nodes[10]
    assert node.gens == ("x1",)
    assert node.b_columns == ((),)


def test_w_node_119_rank_one_image_in_gamma(W):
    w = build_wes(W)
    node = w.nodes[119]
    # the paper displays the 4-dim span of the d(z) monomial classes ("Im b^120");
    # the full Γ^120 has dimension 29 and b has rank 1 (single generator z)
    assert node.gamma_dim == 29
    assert len(node.b_columns) == 1 and node.b_columns[0]
    assert len([c for c in node.b_columns[0] if c[1]]) == 4  # hits 4 pivot classes


def test_sequence_range_defaults_to_top_degree_plus_one(V):
    w = build_wes(V)
    assert (w.n_min, w.n_max) == (3, 120)


def test_j_map_no_generators_is_empty(V):
    assert j_map(V, 42) == []


def test_j_map_identity_on_closed_generator_degrees(V):
    mat = j_map(V, 10)
    h = cohomology(V, 10)
    assert h.dimension == 1 and mat == [[Q(1)]]


def test_exactness_example_31_full_range(V):
    report = check_exactness(build_wes(V))
    assert report.ok, str(report)


def test_exactness_zero_differential_model():
    m = SullivanModel([Generator("a", 10), Generator("b", 12)], {}, label="free")
    report = check_exactness(build_wes(m, 40))
    assert report.ok, str(report)


def test_corrupted_b_column_is_detected_at_the_right_node(V):
    w = build_wes(V, 50)
    node = w.nodes[41]
    corrupted = dataclasses.replace(node, b_columns=(((0, Q(2)),),))
    w_bad = WhiteheadSequence(
        model=w.model,
        n_min=w.n_min,
        n_max=w.n_max,
        nodes={**w.nodes, 41: corrupted},
    )
    report = check_exactness(w_bad)
    assert not report.ok
    assert any(c.n == 41 and "fidelity" in c.node for c in report.failures())


@pytest.mark.parametrize("b_columns", [(), ((), ())], ids=["dropped", "extra"])
def test_b_column_count_mismatch_is_detected(V, b_columns):
    # V^10 = <x1> and b(x1) = 0: only the count of the columns is wrong
    w = build_wes(V, 50)
    assert w.nodes[10].b_columns == ((),)
    corrupted = dataclasses.replace(w.nodes[10], b_columns=b_columns)
    report = check_exactness(dataclasses.replace(w, nodes={**w.nodes, 10: corrupted}))
    assert not report.ok
    [failure] = report.failures()
    assert failure.n == 10 and "fidelity" in failure.node
    assert failure.detail == f"{len(b_columns)} stored b-columns != dim V^10 = 1"


def test_zeroed_b_column_breaks_im_ker_at_gamma_node(V):
    w = build_wes(V, 50)
    node = w.nodes[41]
    corrupted = dataclasses.replace(node, b_columns=((),))
    w_bad = WhiteheadSequence(
        model=w.model,
        n_min=w.n_min,
        n_max=w.n_max,
        nodes={**w.nodes, 41: corrupted},
    )
    report = check_exactness(w_bad)
    failing_nodes = {(c.n, c.node) for c in report.failures()}
    assert any(n == 41 for n, _ in failing_nodes)


def test_naturality_of_identity(V):
    assert naturality_check(identity(V), 41).ok


def test_naturality_of_the_sign_lift_encodes_relation_31(V):
    sig = GradedLinearMap.diagonal(
        V, {10: 1, 12: -1, 41: -1, 43: 1, 45: -1, 119: 1}
    )
    lift = try_lift(sig).morphism
    for n in (41, 43, 45, 119):
        assert naturality_check(lift, n).ok
    # relation (3.1): b^41 ξ^41 = H^42(α_40) b^41, i.e. p41 = p10^3 p12
    rep = naturality_check(lift, 41)
    assert rep.checks[0][0] == "y1" and rep.checks[0][1]


def test_naturality_rejects_non_morphisms_before_checking(V):
    images = {g.name: P.generator(g) for g in V.generators}
    images["y1"] = 2 * images["y1"]
    with pytest.raises(MorphismError):
        CochainMorphism(V, V, images)


def test_b_columns_equal_class_of_differential_everywhere(V, W):
    for m in (V, W):
        w = build_wes(m)
        for n, node in w.nodes.items():
            if not node.gens:
                continue
            gamma = w.gamma_basis(n)
            for g, col in zip(node.gens, node.b_columns):
                cls = gamma.class_of(m.d(P.generator(m.generator(g))))
                assert tuple(sorted(cls.coords.items())) == col


@pytest.mark.parametrize("n_max", [None, 5])
def test_linear_term_in_a_differential_is_rejected(n_max):
    # d v = w + a^3 is not decomposable, so d(v) leaves ΛV^{<=|v|-1}
    a, v, w = Generator("a", 2), Generator("v", 5), Generator("w", 6)
    m = SullivanModel([a, v, w], {"v": P.generator(w) + P.monomial(mono((a, 3)))})
    with pytest.raises(ModelError):
        build_wes(m, n_max)


def _spy_window_builds(monkeypatch, cohomology_module):
    """Record the (complex model, degree) of every window built from now on."""
    built = []
    build = cohomology_module._Window.build

    def spy(cls, cx, k):
        built.append((cx.model, k))
        return build(cx, k)

    monkeypatch.setattr(cohomology_module._Window, "build", classmethod(spy))
    return built


@pytest.mark.parametrize("label", ["E3", "U3"])
def test_wes_builds_each_window_once_and_the_check_none(monkeypatch, label):
    # Γ^{n+1} is built once on the cut's own complex and stays cached there,
    # every dimension comes from ranks, and the check decides i ∘ b = 0 on
    # local blocks, so no (complex, degree) window is built twice
    import importlib

    from cohaut.corpus import load_builtin

    cohomology_module = importlib.import_module("cohaut.cohomology")
    m = load_builtin(label)
    monkeypatch.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(32))
    built = _spy_window_builds(monkeypatch, cohomology_module)
    w = build_wes(m)
    in_build = len(built)
    assert check_exactness(w).ok
    assert len(built) == in_build  # the check builds none
    assert built and len(set(built)) == len(built)


def test_exactness_check_builds_windows_only_where_v_n_is_nonzero(monkeypatch):
    # every class the check computes is a [d(v)] or [d(ℓ)] in Γ^{n+1} with v,
    # ℓ in V^n, and i ∘ b = 0 needs no window; with fresh caches after the
    # build, the check builds exactly those Γ^{n+1} windows and none on ΛV
    import importlib

    from cohaut.corpus import load_builtin

    cohomology_module = importlib.import_module("cohaut.cohomology")
    m = load_builtin("E3")
    w = build_wes(m)
    monkeypatch.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(32))
    built = _spy_window_builds(monkeypatch, cohomology_module)
    assert check_exactness(w).ok
    gen_degrees = [n for n in range(w.n_min, w.n_max + 1) if m.gens_of_degree(n)]
    assert sorted(built, key=lambda key: key[1]) == [
        (m.truncate(n - 1), n + 1) for n in gen_degrees
    ]
    assert all(model != m for model, _ in built)


def test_build_wes_builds_windows_only_next_to_generator_degrees(monkeypatch):
    # every dimension of a node comes from coboundary ranks; only the n with
    # V^n != 0 build windows: Γ^{n+1} on the cut ΛV^{<=n-1} and H^n(ΛV)
    import importlib

    from cohaut.corpus import load_builtin

    cohomology_module = importlib.import_module("cohaut.cohomology")
    m = load_builtin("E3")
    monkeypatch.setattr(cohomology_module, "_COMPLEXES", cohomology_module._LRU(32))
    built = _spy_window_builds(monkeypatch, cohomology_module)
    w = build_wes(m)
    gen_degrees = [n for n in range(w.n_min, w.n_max + 1) if m.gens_of_degree(n)]
    assert set(built) == {
        key for n in gen_degrees for key in ((m.truncate(n - 1), n + 1), (m, n))
    }
    assert len(gen_degrees) < (w.n_max - w.n_min + 1) // 2


def test_the_i_b_check_fails_where_d_v_is_no_coboundary(V, monkeypatch):
    # with every d(v) taken for a non-coboundary of ΛV, exactly the i ∘ b = 0
    # checks fail, at the generator degrees, naming the first generator
    import cohaut.whitehead as whitehead_module

    w = build_wes(V)
    monkeypatch.setattr(whitehead_module, "solve_coboundary", lambda m, k, rhs: None)
    failures = check_exactness(w).failures()
    gen_degrees = [n for n in range(w.n_min, w.n_max + 1) if V.gens_of_degree(n)]
    assert [(c.n, c.node) for c in failures] == [(n, f"Γ^{n + 1}: i ∘ b = 0") for n in gen_degrees]
    assert {c.n: c.detail for c in failures}[41] == "i(b(y1)) != 0"


def test_build_wes_refuses_a_model_that_fails_validation():
    # d(d c) = d(a^2 b) = a^4 != 0
    m = parse("model bad;\ngen a : 2;\ngen b : 3;\ngen c : 6;\nd b = a^2;\nd c = a^2*b;\n")
    with pytest.raises(ModelError) as err:
        build_wes(m)
    assert str(err.value) == "bad fails validation: d ∘ d = 0 on generators (d(d(c)) = a^4)"
