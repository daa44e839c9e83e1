from fractions import Fraction as Q

import pytest

from cohaut.corpus import BUILTIN_LABELS, V_EX31_SOURCE, load_builtin
from cohaut.dsl import ParseError, load_builtin as dsl_load_builtin, parse, serialize


def test_parse_example_31_source_gives_builtin(V):
    m = parse(V_EX31_SOURCE)
    assert m == V
    assert m.label == "V-ex31"
    assert len(m.generators) == 6


def test_missing_d_lines_default_to_zero():
    m = parse("model M;\ngen a : 2;\ngen b : 4;\n")
    assert m.differential("a").is_zero() and m.differential("b").is_zero()


def test_degree_mismatch_is_a_positioned_semantic_error():
    src = "model M;\ngen x1 : 10;\ngen y1 : 41;\nd y1 = x1;\n"
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "degree 10" in str(err.value) and "42" in str(err.value)
    assert err.value.line == 4


def test_unknown_generator_is_positioned():
    with pytest.raises(ParseError) as err:
        parse("model M;\ngen x : 10;\nd x = q*q;\n")
    assert "unknown generator 'q'" in str(err.value)
    assert (err.value.line, err.value.column) == (3, 7)


def test_unknown_generator_on_lhs():
    with pytest.raises(ParseError) as err:
        parse("model M;\ngen x : 10;\nd q = x*x;\n")
    assert err.value.line == 3


def test_degree_below_two_rejected():
    with pytest.raises(ParseError) as err:
        parse("model M;\ngen t : 1;\n")
    assert "1-connectedness" in str(err.value)


def test_duplicate_generator_rejected():
    with pytest.raises(ParseError):
        parse("model M;\ngen x : 4;\ngen x : 6;\n")


def test_lexical_error_position():
    with pytest.raises(ParseError) as err:
        parse("model M;\ngen x : 4;\nd x = x ? x;\n")
    assert err.value.line == 3


def test_model_name_allows_dash_but_not_dot():
    assert parse("model a-b;\ngen x : 2;\n").label == "a-b"
    with pytest.raises(ParseError) as err:
        parse("model a.b;\ngen x : 2;\n")
    assert (err.value.line, err.value.column) == (1, 8)
    assert str(err.value) == "<input>:1:8: unexpected character '.'"


def test_vanishing_term_parses_with_warning():
    src = (
        "model M;\n"
        "gen x3 : 3;\n"
        "gen x0 : 2;\n"
        "gen z : 119;\n"
        "d z = x0^60 + x3^40;\n"
    )
    m = parse(src)
    assert any("x3^40" in w for w in m.warnings)
    dz = m.differential("z")
    assert len(dz) == 1  # only x0^60 survives


def test_coefficients_fractions_signs_comments():
    src = (
        "# full syntax exercise\n"
        "model demo;  # trailing comment\n"
        "gen a : 2;\n"
        "gen b : 2;\n"
        "gen c : 3;\n"
        "d c = 3/2 * a^2 - 2*a*b + b^2 - 1/3*a*b;\n"
    )
    m = parse(src)
    dc = m.differential("c")
    a, b = m.generator("a"), m.generator("b")
    from cohaut.algebra import Monomial

    assert dc.coefficient(Monomial(((a, 2),))) == Q(3, 2)
    assert dc.coefficient(Monomial(((a, 1), (b, 1)))) == Q(-7, 3)
    assert dc.coefficient(Monomial(((b, 2),))) == Q(1)


def test_exponent_binds_tighter_than_product():
    src = "model demo;\ngen a : 2;\ngen c : 7;\nd c = a*a^2*a;\n"
    m = parse(src)
    a = m.generator("a")
    from cohaut.algebra import Monomial

    assert m.differential("c").coefficient(Monomial(((a, 4),))) == 1


def test_explicit_zero_differential():
    m = parse("model demo;\ngen a : 2;\ngen c : 7;\nd c = 0;\n")
    assert m.differential("c").is_zero()


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_round_trip_corpus(label):
    m = load_builtin(label)
    again = parse(serialize(m))
    assert again == m
    assert again.label == m.label


def test_serialize_pins_signs_and_fractions():
    src = (
        "model signs;\ngen a : 2;\ngen b : 2;\ngen c : 5;\ngen e : 7;\n"
        "d c = -3/2*a^3 - a^2*b + a*b^2 - 2/5*b^3;\nd e = -a^4 + 7*b^4;\n"
    )
    m = parse(src)
    assert serialize(m) == src
    assert parse(serialize(m)) == m


def test_load_builtin_w(W):
    m = dsl_load_builtin("W-ex32")
    assert m == W
    assert len(m.generators) == 7
    x0 = m.generator("x0")
    assert x0.degree == 2


def test_load_builtin_unknown_label():
    with pytest.raises(KeyError):
        dsl_load_builtin("bogus")


def test_every_builtin_validates_with_expected_warnings():
    # vanished odd-power terms accumulate down the U tower: x3^40 (U1),
    # x5^20 (U3), x15^8 (U5); V, W and the even tower are warning-free
    expected_warnings = {
        "V-ex31": 0, "W-ex32": 0,
        "U1": 1, "U2": 1, "U3": 2, "U4": 2, "U5": 3, "U6": 3, "U7": 3, "U8": 3,
        "E2": 0, "E3": 0, "E4": 0, "E5": 0, "E6": 0, "E7": 0,
    }
    for label in BUILTIN_LABELS:
        m = load_builtin(label)
        report = m.validate()
        assert report.ok, f"{label}: {report}"
        assert len(report.warnings) == expected_warnings[label], label
