import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cohaut.cli import main
from cohaut.dsl import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_validate_builtin(capsys):
    code, doc, _ = run_json(capsys, "validate", "V-ex31")
    assert code == 0
    assert list(doc) == ["command", "model", "results", "warnings", "timing_ms"]
    assert doc["results"]["ok"] is True
    assert doc["timing_ms"] == 0


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cohaut", "validate", "V-ex31"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "validation of V-ex31: PASS" in proc.stdout


def test_a_closed_stdout_exits_1_without_a_traceback():
    # as in `cohaut validate V-ex31 | head -1` once head has exited: the read
    # end of the pipe is closed before the CLI writes
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cohaut", "validate", "V-ex31"],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "demo.mcca"
    path.write_text("model demo;\ngen a : 2;\ngen c : 5;\nd c = a^3;\n")
    code, doc, _ = run_json(capsys, "validate", str(path))
    assert code == 0 and doc["results"]["ok"]


def test_validate_reports_failures_with_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.mcca"
    path.write_text(
        "model bad;\ngen x : 10;\ngen y : 9;\nd y = x;\n"
    )  # degree fits but indecomposable
    code, doc, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert doc["results"]["ok"] is False


def test_unknown_model_is_usage_error(capsys):
    code, out, err = run(capsys, "validate", "no-such-model")
    assert code == 2
    assert "neither a builtin label" in err


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.mcca"
    path.write_text("model broken;\ngen a : 2;\nd a = ;\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "3:" in err


def test_missing_required_flag_is_exit_2(capsys):
    assert main(["cohomology", "V-ex31"]) == 2


def test_cohomology_command(capsys):
    code, doc, _ = run_json(
        capsys, "cohomology", "V-ex31", "--degree", "42", "--truncate", "40"
    )
    assert code == 0
    assert doc["results"]["dimension"] == 1
    assert doc["results"]["representatives"] == ["x1^3*x2"]


def test_wes_command(capsys):
    code, doc, _ = run_json(capsys, "wes", "V-ex31", "--max", "50")
    assert code == 0
    assert doc["results"]["exact"] is True
    nodes = {rec["n"]: rec for rec in doc["results"]["nodes"]}
    assert nodes[41]["dim_gamma_next"] == 1


def test_coherent_accepts_the_sign_vector(capsys):
    code, doc, _ = run_json(
        capsys,
        "coherent",
        "V-ex31",
        "--xi",
        "p10=1,p12=-1,p41=-1,p43=1,p45=-1,p119=1",
    )
    assert code == 0
    assert doc["results"]["coherent"] is True


def test_coherent_obstruction_exit_1(capsys):
    code, doc, _ = run_json(
        capsys,
        "coherent",
        "V-ex31",
        "--xi",
        "p10=1,p12=1,p41=1,p43=1,p45=1,p119=2",
    )
    assert code == 1
    ob = doc["results"]["obstruction"]
    assert ob["degree"] == 119 and ob["generator"] == "z"


@pytest.mark.parametrize(
    "xi, coords",
    [
        ("p10=2,p12=1,p41=1,p43=1,p45=1,p119=1", "{0: 7}"),
        ("p10=1,p12=1,p41=1/2,p43=1,p45=1,p119=1", "{0: 1/2}"),
    ],
)
def test_obstruction_message_prints_coordinates_as_rationals(capsys, xi, coords):
    code, doc, _ = run_json(capsys, "coherent", "V-ex31", "--xi", xi)
    assert code == 1
    message = doc["results"]["obstruction"]["message"]
    assert f"H(α)b(y1) - b'ξ(y1) = {coords} is nonzero" in message
    assert "Fraction(" not in message


def test_coherent_rejects_bad_xi(capsys):
    code, out, err = run(capsys, "coherent", "V-ex31", "--xi", "garbage")
    assert code == 2


def test_coherent_accepts_matrix_file(tmp_path, capsys):
    blocks = {str(d): [[1]] for d in (10, 12, 41, 43, 45, 119)}
    path = tmp_path / "xi.json"
    path.write_text(json.dumps(blocks))
    code, doc, _ = run_json(capsys, "coherent", "V-ex31", "--xi", str(path))
    assert code == 0 and doc["results"]["coherent"] is True


def test_solve_v(capsys):
    code, doc, _ = run_json(capsys, "solve", "V-ex31")
    assert code == 0
    res = doc["results"]
    assert res["morphisms"] == 3
    assert res["automorphisms"] == 2
    assert res["group"]["order"] == 2
    assert res["group"]["torsion_rank"] == 1
    assert res["lift_verified"]["failed"] == 0


def test_solve_u1_infinite_with_warning(capsys):
    code, doc, _ = run_json(capsys, "solve", "U1")
    assert code == 0
    res = doc["results"]
    assert res["morphisms"] == "infinite"
    assert res["family"]["free_rank"] == 1
    assert any("x3^40" in w for w in doc["warnings"])


def test_iso_command(capsys):
    code, doc, _ = run_json(capsys, "iso", "V-ex31", "W-ex32")
    assert code == 0
    assert doc["results"]["isomorphic"] is False


def test_extend_command_produces_u1(capsys, U1):
    code, doc, _ = run_json(
        capsys, "extend", "W-ex32", "--gen", "3:40:x3", "--closing", "z"
    )
    assert code == 0
    rebuilt = parse(doc["results"]["source"])
    assert rebuilt == U1
    assert any("normalized to zero" in w for w in doc["warnings"])


def test_extend_degree_mismatch_exit_2(capsys):
    code, out, err = run(capsys, "extend", "W-ex32", "--gen", "5:20")
    assert code == 2
    assert err == "error: extension degree mismatch: 5 * 20 != |z| + 1 = 120\n"


@pytest.mark.parametrize(
    "argv, check",
    [
        # 2 * 21 = |y1| + 1, but x2_2^21 in d(y1) makes d(d(z)) nonzero
        (["--gen", "2:21", "--closing", "y1"], "d ∘ d = 0 on generators"),
        (["--gen", "60:2", "--closing", "x1"], "extension degree mismatch: 60 * 2 != |x1| + 1 = 11"),
    ],
    ids=["breaks-d-squared", "degree-mismatch"],
)
def test_extend_refuses_arguments_that_break_the_model(capsys, argv, check):
    code, out, err = run(capsys, "extend", "V-ex31", *argv)
    assert code == 2
    assert err.startswith("error: ") and check in err
    assert out == ""


def test_reproduce_ex31(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "ex31")
    assert code == 0
    assert doc["results"]["ok"] is True
    assert all(c["ok"] for c in doc["results"]["ex31"]["checks"])


def test_json_outputs_are_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "solve", "W-ex32", "--json")
    _, out2, _ = run(capsys, "solve", "W-ex32", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "cohomology", "V-ex31", "--degree", "120", "--truncate", "118", "--json")
    _, out4, _ = run(capsys, "cohomology", "V-ex31", "--degree", "120", "--truncate", "118", "--json")
    assert out3 == out4


# a number written as a float: a decimal point or an exponent, or inf/nan
FLOAT_TOKEN = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+(\.\d*)?[eE][-+]?\d+|inf|nan)")


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "all"),
        ("wes", "W-ex32", "--all-nodes"),
        ("wes", "U3", "--all-nodes"),
        ("coherent", "V-ex31", "--xi", "p10=1,p12=1,p41=1/2,p43=1,p45=1,p119=1"),
    ],
)
def test_json_outputs_hold_no_float(capsys, argv):
    # computed values are exact: no float literal in the document, and no
    # token of a string (a coefficient, a class coordinate) written as one
    _, out, _ = run(capsys, *argv, "--json")
    floats = []
    doc = json.loads(out, parse_float=floats.append)
    assert floats == []
    strings = []

    def walk(x):
        if isinstance(x, dict):
            strings.extend(k for k in x if isinstance(k, str))
            x = list(x.values())
        if isinstance(x, list):
            for y in x:
                walk(y)
        elif isinstance(x, str):
            strings.append(x)

    walk(doc)
    tokens = [t for text in strings for t in re.split(r"[\s,:;{}()\[\]=*^|]+", text)]
    assert [t for t in tokens if FLOAT_TOKEN.fullmatch(t)] == []


@pytest.mark.parametrize(
    "argv, xi_doc",
    [
        (["cohomology", "V-ex31", "--degree", "-1"], None),
        (["cohomology", "V-ex31", "--degree", "4", "--truncate", "-1"], None),
        (["cohomology", "V-ex31", "--degree", "4", "--max-representatives", "-1"], None),
        (["wes", "V-ex31", "--max", "2"], None),
        (["coherent", "V-ex31", "--xi", "p10=1,p11=2"], None),  # no degree-11 generator
        (["coherent", "V-ex31", "--xi", "XI_FILE"], [[1]]),
        (["coherent", "V-ex31", "--xi", "XI_FILE"], {"10": [[1, 2]]}),
        (["coherent", "V-ex31", "--xi", "XI_FILE"], {"10": [1]}),
        (["extend", "V-ex31", "--gen", "1:120"], None),
        (["extend", "W-ex32", "--gen", "120:1"], None),  # d z would gain a linear term
        (["extend", "W-ex32", "--gen", "4:30:1x"], None),  # names the DSL cannot read
        (["extend", "W-ex32", "--gen", "4:30:x\u00e9"], None),
        (["extend", "W-ex32", "--gen", "4:30:bad-name"], None),
        (["extend", "W-ex32", "--gen", "4:30:x1"], None),  # x1 is already a generator
        (["extend", "W-ex32", "--gen", "4:30", "--closing", "nope"], None),
        (["coherent", "V-ex31", "--xi", "p10=1,p10=2,p12=1,p41=1,p43=1,p45=1,p119=1"], None),
    ],
    ids=[
        "negative-degree",
        "negative-truncate",
        "negative-max-representatives",
        "max-below-3",
        "xi-degree",
        "xi-list",
        "xi-shape",
        "xi-row",
        "gen-degree",
        "gen-exponent",
        "gen-name-digit-first",
        "gen-name-non-ascii",
        "gen-name-dash",
        "gen-name-taken",
        "closing-unknown",
        "xi-repeated-degree",
    ],
)
def test_bad_arguments_exit_2_with_an_error_line(tmp_path, capsys, argv, xi_doc):
    path = tmp_path / "xi.json"
    path.write_text(json.dumps(xi_doc))
    code, out, err = run(capsys, *(str(path) if a == "XI_FILE" else a for a in argv))
    assert code == 2
    assert err.startswith("error: ")


def test_non_diagonal_model_is_a_usage_error_for_solve_and_iso(tmp_path, capsys):
    path = tmp_path / "nd.mcca"
    path.write_text("model nd;\ngen a : 2;\ngen b : 2;\ngen c : 5;\nd c = a^3 + a*b^2;\n")
    for argv in (["solve", str(path)], ["iso", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err == "error: nd has more than one generator in degree(s) [2]\n"


def test_iso_refuses_a_non_diagonal_model_whatever_the_other_model(tmp_path, capsys):
    # the degree multisets of nd and V-ex31 differ; the refusal must not depend on that
    path = tmp_path / "nd.mcca"
    path.write_text("model nd;\ngen a : 2;\ngen b : 2;\ngen c : 3;\nd c = a*b;\n")
    for argv in (["iso", str(path), "V-ex31"], ["iso", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err == "error: nd has more than one generator in degree(s) [2]\n"


# d(d c) = d(a^2 b) = a^4 != 0
NOT_A_COMPLEX = "model bad;\ngen a : 2;\ngen b : 3;\ngen c : 6;\nd b = a^2;\nd c = a^2*b;\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "MODEL", "--degree", "7"],
        ["wes", "MODEL"],
        ["coherent", "MODEL", "--xi", "p2=1,p3=1,p6=1"],
        ["solve", "MODEL"],
        ["iso", "V-ex31", "MODEL"],
        ["extend", "MODEL", "--gen", "2:2", "--closing", "b"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_refuse_a_model_that_fails_validation(tmp_path, capsys, argv):
    path = tmp_path / "bad.mcca"
    path.write_text(NOT_A_COMPLEX)
    code, out, err = run(capsys, *(str(path) if a == "MODEL" else a for a in argv))
    assert code == 1
    assert "fails validation" in err and "d ∘ d = 0 on generators" in err
    assert "dimension" not in out
