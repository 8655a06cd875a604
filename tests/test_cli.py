import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylgb import cli, parse_element, universal
from weylgb.cli import main, parse_problem_file
from weylgb.division import DivisionResult


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_nf_normalizes(capsys):
    status, out, _ = run(capsys, ["nf", "--n", "1", "d1*x1"])
    assert status == 0
    assert out == "x1*d1 + 1\n"


def test_mul(capsys):
    status, out, _ = run(capsys, ["mul", "--n", "1", "d1", "x1"])
    assert status == 0
    assert out == "x1*d1 + 1\n"


def test_div_reports_contract(capsys):
    status, out, _ = run(capsys, ["div", "--n", "1", "--order", "lex", "x1*d1", "d1"])
    assert status == 0
    assert "q[1] = x1" in out
    assert "r = 0" in out
    assert out.count("ok") == 3
    assert "FAILED" not in out


def test_gb_whole_algebra(capsys):
    status, out, _ = run(capsys, ["gb", "--n", "1", "--order", "lex", "x1", "d1"])
    assert status == 0
    assert out == "1\n"


def test_ugb_certificate(capsys):
    status, out, _ = run(capsys, ["ugb", "--n", "1", "x1", "d1"])
    assert status == 0
    assert "universal groebner certificate" in out
    assert "cones (1):" in out
    assert "  1" in out  # the basis element


def test_cert_counterexample_path(capsys):
    # x1 + d1 + 1 alone is certified; x1, d1 as a pair is not a basis of W
    status, out, _ = run(capsys, ["cert", "--n", "1", "x1", "d1"])
    assert status == 0
    assert "not universal" in out


def test_cmp(capsys):
    status, out, _ = run(capsys, ["cmp", "--n", "1", "--order", "lex", "d1", "x1"])
    assert status == 0
    assert out == "d1 < x1\n"
    status, out, _ = run(
        capsys, ["cmp", "--n", "1", "--order", "matrix:[[0,1]]", "d1", "x1"]
    )
    assert out == "d1 > x1\n"
    status, out, _ = run(capsys, ["cmp", "--n", "2", "x1", "x1"])
    assert out == "x1 = x1\n"


@pytest.mark.parametrize("term", ["2*x1", "-x1", "1/2*x1*d1", "x1 + d1"])
def test_cmp_rejects_terms_that_are_not_monomials(capsys, term):
    status, out, err = run(capsys, ["cmp", "--n", "1", "--", term, "x1"])
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and "cmp expects single monomials" in err


def test_json_output_is_byte_stable(capsys):
    argv = ["ugb", "--n", "1", "--json", "x1", "d1"]
    status, first, _ = run(capsys, argv)
    assert status == 0
    status, second, _ = run(capsys, argv)
    assert first == second
    assert first == (
        '{"certificate": {"basis": ["1"], "cones": [{"restriction": ["1"], '
        '"verdict": "passed", "weights": ["0", "0"]}], "dimension": 1, '
        '"family": "nonnegative weight row + lex tie-break", "support": ["1"]}, '
        '"command": "ugb"}\n'
    )
    payload = json.loads(first)
    assert payload["certificate"]["basis"] == ["1"]
    assert len(payload["certificate"]["cones"]) == 1


_CERTIFICATE_HEAD = (
    "universal groebner certificate\n"
    "dimension: 1\n"
    "certified family: nonnegative weight row + lex tie-break\n"
    "coverage: every normal ordering whose restriction to the support\n"
    "  is realized by the family above is covered by the transfer principle\n"
)
_FAMILY = '"family": "nonnegative weight row + lex tie-break"'


@pytest.mark.parametrize(
    "argv, text, json_text",
    [
        (
            ["mul", "--n", "1", "d1", "x1^2"],
            "x1^2*d1 + 2*x1\n",
            '{"command": "mul", "n": 1, "result": "x1^2*d1 + 2*x1"}\n',
        ),
        (
            ["nf", "--n", "2", "d2*x2*d1*x1"],
            "x1*x2*d1*d2 + x1*d1 + x2*d2 + 1\n",
            '{"command": "nf", "n": 2, "result": "x1*x2*d1*d2 + x1*d1 + x2*d2 + 1"}\n',
        ),
        (
            ["div", "--n", "1", "--order", "lex", "x1*d1^2+x1", "d1"],
            "q[1] = x1*d1\n"
            "r = x1\n"
            "check (a) exact reconstruction: ok\n"
            "check (b) remainder irreducible: ok\n"
            "check (c) quotient term bound: ok\n",
            '{"command": "div", "contract": {"quotient_bound": true, "reconstruction": true, '
            '"remainder_irreducible": true}, "n": 1, "order": "lex", "quotients": ["x1*d1"], '
            '"remainder": "x1"}\n',
        ),
        (
            ["gb", "--n", "2", "--order", "lex", "x1*d2", "x2*d1"],
            "x1*d1 - x2*d2\nx1*d2\nx2^2*d2\nx2*d1\nx2*d2^2 + 2*d2\n",
            '{"basis": ["x1*d1 - x2*d2", "x1*d2", "x2^2*d2", "x2*d1", "x2*d2^2 + 2*d2"], '
            '"command": "gb", "n": 2, "order": "lex"}\n',
        ),
        (
            ["ugb", "--n", "1", "x1+d1"],
            _CERTIFICATE_HEAD + "basis (1):\n"
            "  x1 + d1\n"
            "support (2): d1, x1\n"
            "cones (2):\n"
            "  cone 1: d1 < x1 | weights 0 0 | passed\n"
            "  cone 2: x1 < d1 | weights 0 1 | passed\n",
            '{"certificate": {"basis": ["x1 + d1"], "cones": [{"restriction": ["d1", "x1"], '
            '"verdict": "passed", "weights": ["0", "0"]}, {"restriction": ["x1", "d1"], '
            '"verdict": "passed", "weights": ["0", "1"]}], "dimension": 1, '
            + _FAMILY
            + ', "support": ["d1", "x1"]}, "command": "ugb"}\n',
        ),
        (
            ["cert", "--n", "1", "x1 + d1 + 1"],
            _CERTIFICATE_HEAD + "basis (1):\n"
            "  x1 + d1 + 1\n"
            "support (3): 1, d1, x1\n"
            "cones (2):\n"
            "  cone 1: 1 < d1 < x1 | weights 0 0 | passed\n"
            "  cone 2: 1 < x1 < d1 | weights 0 1 | passed\n",
            '{"certificate": {"basis": ["x1 + d1 + 1"], "cones": [{"restriction": ["1", "d1", '
            '"x1"], "verdict": "passed", "weights": ["0", "0"]}, {"restriction": ["1", "x1", '
            '"d1"], "verdict": "passed", "weights": ["0", "1"]}], "dimension": 1, '
            + _FAMILY
            + ', "support": ["1", "d1", "x1"]}, "command": "cert", "verdict": "certified"}\n',
        ),
        (
            ["cert", "--n", "1", "x1", "d1"],
            "verdict: not universal\n"
            "counterexample restriction: d1 < x1\n"
            "counterexample weights: 0 0\n",
            '{"command": "cert", "restriction": ["d1", "x1"], "verdict": "counterexample", '
            '"weights": ["0", "0"]}\n',
        ),
        (
            ["cmp", "--n", "1", "--order", "lex", "d1", "x1"],
            "d1 < x1\n",
            '{"command": "cmp", "left": "d1", "relation": "<", "right": "x1"}\n',
        ),
    ],
    ids=["mul", "nf", "div", "gb", "ugb", "cert-certified", "cert-counterexample", "cmp"],
)
def test_every_command_prints_exact_bytes(capsys, argv, text, json_text):
    assert run(capsys, argv) == (0, text, "")
    assert run(capsys, [*argv, "--json"]) == (0, json_text, "")


def _with_flag(argv, flag, value):
    return [argv[0], flag, value, *argv[1:]]


# README: div, gb and cmp read --order, ugb and cert read --max-support, and
# the other commands validate these flags and ignore them
_RUNS = {
    "mul": ["mul", "--n", "2", "d1", "x1^2*d2", "x2"],
    "nf": ["nf", "--n", "2", "d2*x2*d1*x1"],
    "div": ["div", "--n", "1", "x1*d1^2+x1", "d1"],
    "gb": ["gb", "--n", "2", "x1*d2", "x2*d1"],
    "ugb": ["ugb", "--n", "1", "x1+d1"],
    "cert": ["cert", "--n", "1", "x1 + d1 + 1"],
    "cmp": ["cmp", "--n", "1", "d1", "x1"],
}


@pytest.mark.parametrize("command", ["mul", "nf", "ugb", "cert"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_order_is_validated_and_ignored_where_unread(capsys, command, json_flag):
    argv = _RUNS[command] + json_flag
    plain = run(capsys, argv)
    assert plain[0] == 0 and plain[1]
    assert run(capsys, _with_flag(argv, "--order", "lex")) == plain
    assert run(capsys, _with_flag(argv, "--order", "bogus")) == (
        1,
        "",
        "error: unknown ordering spec 'bogus'; use lex, grlex or matrix:[[...]]\n",
    )


@pytest.mark.parametrize("command", ["mul", "nf", "div", "gb", "cmp"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_max_support_is_validated_and_ignored_where_unread(capsys, command, json_flag):
    argv = _RUNS[command] + json_flag
    plain = run(capsys, argv)
    assert plain[0] == 0 and plain[1]
    # 0 refuses every support on ugb and cert
    assert run(capsys, _with_flag(argv, "--max-support", "0")) == plain
    assert run(capsys, _with_flag(argv, "--max-support", "-1")) == (
        1,
        "",
        "error: --max-support must be >= 0\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # the dimension, then the ordering spec, then the expression count,
        # then each expression in the order the command reads it
        (["nf", "x1^"], "dimension required: pass --n or an input file with n="),
        (
            ["cmp", "--n", "1", "--order", "bogus", "x1^", "x1"],
            "unknown ordering spec 'bogus'; use lex, grlex or matrix:[[...]]",
        ),
        (["nf", "--n", "1", "x1^", "d1"], "nf needs exactly one expression"),
        (
            ["cmp", "--n", "1", "x1^", "2*x1"],
            "exponent must be a nonnegative integer (at position 3)",
        ),
        (["cmp", "--n", "1", "--", "2*x1", "x1^"], "cmp expects single monomials, got '2*x1'"),
        (["ugb", "--n", "1", "0", "x1^"], "exponent must be a nonnegative integer (at position 3)"),
    ],
)
def test_usage_errors_come_in_a_fixed_order(capsys, argv, message):
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_division_contract_failure_is_internal_error(capsys, monkeypatch):
    x1 = parse_element("x1", 1)
    monkeypatch.setattr(cli, "divide", lambda w, divisors, ordering: DivisionResult([0], x1))
    status, out, err = run(capsys, ["div", "--n", "1", "--order", "lex", "x1*d1", "d1"])
    assert status == 3
    assert out == (
        "q[1] = 0\n"
        "r = x1\n"
        "check (a) exact reconstruction: FAILED\n"
        "check (b) remainder irreducible: ok\n"
        "check (c) quotient term bound: ok\n"
    )
    assert err == "internal error; the division contract failed\n"


def test_missing_dimension_is_usage_error(capsys):
    status, _, err = run(capsys, ["nf", "x1"])
    assert status == 1
    assert "dimension" in err


def test_bad_expression_is_usage_error(capsys):
    status, _, err = run(capsys, ["nf", "--n", "1", "x1 +"])
    assert status == 1
    assert "error" in err


def test_zero_denominator_is_usage_error(capsys):
    status, _, err = run(capsys, ["nf", "--n", "1", "1/0"])
    assert status == 1
    assert err == "error: zero denominator (at position 0)\n"


def test_closed_stdout_exits_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylgb.cli", "ugb", "--n", "2", "x1+d2", "x2+d1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_out_of_range_variable(capsys):
    status, _, err = run(capsys, ["nf", "--n", "1", "x2"])
    assert status == 1
    assert "out of range" in err


def test_support_cap_refusal(capsys):
    status, _, err = run(
        capsys, ["cert", "--n", "1", "--max-support", "2", "x1 + d1 + 1"]
    )
    assert status == 2
    assert "refused" in err


def test_negative_support_cap_is_usage_error(capsys):
    status, out, err = run(capsys, ["cert", "--n", "1", "--max-support", "-1", "x1"])
    assert status == 1
    assert out == ""
    assert err == "error: --max-support must be >= 0\n"
    # a cap of 0 is valid and refuses every support
    status, _, err = run(capsys, ["cert", "--n", "1", "--max-support", "0", "x1"])
    assert status == 2
    assert err.startswith("refused: ")


def test_refusal_counts_one_monomial_in_the_singular(capsys):
    status, out, err = run(capsys, ["ugb", "--n", "1", "--max-support", "0", "x1"])
    assert (status, out) == (2, "")
    assert err == (
        "refused: support has 1 monomial, above the enumeration cap 0; raise "
        "max_support to force the computation (saturation round 1, basis size 1)\n"
    )
    status, _, err = run(capsys, ["cert", "--n", "1", "--max-support", "1", "x1 + d1"])
    assert status == 2
    assert err == (
        "refused: support has 2 monomials, above the enumeration cap 1; raise "
        "max_support to force the computation (certification support)\n"
    )


def test_saturation_limit_is_refusal(capsys, monkeypatch):
    # the CLI has no round flag; lower the library default instead
    monkeypatch.setattr(
        cli, "universal_groebner", functools.partial(universal.universal_groebner, max_rounds=1)
    )
    status, out, err = run(capsys, ["ugb", "--n", "2", "x1^2-x2", "x1*x2-1"])
    assert status == 2
    assert out == ""
    assert err == (
        "refused: saturation did not stabilize after 1 rounds; "
        "current basis has 4 elements; raise max_rounds to continue\n"
    )


def test_leading_minus_needs_separator(capsys):
    status, out, err = run(capsys, ["nf", "--n", "1", "-x1*d1"])
    assert status == 1
    assert out == ""
    assert err == (
        "error: unrecognized arguments: -x1*d1; "
        "put expressions that start with '-' after '--'\n"
    )
    status, out, err = run(capsys, ["nf", "--n", "1", "--", "-x1*d1"])
    assert (status, out, err) == (0, "-x1*d1\n", "")
    # a misspelled flag is not an expression: no hint
    status, out, err = run(capsys, ["nf", "--n", "1", "--bogus", "x1"])
    assert (status, out, err) == (1, "", "error: unrecognized arguments: --bogus\n")


def test_stalled_saturation_is_internal_error(capsys, monkeypatch):
    # every round returns the grlex basis, so a counterexample adds nothing
    real = universal.reduce_basis
    first = []

    def stuck(basis):
        if not first:
            first.append(real(basis))
        return first[0]

    monkeypatch.setattr(universal, "reduce_basis", stuck)
    status, _, err = run(capsys, ["ugb", "--n", "2", "x1^2-x2", "x1*x2-1"])
    assert status == 3
    assert "contributed no new elements" in err


def test_engine_value_error_is_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(cli, "buchberger", broken)
    status, out, err = run(capsys, ["gb", "--n", "1", "x1"])
    assert status == 3
    assert out == ""
    assert err.startswith("internal error; diagnostics follow\n")
    assert "ValueError: engine bug" in err


def test_out_of_memory_is_refusal(capsys, monkeypatch):
    # an allocation that fails for real may first take gigabytes of the
    # host's memory, so the handler raises MemoryError itself
    def exhausted(*args):
        raise MemoryError

    desc, _, least, most, needs = cli._COMMANDS["nf"]
    monkeypatch.setitem(cli._COMMANDS, "nf", (desc, exhausted, least, most, needs))
    for json_flag in ([], ["--json"]):
        status, out, err = run(capsys, ["nf", "--n", "1", *json_flag, "x1"])
        assert (status, out, err) == (2, "", "refused: out of memory\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cmp", "--n", "1", "--order", "bogus", "d1", "x1"], "unknown ordering spec"),
        (["cmp", "--n", "1", "--order", "matrix:[[1,-2]]", "d1", "x1"], "nonnegative"),
        (["gb", "--n", "1", "--order", "matrix:[[1,2,3]]", "x1"], "even width"),
        (["ugb", "--n", "1", "0"], "zero ideal"),
        (["cert", "--n", "1", "x1", "0"], "nonzero elements"),
        (["nf", "--n", "1", "(" * 3000 + "x1" + ")" * 3000], "nested too deeply"),
    ],
)
def test_invalid_input_is_usage_error(capsys, argv, message):
    status, out, err = run(capsys, argv)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_unknown_command(capsys):
    status, _, err = run(capsys, ["frobnicate"])
    assert status == 1


def test_problem_file_input(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    problem.write_text(
        "# sample problem\n"
        "n=1\n"
        "order=lex\n"
        "gen=x1*d1\n"
        "gen=d1\n"
    )
    status, out, _ = run(capsys, ["div", "--input", str(problem)])
    assert status == 0
    assert "r = 0" in out


def test_undecodable_problem_file_is_usage_error(tmp_path, capsys):
    problem = tmp_path / "problem.bin"
    problem.write_bytes(b"n=1\ngen=x1\x81\xff\n")
    status, out, err = run(capsys, ["nf", "--input", str(problem)])
    assert status == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {problem}")


def test_problem_file_flag_overrides(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    problem.write_text("n=1\norder=lex\ngen=d1\ngen=x1\n")
    status, out, _ = run(capsys, ["cmp", "--input", str(problem), "--order", "matrix:[[0,1]]"])
    assert status == 0
    assert out == "d1 > x1\n"


def test_problem_file_parser():
    parsed = parse_problem_file("n=2\norder=grlex\ngen=x1\n\n# comment\ngen=x2\n")
    assert parsed.n == 2
    assert parsed.order_text == "grlex"
    assert parsed.generator_texts == ["x1", "x2"]


def test_problem_file_bad_line():
    from weylgb.cli import UsageError

    with pytest.raises(UsageError):
        parse_problem_file("bogus line\n")
