import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylgb import cli, universal
from weylgb.cli import main, parse_problem_file


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
