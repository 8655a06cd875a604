"""Tests of the benchmark itself: checker, span arithmetic, seeding, cache guard."""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import run
from checker import Checker, digest, scaled, witness_reproduces
from hostspeed import REFERENCE_S, SpeedLog
from spans import layer_self_times, self_times

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import weylgb as wb  # noqa: E402


def _solved(workload, template, copy=0, seed=1):
    """(case, output) for one case of a generated pass."""
    case = next(c for c in corpus.generate(workload, seed) if c.key == f"{template}#{copy}")
    mods = {name: importlib.import_module(f"weylgb.{name}") for name in run.MODULES}
    elements = [wb.parse_element(t, case.n) for t in case.texts]
    ordering = wb.parse_ordering(case.order, case.n) if case.order else None
    return case, run.solve(workload, mods, elements, ordering)


def _checker(workload, *solved):
    expected = json.loads((run.HERE / "expected.json").read_text())[workload]
    checker = Checker(wb, workload, dict(expected))
    for case, output in solved:
        checker.record(case, output)
    return checker


def test_checker_accepts_seed_outputs_and_scaled_copies():
    template = _solved("ugb", "sat6")
    copy = _solved("ugb", "sat6", copy=3)
    assert copy[0].scale != template[0].scale
    assert _checker("ugb", template, copy).failures() == []


def test_checker_rejects_corrupted_digest():
    case, output = _solved("ugb", "sat6")
    checker = _checker("ugb", (case, output))
    checker.expected["sat6"] = digest("corrupted")
    assert [reason for _, reason in checker.failures()] == ["digest differs from the recorded one"]


def test_checker_rejects_wrong_witness():
    case, output = _solved("ugb", "sat6")
    cone = output.cones[0]
    chain = [m.vector for m in cone.restriction.monomials]
    assert witness_reproduces(cone.witness.weights, chain)
    wrong = output.cones[-1].witness  # realizes another chain
    assert not witness_reproduces(wrong.weights, chain)
    bad = dataclasses.replace(output, cones=(dataclasses.replace(cone, witness=wrong),) + output.cones[1:])
    reasons = [reason for _, reason in _checker("ugb", (case, bad)).failures()]
    assert reasons == ["a cone witness does not reproduce its chain"]


def test_checker_rejects_wrong_scaled_copy():
    template = _solved("gb", "bessel@grlex")
    case, output = _solved("gb", "bessel@grlex", copy=0, seed=2)
    fake = dataclasses.replace(case, key="bessel@grlex#1", scale=(Fraction(2), Fraction(3)))
    reasons = [r for _, r in _checker("gb", template, (fake, output)).failures()]
    assert "scaled copy is not the image of its template's output" in reasons


def test_scaled_text_matches_scaled_element():
    scale = (Fraction(3, 2), Fraction(2, 5))
    for text in corpus.D_IDEALS["f4"][1]:
        image = wb.parse_element(corpus.scaled_text(text, scale), 2)
        assert image == scaled(wb.parse_element(text, 2), scale)


def test_self_time_is_duration_minus_children():
    spans = [
        (0, None, "universal_groebner", 0.0, 10.0),
        (1, 0, "enumerate_restrictions", 1.0, 4.0),
        (2, 1, "solve_inequalities", 2.0, 3.0),
        (3, 0, "buchberger", 5.0, 6.0),
        (4, 3, "divide", 5.25, 5.75),
    ]
    assert self_times(spans) == {
        "universal_groebner": 6.0,
        "enumerate_restrictions": 2.0,
        "solve_inequalities": 1.0,
        "buchberger": 0.5,
        "divide": 0.5,
    }
    assert layer_self_times(spans) == {
        "universal": 8.0,
        "feasibility": 1.0,
        "groebner": 0.5,
        "division": 0.5,
    }


@pytest.mark.parametrize("workload", ["ugb", "cert", "gb"])
def test_same_seed_same_inputs(workload):
    first = corpus.generate(workload, 7)
    assert first == corpus.generate(workload, 7)
    assert first != corpus.generate(workload, 8)
    assert len({c.key for c in first}) == corpus.SOLVES_PER_PASS


def test_tail_level_keeps_ten_solves_beyond_it():
    assert run.tail_level(100) == 90
    assert run.tail_level(99) == 75
    assert run.tail_level(1000) == 99
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_host_speed_factor_uses_nearby_reference_samples():
    log = SpeedLog()
    for at, seconds in [(0.0, 0.006), (1.0, 0.012), (2.5, 0.012), (10.0, 0.003)]:
        log.add(at, seconds)
    # samples within 2 s of [1.5, 2.0]: those at 0.0, 1.0 and 2.5
    assert log.factor(1.5, 2.0) == pytest.approx(REFERENCE_S / 0.012)
    assert log.scaled([(9.0, 9.5)]) == [pytest.approx(0.5 * REFERENCE_S / 0.003)]
    with pytest.raises(ValueError):
        log.factor(5.0, 5.5)


def test_missing_cache_fails_loudly():
    mods = {name: importlib.import_module(f"weylgb.{name}") for name in run.MODULES}
    assert len(run.cold_caches(mods)) == 2
    stale = dict(mods, universal=type("universal", (), {})())
    with pytest.raises(run.BenchmarkError, match="_realize_cached"):
        run.cold_caches(stale)


def _copy_bench(dest):
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def _bench(cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gb", "--seed", "1", "--seconds", "1"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_renamed_cache_makes_the_benchmark_fail(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    universal = tmp_path / "src" / "weylgb" / "universal.py"
    universal.write_text(universal.read_text().replace("_realize_cached", "_realize_memo"))
    proc = _bench(tmp_path)
    assert proc.returncode == 2
    assert "_realize_cached" in proc.stderr
    assert proc.stdout == ""


def test_benchmark_fails_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = _bench(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
