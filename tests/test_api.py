import ast
import importlib
import sys
from pathlib import Path

import weylgb


def test_public_surface_resolves_and_ships_no_oracle():
    for name in weylgb.__all__:
        assert getattr(weylgb, name, None) is not None, name
    assert "weylgb.commutative" not in sys.modules


def test_library_has_no_assert_statements():
    # invariant checks must still run under python -O, which strips asserts
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def _perfbench_constant(filename, name):
    """A literal module constant of perfbench, read without importing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / filename
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == name for t in node.targets)
    )


def test_trace_patch_points_resolve():
    # perfbench's trace run wraps these module attributes; a name dropped
    # from a module would make that run fail with AttributeError
    points = _perfbench_constant("spans.py", "PATCH_POINTS")
    assert points
    for module, attr in points:
        mod = importlib.import_module(f"weylgb.{module}")
        assert callable(getattr(mod, attr, None)), f"weylgb.{module}.{attr}"


def test_bench_cold_caches_resolve():
    # perfbench clears these caches before every solve; one that is dropped
    # or is no longer an lru_cache would make every benchmark run exit 2
    caches = _perfbench_constant("run.py", "COLD_CACHES")
    assert caches
    for module, attr in caches:
        fn = getattr(importlib.import_module(f"weylgb.{module}"), attr, None)
        assert callable(getattr(fn, "cache_clear", None)), f"weylgb.{module}.{attr}"
        assert callable(getattr(fn, "cache_info", None)), f"weylgb.{module}.{attr}"


def test_every_cache_is_cleared_by_the_bench():
    # a cache missing from COLD_CACHES would stay warm across the bench's
    # solves, so its timings would not be cold
    cold = set(_perfbench_constant("run.py", "COLD_CACHES"))
    cached = set()
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "id", None) or getattr(target, "attr", None)
                    if name in ("lru_cache", "cache"):
                        cached.add((path.stem, node.name))
    assert cached, "no cache found; the search is broken"
    assert cached <= cold, sorted(cached - cold)
