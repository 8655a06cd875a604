import ast
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
