import ast
import contextlib
import dataclasses
import importlib
import io
import re
import sys
import types
from pathlib import Path

import pytest

import weylgb

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_dataclass_has_a_docstring():
    # without one, dataclasses builds __doc__ from inspect.signature each time
    # the class is created, which is on every import; the class namespace
    # holds __doc__ (None) either way, so read the source
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                assert ast.get_docstring(node), f"{path.name}: {node.name} has no docstring"


def test_only_weyl_names_its_slot_writers():
    # the _set_* writers bypass the immutability guard of weyl's values; a
    # module that imported or named one could store state on a value
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        if path.name == "weyl.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [(node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.Name):
                names.append((node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((node.lineno, node.attr))
        writers = [(line, name) for line, name in names if name.startswith("_set_")]
        assert not writers, f"{path.name} names slot writers at {writers}"


def test_only_division_and_groebner_handle_divisor_entries():
    # division._entry builds a prepared divisor entry, and the entry's tuple
    # layout is known to division and groebner alone; others hand
    # groebner._groebner_verdict int forms and leading monomials
    found = []
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        if path.name in ("division.py", "groebner.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, node.lineno) for name in names if name == "_entry"]
    assert not found, f"modules name division._entry at {found}"


def test_only_weyl_states_the_dimension_rule():
    # weyl._check_dimension and WeylElement._check_compatible are the one
    # place that decides on a dimension; cli.py maps --n < 1 to exit status 1
    def is_n(node):
        return (isinstance(node, ast.Name) and node.id == "n") or (
            isinstance(node, ast.Attribute) and node.attr == "n"
        )

    def is_one(node):
        return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 1

    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        if path.name == "weyl.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and path.name != "cli.py":
                # adjacent operands only: 1 <= i <= n compares i with n
                operands = [node.left, *node.comparators]
                for pair in zip(operands, operands[1:]):
                    if any(map(is_n, pair)) and any(map(is_one, pair)):
                        found.append(node.lineno)
            elif isinstance(node, ast.Constant) and str(node.value).startswith("dimension mismatch"):
                found.append(node.lineno)
        assert not found, f"{path.name} checks a dimension itself at lines {found}"


def test_only_weyl_states_the_argument_rules():
    # weyl._check_int and weyl._check_elements are the one place that decides
    # on an int argument or an element list; cli.py words its usage errors
    def states_int_rule(node):
        return any(
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and ("must be >=" in sub.value or "must be an int" in sub.value)
            for sub in ast.walk(node)
        )

    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        if path.name == "weyl.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_check_compatible":
                found.append(node.lineno)
            elif isinstance(node, ast.Raise) and path.name != "cli.py" and states_int_rule(node):
                found.append(node.lineno)
        assert not found, f"{path.name} checks an argument itself at lines {found}"


def test_only_the_cli_runner_parses_and_prints():
    # cli._run resolves the inputs, parses the expressions and prints the
    # result for every command; a handler only computes
    path = Path(weylgb.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef) or function.name == "_run":
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("_setup", "parse_element", "_emit")
            ):
                found.add(function.name)
    assert not found, f"cli.py parses or prints outside _run in {sorted(found)}"


def test_no_value_keeps_a_cache():
    # values are stateless: what a value's fields determine is computed on
    # each call, so no slot holds a memo that grows while the value lives
    found = []
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in node.targets
                ):
                    found += [
                        f"{path.stem}.{cls.name}.{slot}"
                        for slot in ast.literal_eval(node.value)
                        if "cache" in slot.lower()
                    ]
    assert not found, f"slots that name a cache: {found}"


def test_no_module_reads_monomial_vector():
    # a Monomial is its exponent tuple, so the kernels read the monomial
    # itself; the .vector property stays for callers outside the package
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "vector"
        ]
        assert not reads, f"{path.name} reads .vector at lines {reads}"


def _perfbench_constant(filename, name):
    """A literal module constant of perfbench, read without importing it."""
    path = ROOT / "perfbench" / filename
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


def _library_modules():
    """(path, module) for each module file of the package."""
    for path in sorted(Path(weylgb.__file__).parent.glob("*.py")):
        name = "weylgb" if path.stem == "__init__" else f"weylgb.{path.stem}"
        yield path, importlib.import_module(name)


def test_every_cache_has_a_bound():
    # caches have bounded memory: an unbounded lru_cache or functools.cache
    # would keep every argument and result for the life of the process
    caches = {}
    for _, mod in _library_modules():
        values = list(vars(mod).values())
        values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
        for value in values:
            if callable(getattr(value, "cache_info", None)) and value.__module__ == mod.__name__:
                caches[f"{mod.__name__}.{value.__qualname__}"] = value.cache_info().maxsize
    assert "weylgb.weyl.multiply_monomials" in caches, "the search is broken"
    assert all(size is not None for size in caches.values()), caches


def test_no_module_imports_a_name_it_never_uses():
    # perfbench's trace run wraps its patch points where a module imports
    # them, so those imports stay even when the module never calls them
    patched = set(_perfbench_constant("spans.py", "PATCH_POINTS"))
    unused = []
    for path, mod in _library_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(getattr(mod, "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and (path.stem, name) not in patched:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def _readme_section(heading):
    """The README text under ``## heading``, up to the next ``## `` heading."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def test_readme_library_api_is_the_package_namespace():
    # each documented name leads one bullet line: `name` or `name(args)`
    section = _readme_section("Library API")
    documented = re.findall(r"^- `([A-Za-z_]\w*)", section, flags=re.MULTILINE)
    assert len(documented) == len(set(documented)), sorted(documented)
    assert set(documented) == set(weylgb.__all__)
    assert len(weylgb.__all__) == len(set(weylgb.__all__))
    for name in dir(weylgb):
        if name.startswith("_") or name in weylgb.__all__:
            continue
        assert isinstance(getattr(weylgb, name), types.ModuleType), name


def test_perfbench_reads_only_public_names():
    # the benchmark reads these names off the package object; one dropped
    # from __all__ would make every bench run fail instead of a test
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "weylgb":
                read.update(alias.name for alias in node.names)
            if (
                isinstance(node, ast.Attribute)
                and not node.attr.startswith("__")
                and ast.unparse(node.value) in ("wb", "self.wb")
            ):
                read.add(node.attr)
    assert read, "no read of the package found; the search is broken"
    assert read <= set(weylgb.__all__), sorted(read - set(weylgb.__all__))


def test_readme_quick_tour_runs_as_commented():
    section = _readme_section("Library quick tour")
    code = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    tree = ast.parse(code)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert isinstance(node, ast.ImportFrom) and node.module == "weylgb"
            assert {a.name for a in node.names} <= set(weylgb.__all__)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tree, "README.md", "exec"), namespace)
    # a bare expression line is commented with its value
    lines = code.splitlines()
    shown = [
        node for node in tree.body
        if isinstance(node, ast.Expr) and not isinstance(node.value, ast.Call)
    ]
    assert shown
    for node in shown:
        expr, comment = lines[node.lineno - 1].split("#")
        value = eval(expr, namespace)
        assert weylgb.format_element(value) == comment.strip()
    # res = divide(x * d, [d], lex): quotient x1, remainder 0
    res = namespace["res"]
    assert [weylgb.format_element(q) for q in res.quotients] == ["x1"]
    assert not res.remainder
    # print(certificate_text(cert)): 2 cones, both passed
    text = out.getvalue()
    assert text == weylgb.certificate_text(namespace["cert"]) + "\n"
    cones = [line for line in text.splitlines() if line.startswith("  cone ")]
    assert "cones (2):" in text and len(cones) == 2
    assert all(line.endswith("| passed") for line in cones)


def _documented_values():
    """(label, value): one instance of every value the Library API lists or
    returns, the Infeasible from the solver still unread."""
    from weylgb import (
        Filtration,
        Infeasible,
        Monomial,
        Ordering,
        WeylAlgebra,
        buchberger,
        certify_universal,
        divide,
        enumerate_restrictions,
        leading_term,
        ordering_distance,
        solve_inequalities,
        universal_groebner,
    )

    W = WeylAlgebra(1)
    x, d = W.xi(1), W.d(1)
    lex = Ordering.lex()
    rows = [((0, -1), 1), ((0, 1), 0)]
    restriction, witness = enumerate_restrictions([Monomial((1,), (0,)), Monomial((0,), (1,))])[0]
    cert = universal_groebner([x + d])
    return [
        ("Monomial", Monomial((1,), (0,))),
        ("WeylElement", x),
        ("Ordering", lex),
        ("matrix Ordering", Ordering.matrix([(1, 2)])),
        ("WeylAlgebra", W),
        ("Filtration", Filtration(1)),
        ("DistanceBound", ordering_distance(lex, Ordering.grlex(1), Filtration(1), 3)),
        ("GroebnerBasis", buchberger([x + d], lex)),
        ("DivisionResult", divide(x * d, [d], lex)),
        ("LeadingTerm", leading_term(x, lex)),
        ("eager Infeasible", Infeasible(tuple(rows), (1, 1))),
        ("deferred Infeasible", solve_inequalities(rows, 2)),
        ("Restriction", restriction),
        ("WeightWitness", witness),
        ("Cone", cert.cones[0]),
        ("UniversalCertificate", cert),
        ("CounterexampleOrdering", certify_universal([x, d])),
    ]


def test_documented_values_refuse_assignment_and_deletion():
    # README: all values are immutable after construction
    values = _documented_values()
    documented = {
        name for name in weylgb.__all__
        if isinstance(getattr(weylgb, name), type)
        and not issubclass(getattr(weylgb, name), Exception)
    }
    returned = {"DivisionResult", "LeadingTerm", "Restriction", "WeightWitness", "Cone"}
    assert {type(v).__name__ for _, v in values} == documented | returned
    accepted = []
    for label, value in values:
        names = {name for name in dir(value) if not name.startswith("_")}
        if dataclasses.is_dataclass(value):
            names.update(f.name for f in dataclasses.fields(value))
        assert names, label
        for name in sorted(names):
            try:
                setattr(value, name, None)
                accepted.append(f"{label}.{name} = None")
            except AttributeError:
                pass
            try:
                delattr(value, name)
                accepted.append(f"del {label}.{name}")
            except AttributeError:
                pass
    assert not accepted, accepted
    deferred = dict(values)["deferred Infeasible"]
    assert deferred == dict(values)["eager Infeasible"] and deferred.verify()


def test_orderings_and_algebras_refuse_reassignment():
    # an ordering whose rows were replaced kept sorting by its old rows while
    # it compared equal to the ordering of the new ones
    from weylgb import Monomial, Ordering, WeylAlgebra

    x1, d1 = Monomial((1,), (0,)), Monomial((0,), (1,))
    lex = Ordering.lex()
    with pytest.raises(AttributeError):
        lex.rows = ((0, 1),)
    assert lex == Ordering.lex() and lex != Ordering.matrix([(0, 1)])
    assert lex.compare(x1, d1) == 1 and Ordering.matrix([(0, 1)]).compare(x1, d1) == -1
    W = WeylAlgebra(1)
    with pytest.raises(AttributeError):
        W.n = 2
    with pytest.raises(ValueError):
        W.xi(2)
