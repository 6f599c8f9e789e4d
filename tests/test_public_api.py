"""Every function and class the package exports is used inside the package.

A name in ``nctheta.__all__`` that no module of ``src/nctheta`` other than
``__init__`` refers to is reached only by the tests, if at all; such code
gets deleted rather than kept as a wrapper.

The ambient layout of ``EmbeddingMap.entries`` is split into its M part and
its dual part in ``embedding`` alone, and the Hermitian form is evaluated
in ``special`` alone. An index row is labelled in ``qtheta`` alone. The
cocycle formula is read in ``embedding._exponent_split`` alone.

The oracle routes reach none of the closed-form helpers they check.

The third-party modules the package imports are exactly its declared
runtime dependencies.

The functions, suite table and config methods the benchmark in
``perfbench/`` binds to by name exist under those names.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import nctheta

PACKAGE_DIR = Path(nctheta.__file__).resolve().parent


def _referenced_names() -> set[str]:
    """Names read, attribute names and imported names over the package modules."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_function_and_class_is_used_in_the_package():
    exported = [name for name in nctheta.__all__
                if inspect.isfunction(getattr(nctheta, name))
                or inspect.isclass(getattr(nctheta, name))]
    assert exported
    used = _referenced_names()
    assert [name for name in exported if name not in used] == []


# Inverts the whole map, so it reads the layout as one matrix.
ENTRIES_READERS_ALLOWED = {"heisenberg.build_connections"}


def _readers(matches) -> set[str]:
    """``module.function`` (or ``module.<module>``) of each node of the
    package modules that MATCHES."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope.split('.')[0]}.{node.name}"
        elif matches(node):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in PACKAGE_DIR.glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.<module>")
    return readers


def _attribute_readers(attr: str) -> set[str]:
    """``module.function`` (or ``module.<module>``) of each use of ``.<attr>``."""
    return _readers(lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_embedding_splits_the_ambient_layout():
    # every other reader goes through embedding.point_parts
    readers = {s for s in _attribute_readers("entries") if not s.startswith("embedding.")}
    assert readers - ENTRIES_READERS_ALLOWED == set()


@pytest.mark.parametrize("attr", ["im_inverse", "embed"])
def test_only_special_evaluates_the_hermitian_form(attr):
    # H has one implementation, special.hermitian_form, over rows; nothing
    # else reads (Im T)^{-1} or embeds T x1 + x2
    assert {scope.split(".")[0] for scope in _attribute_readers(attr)} == {"special"}


def test_only_the_exponent_split_reads_the_cocycle_formula():
    # every cocycle route reads alpha through the split of the one basis
    # table B, so none evaluates a per-pair formula: bilinearity is
    # structural, not something a certificate has to find
    def calls_formula(node):
        return (isinstance(node, ast.Call) and "_cocycle_exponent"
                in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert _readers(calls_formula) == {"embedding._exponent_split"}


def _formats_an_index(node) -> bool:
    """Whether NODE is a call ``",".join(map(str, ...))``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
            and node.func.value.value == "," and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "map"
            and [getattr(a, "id", None) for a in node.args[0].args[:1]] == ["str"])


def test_only_qtheta_formats_an_index_label():
    # an index row is labelled by qtheta._label alone
    formatters = {path.name for path in PACKAGE_DIR.glob("*.py")
                  if any(map(_formats_an_index, ast.walk(ast.parse(path.read_text()))))}
    assert formatters == {"qtheta.py"}


# ROADMAP's oracle invariant: the independent routes share no closed-form
# helper with the routes they check.
ORACLE_ROUTES = {
    "inner_product_oracle", "_discrete_cross_sum", "gaussian_quadrature_oracle",
    "gaussian_quadrature_oracle_2d", "representation_defect",
}
CLOSED_FORM_HELPERS = {
    "gaussian_factor", "mode_factor", "jacobi_theta", "HermitianFormContext",
    "hermitian_form", "_ctilde_minus_q_lambda", "completed_square_defect",
    "inner_product_closed", "_coefficient_parts", "_mode_products",
}


def _package_definitions() -> dict[str, list[ast.AST]]:
    """Every function, method and class the package modules define, by name."""
    definitions = {}
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
    return definitions


def _reached_names(roots) -> set[str]:
    """Names the roots refer to, following every package definition of each
    name (a method or attribute name follows all definitions it could mean)."""
    definitions = _package_definitions()
    assert set(roots) <= definitions.keys()
    reached, pending = set(), list(roots)
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in definitions.get(name, ()):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    pending.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    pending.append(sub.attr)
    return reached


def test_oracle_routes_reach_no_closed_form_helper():
    assert _reached_names(ORACLE_ROUTES) & CLOSED_FORM_HELPERS == set()


def test_closed_route_is_reached_from_its_own_entry_point():
    # the scan sees through calls: the closed route reaches all of its helpers
    reached = _reached_names({"inner_product_closed"})
    assert {"gaussian_factor", "mode_factor", "jacobi_theta",
            "_ctilde_minus_q_lambda", "hermitian_form"} <= reached


# Each of these takes rows and is called once over all of them.
ROW_ROUTES = {"inner_product_closed", "inner_product_oracle", "completed_square_defect",
              "verify_consistency_condition", "additivity_gap", "_log_translation",
              "lattice_element", "representation_defect", "measure_commutation_phases",
              "connection_combo_residual"}
ROW_ROUTE_LOOPS_ALLOWED = {
    # A Hermitian-form context holds one complex structure T, so the
    # completed-square sweep makes one call per T: one loop deep, no deeper.
    ("report._suite_inner_product", "completed_square_defect", 1),
}


def _row_route_calls_in_loops() -> set[tuple[str, str, int]]:
    """(``module.function``, callee, loop depth) of each call of a row route
    made in a ``for``/``while`` body or a comprehension, in the package."""
    found = set()

    def visit(node, scope, depth):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope.split('.')[0]}.{node.name}"
        if depth and isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in ROW_ROUTES:
                found.add((scope, callee, depth))
        looped = {"body", "orelse", "test"} if isinstance(
            node, (ast.For, ast.AsyncFor, ast.While)) else {"elt", "key", "value", "generators"}
        if not isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                                 ast.DictComp, ast.GeneratorExp)):
            looped = set()
        for name, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, scope, depth + (name in looped))

    for path in PACKAGE_DIR.glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.<module>", 0)
    return found


def test_row_routes_are_not_called_per_element():
    assert _row_route_calls_in_loops() - ROW_ROUTE_LOOPS_ALLOWED == set()


def _third_party_imports(package_dir: Path) -> set[str]:
    """Top-level modules imported anywhere in the package, function bodies
    included, other than the standard library and the package itself."""
    modules = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules - set(sys.stdlib_module_names) - {package_dir.name}


def _declared_dependencies(pyproject: Path) -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(pyproject.read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
            for dep in project["dependencies"]}


def test_imports_match_the_declared_runtime_dependencies():
    pyproject = PACKAGE_DIR.parent.parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not run from a source checkout")
    assert _third_party_imports(PACKAGE_DIR) == _declared_dependencies(pyproject)


# The benchmark's span tracer wraps the functions named in its
# LAYER_FUNCTIONS and every suite of report._SUITE_FUNCS, and its export
# worker builds series through load_config; a rename here would fail the
# benchmark's coverage gate rather than a test.
PERFBENCH_DIR = PACKAGE_DIR.parent.parent / "perfbench"


def _benchmark_layer_functions(perfbench_dir: Path) -> tuple[str, ...]:
    """LAYER_FUNCTIONS of perfbench/tracer.py, read without importing it."""
    tree = ast.parse((perfbench_dir / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYER_FUNCTIONS")


@pytest.fixture
def perfbench_dir():
    if not PERFBENCH_DIR.is_dir():
        pytest.skip("no perfbench/ next to the package")
    return PERFBENCH_DIR


def test_benchmark_layer_functions_are_module_level_functions(perfbench_dir):
    missing = []
    for qual in _benchmark_layer_functions(perfbench_dir):
        mod, name = qual.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"nctheta.{mod}"), name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"nctheta.{mod}"
                and fn.__qualname__ == name):
            missing.append(qual)
    assert missing == []


def test_benchmark_suite_table_matches_the_suite_names(perfbench_dir):
    from nctheta.report import _SUITE_FUNCS, SUITE_NAMES
    assert sorted(_SUITE_FUNCS) == sorted(SUITE_NAMES)


def test_benchmark_builds_series_from_a_loaded_config(perfbench_dir, lattice_config_path):
    from nctheta.config import load_config
    from nctheta.heisenberg import theta_test_vector
    cfg = load_config(lattice_config_path)
    emb = cfg.build_embedding()
    assert cfg.build_structure(emb).kind is emb.kind
    assert theta_test_vector(emb).kind is emb.kind
