"""Every exported name resolves, and the package re-exports only names its modules export."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import besselwave
from besselwave import besselfn, cli, geomfront
from besselwave.domains import SpectralDomain

MODULES = [importlib.import_module(f"besselwave.{m.name}") for m in pkgutil.iter_modules(besselwave.__path__)]


def test_every_all_name_resolves():
    missing = [f"{m.__name__}.{name}" for m in MODULES for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_package_reexports_are_module_exports():
    tree = ast.parse(Path(besselwave.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [
        f"besselwave.{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"besselwave.{node.module}").__all__
    ]
    assert stray == []


DENSE_VIEWS = {"d_blocks", "dirac", "eigenvalues", "eigenvectors"}


def test_dense_views_are_read_only_in_domains():
    # The dense N x N views exist for the benchmark and the test oracles; the library acts on the blocks.
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(Path(besselwave.__file__).parent.glob("*.py"))
        if path.name != "domains.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS
    ]
    assert readers == []


def test_spectral_domain_has_no_dense_laplacian():
    # L_k is read through laplacian_spectrum and even_apply; the dense matrix is a test oracle.
    assert not hasattr(SpectralDomain, "laplacian")


def test_geomfront_integrates_without_a_fixed_step_path():
    # Fixed-step RK4 is the test oracle `_oracles.rk4_front`: no public geomfront function takes
    # `steps`, and no module of the package defines `_rk4`.
    takers = [
        name for name in geomfront.__all__
        if inspect.isfunction(getattr(geomfront, name))
        and "steps" in inspect.signature(getattr(geomfront, name)).parameters
    ]
    assert takers == []
    defined = {
        node.name
        for path in Path(besselwave.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_rk4" not in defined


def test_each_chart_compiles_one_function():
    # The metric, Christoffel symbols, K and the flow come from one generated callable; the float jet
    # is the test oracle `_oracles.float_jet`, and the chart carries no `jet` field.
    calls = [
        node for node in ast.walk(ast.parse(Path(geomfront.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "compile_trees"
    ]
    assert len(calls) == 1
    assert "jet" not in {field.name for field in dataclasses.fields(geomfront.SurfaceChart)}


def test_cli_plots_through_one_writer_and_measures_through_verify():
    # `_table` is the one place an SVG is written; the wave orbit and the Pizzetti rows are `verify`'s.
    nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))))
    charts = [n for n in nodes if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "polyline_chart"]
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None) for n in nodes}
    assert len(charts) == 1
    assert names.isdisjoint({"discrete_wave_orbit", "random_multipoly"})


def _references(path: Path):
    """(enclosing top-level function or None, node) for every node of a module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) and owner is None else owner
            yield inner, child
            yield from walk(child, inner)

    return walk(ast.parse(path.read_text(encoding="utf-8")), None)


def test_the_calculus_evaluates_the_profile_only_in_specops_profile():
    # specops._profile is the one seam where phi_n(t r) is evaluated for d_t, the wave families and the probe,
    # and _even_values stays private to specops.
    package = Path(besselwave.__file__).parent
    phi_sites = [
        f"{name}:{owner}"
        for name in ("specops.py", "waveforms.py", "huygens.py")
        for owner, node in _references(package / name)
        if (isinstance(node, ast.Attribute) and node.attr in ("phi", "phi_array")
            and getattr(node.value, "id", None) == "besselfn")
        or (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("besselfn"))
    ]
    assert phi_sites == ["specops.py:_profile"]
    even_sites = {
        path.name
        for path in package.glob("*.py")
        for _, node in _references(path)
        if "_even_values" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    }
    assert even_sites == {"specops.py"}


def test_phi_array_runs_one_method_below_the_recurrence_range():
    # Miller's recurrence serves every 0 < x <= high and _phi_large every x above it; no float Taylor series
    # sits beside them.
    path = Path(besselfn.__file__)
    body = ast.parse(path.read_text(encoding="utf-8")).body
    functions = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    names = {getattr(target, "id", None) for node in body if isinstance(node, ast.Assign) for target in node.targets}
    assert [name for name in functions if name.startswith("_taylor")] == []
    assert "FLOAT_SERIES_CUTOFF" not in names
    dispatched = {
        node.id for owner, node in _references(path)
        if owner == "phi_array" and isinstance(node, ast.Name) and node.id in functions
    }
    assert dispatched == {"_check_n", "_miller_array", "_phi_large"}


def test_the_float_profile_is_one_elementwise_function():
    # Scalars and arrays share one Hankel series and one recurrence, so no besselfn function takes an `xp`
    # module switch, and phi_array returns once, after its region loop: no n == 1 or whole-array shortcut.
    takers = [name for name, fn in inspect.getmembers(besselfn, inspect.isfunction)
              if fn.__module__ == besselfn.__name__ and "xp" in inspect.signature(fn).parameters]
    assert takers == []
    tree = ast.parse(Path(besselfn.__file__).read_text(encoding="utf-8"))
    phi_array = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "phi_array")
    nodes = list(ast.walk(phi_array))
    assert sum(isinstance(node, ast.Return) for node in nodes) == 1
    order_tests = [ast.unparse(node) for node in nodes
                   if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "n"]
    assert order_tests == []
