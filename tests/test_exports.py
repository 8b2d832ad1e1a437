"""Every exported name resolves, and the package re-exports only names its modules export."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import besselwave
from besselwave import besselfn, cli, domains, geomfront, specops, waveforms
from besselwave.domains import SpectralDomain
from besselwave.polyforms import PolyKForm

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


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}


def test_spectral_domain_has_no_dense_laplacian():
    # L_k is read through laplacian_spectrum and even_apply; the dense matrix is a test oracle.  The one
    # eigensolver in the package is eigh: the Hodge split's, and the benchmark's dense view of D.
    assert not hasattr(SpectralDomain, "laplacian")
    sites = [
        f"{path.name}:{owner} {node.attr}"
        for path in sorted(Path(besselwave.__file__).parent.glob("*.py"))
        for owner, node in _references(path)
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS
    ]
    assert sites == ["domains.py:_dirac_eigh eigh", "domains.py:build_simplicial_domain eigh"]


def test_geomfront_integrates_without_a_fixed_step_path():
    # Fixed-step RK4 and the Dormand-Prince 5(4) pair are the test oracles `_oracles.rk4_front` and
    # `_oracles.dp54_front`: no public geomfront function takes `steps`, no module of the package defines
    # `_rk4` or `_dormand_prince`, and no module names a `_DP_` table.
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
    assert defined.isdisjoint({"_rk4", "_dormand_prince"})
    tables = [
        f"{path.name}:{node.id}"
        for path in sorted(Path(besselwave.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id.startswith("_DP_")
    ]
    assert tables == []


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


def test_cli_writes_the_header_line_in_one_place():
    # `_table` writes each CSV's first comment line from the parsed flags; no subcommand restates it.
    assert Path(cli.__file__).read_text(encoding="utf-8").count("subcommand=") == 1


def test_test_only_helpers_live_in_the_tests():
    # Zero-padding a cochain to the full graded vector and wrapping a scalar as a 0-form are test oracles.
    assert not hasattr(SpectralDomain, "embed")
    assert not hasattr(PolyKForm, "from_scalar")


def _references(path: Path):
    """(enclosing top-level function or None, node) for every node of a module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) and owner is None else owner
            yield inner, child
            yield from walk(child, inner)

    return walk(ast.parse(path.read_text(encoding="utf-8")), None)


def test_the_calculus_evaluates_the_profile_only_in_specops_profile():
    # specops._profile is the one seam where phi_n(t r) is evaluated for d_t, the wave families and the probe.
    # It is one phi_array call on the radii it is given: which roots phi runs on belongs to the owner of each
    # spectrum (a domain's `roots`, the probe's |m| levels), so no module keeps a per-call dedupe `_even_values`.
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
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_even_values" not in defined
    modules = {path[:-3] for path in trees}
    profile = next(node for node in trees["specops.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "_profile")
    package_calls = [
        f"{node.func.value.id}.{node.func.attr}" if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(profile)
        if isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) in modules)
             or (isinstance(node.func, ast.Name) and node.func.id in defined))
    ]
    assert package_calls == ["besselfn.phi_array"]


def test_specops_forms_d_t_once():
    # d_t = t phi_{q+2}(tD) d is formed in one place: _deformed_table reads the profile on the root table, and
    # _deformed_pieces alone turns its t phi column into block pieces g(sqrt L_{k+1}) d_k, which the commutator
    # and the orbit's D_h share; no per-degree list of values sits between them.
    path = Path(specops.__file__)
    calls = [(owner, node.func) for owner, node in _references(path) if isinstance(node, ast.Call)]
    assert [owner for owner, f in calls if isinstance(f, ast.Name) and f.id == "_profile"] == ["_deformed_table"]
    assert [owner for owner, f in calls if isinstance(f, ast.Attribute) and f.attr == "even"] == ["_deformed_pieces"]
    defined = {node.name for _, node in _references(path) if isinstance(node, ast.FunctionDef)}
    assert "_deformed_values" not in defined


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


def test_the_calculus_reads_roots_from_the_spectrum():
    # |lambda| = sqrt(mu) with no rule of its own: the simplicial builder writes its zeros exactly
    source = Path(specops.__file__).read_text(encoding="utf-8")
    assert not [word for word in ("np.round", "ROOT_FLOOR", "_roots") if word in source]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(Path(waveforms.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_roots" not in imported


def test_one_byte_budget_charged_in_one_place():
    # SIZE_CAP_BYTES is the one cap; _require_bytes is the one place domains raises DomainSizeError, and the
    # trig build, the simplicial build, the wave orbit's D_h and phi_array's Miller table each charge it.  The
    # orbit's charge is worked out in specops.require_orbit_bytes alone: _block_dirac calls it on a built
    # domain, the CLI on a complex.
    assert [name for name in vars(domains) if name.endswith("_CAP_BYTES")] == ["SIZE_CAP_BYTES"]

    def callers(module, name):
        path = Path(module.__file__)
        return [f"{path.name}:{owner}" for owner, node in _references(path) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]

    assert callers(domains, "DomainSizeError") == ["domains.py:_require_bytes"]
    charged = [site for m in (domains, specops, cli, besselfn) for site in callers(m, "_require_bytes")]
    assert sorted(charged) == ["besselfn.py:_miller_array", "domains.py:_trig_domain",
                               "domains.py:build_simplicial_domain", "specops.py:require_orbit_bytes"]
    orbit = [site for m in (domains, specops, cli) for site in callers(m, "require_orbit_bytes")]
    assert sorted(orbit) == ["cli.py:_build_domain", "specops.py:_block_dirac"]
