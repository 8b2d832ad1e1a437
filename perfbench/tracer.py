"""Spans around the calls into each besselwave module, from outside the program.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent, unit), in every
besselwave namespace that holds it, so calls that sibling modules make
through names they imported are seen too.  `uninstall()` puts the original
objects back.  Spans stay in compact arrays in memory and are written once,
when the run ends.

A few counters are computed from arguments and results where the span alone
cannot say what work was done: profile evaluations by branch, eigensolver
sizes, dense bytes held, polarization terms and FFT grid points.
"""

from __future__ import annotations

import json
import statistics
import sys
import weakref
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED_MODULES = ("besselfn", "domains", "specops", "waveforms", "polyforms", "huygens", "geomfront", "exprgrammar")
# Class methods that are user-visible calls of their module.
TRACED_METHODS = {
    "polyforms": {
        "MultiPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__",
                      "__eq__", "diff", "laplacian", "evaluate", "value_at_origin", "degree"),
        "PolyKForm": ("__add__", "__sub__", "__neg__", "__eq__", "scale", "component", "exterior_derivative",
                      "interior_product", "lie_derivative"),
    },
    "waveforms": {"WaveSolution": ("at",)},
}
SERIES_CUTOFF = 40.0  # besselfn switches from the exact series to the Hankel expansion above this |r>
BUILDERS = ("build_circle_domain", "build_torus_domain", "build_simplicial_domain")
SETUP_UNIT = 0  # spans of the traced set-up; rounds are units 1, 2, ...


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit_of = array("i")
        self.unit = SETUP_UNIT
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._needed: dict[int, int] = {}  # span index -> distinct |lambda| of its domain
        self._distinct_cache: dict[int, tuple] = {}

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit_of.append(self.unit)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.unit][key] += value

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods of every traced module."""
        pkg_modules = [m for k, m in sys.modules.items() if k == "besselwave" or k.startswith("besselwave.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"besselwave.{short}"]
            for attr in getattr(module, "__all__", ()):
                original = getattr(module, attr)
                if not callable(original) or isinstance(original, type):
                    continue
                if f"{short}.{attr}" == "exprgrammar.compile_expression":
                    # Each compiled expression is a callable of its own; trace its evaluations.
                    wrapper = self.wrap("exprgrammar.compile_expression", self._compile_traced(original))
                else:
                    hook = _HOOKS.get(f"{short}.{attr}", _hook_specops if short == "specops" else None)
                    wrapper = self.wrap(f"{short}.{attr}", original, hook)
                for ns in pkg_modules:  # the module itself and every `from .x import name`
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))

    def _compile_traced(self, compile_expression):
        def compile_and_wrap(*args, **kwargs):
            return self.wrap("exprgrammar.eval", compile_expression(*args, **kwargs))

        return compile_and_wrap

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key) if isinstance(owner, type) else vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- derived metrics ------------------------------------------------------

    def distinct_abs_eigenvalues(self, domain) -> int:
        cached = self._distinct_cache.get(id(domain))
        if cached is None or cached[0]() is not domain:  # ids are reused once a domain is freed
            cached = (weakref.ref(domain), int(np.unique(np.round(np.abs(domain.eigenvalues), 12)).size))
            self._distinct_cache[id(domain)] = cached
        return cached[1]

    def unit_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer figures for each traced unit (the set-up and each round)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float)[:n]
        end = np.frombuffer(self.end, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        name = np.frombuffer(self.name, dtype=np.int32)[:n]
        unit = np.frombuffer(self.unit_of, dtype=np.int32)[:n]
        dur = end - start
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        module = [s.split(".")[0] for s in self.names]
        layer = np.array(module)[name] if n else np.array([], dtype=str)
        span_name = np.array(self.names, dtype=object)[name] if n else np.array([], dtype=object)

        # A profile evaluation is a besselfn span not nested in another besselfn span.
        is_bessel = layer == "besselfn"
        outer_bessel = is_bessel & ~(has_parent & np.isin(parent, np.flatnonzero(is_bessel)))
        evals_under: dict[int, int] = defaultdict(int)
        is_specops = layer == "specops"
        for idx in np.flatnonzero(outer_bessel):
            p = parent[idx]
            top = -1
            while p >= 0:  # outermost specops ancestor
                if is_specops[p]:
                    top = p
                p = parent[p]
            if top >= 0:
                evals_under[top] += 1

        out: dict[int, dict[str, float]] = {}
        for u in sorted(set(unit.tolist()) | set(self.counters)):
            sel = unit == u
            m: dict[str, float] = defaultdict(float)
            for lay in TRACED_MODULES:
                m[f"{lay}.self_s"] = float(self_time[sel & (layer == lay)].sum())
                m[f"{lay}.calls"] = float(np.sum(sel & (layer == lay)))
            probe = sel & (span_name == "huygens.locality_probe")
            m["huygens.probe_self_s"] = float(self_time[probe].sum())
            m["huygens.exact_self_s"] = m["huygens.self_s"] - m["huygens.probe_self_s"]
            build = sel & np.isin(span_name, [f"domains.{b}" for b in BUILDERS])
            m["domains.build_s"] = float(dur[build].sum())
            m["waveforms.residual_calls"] = float(np.sum(sel & (span_name == "waveforms.pde_residual")))
            m["waveforms.solution_evals"] = float(np.sum(sel & (span_name == "waveforms.WaveSolution.at")))
            m["geomfront.rk_stages"] = float(np.sum(sel & (span_name == "geomfront.christoffel")))
            m["geomfront.brioschi_calls"] = float(np.sum(sel & (span_name == "geomfront.gauss_curvature_brioschi")))
            evals = sel & (span_name == "exprgrammar.eval")
            m["exprgrammar.evals"] = float(np.sum(evals))
            m["exprgrammar.self_s"] = float(self_time[sel & (layer == "exprgrammar")].sum())
            tops = [i for i in evals_under if unit[i] == u]
            m["specops.profile_evals"] = float(sum(evals_under[i] for i in tops))
            m["specops.needed_values"] = float(sum(self._needed.get(i, 0) for i in tops))
            for key, value in self.counters.get(u, {}).items():
                m[key] += value
            out[u] = m
        return out

    def write(self, path: Path) -> None:
        """Write every span, as arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.start)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32)[:n],
            start=np.frombuffer(self.start, dtype=float)[:n],
            end=np.frombuffer(self.end, dtype=float)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            unit=np.frombuffer(self.unit_of, dtype=np.int32)[:n],
            names=np.array(json.dumps(self.names)),
        )


# -- per-function hooks: counters computed from arguments and results ----------


def _hook_phi(tracer, idx, args, kwargs, result):
    r = abs(float(args[1] if len(args) > 1 else kwargs["r"]))
    if 0.0 < r <= SERIES_CUTOFF:
        tracer.count("besselfn.series_calls")
    elif r > SERIES_CUTOFF:
        tracer.count("besselfn.hankel_calls")


def _hook_build(tracer, idx, args, kwargs, result):
    n = result.total_dim
    tracer.count("domains.builds")
    tracer.count("domains.eigh_n3_sum", float(n) ** 3)
    held = result.dirac.nbytes + result.eigenvectors.nbytes + sum(b.nbytes for b in result.d_blocks)
    tracer.count("domains.dense_mib", held / 2**20)


def _hook_spectrum_by_degree(tracer, idx, args, kwargs, result):
    tracer.count("domains.eigh_n3_sum", float(np.asarray(result).size) ** 3)


def _hook_specops(tracer, idx, args, kwargs, result):
    if isinstance(result, np.ndarray) and result.ndim == 2 and result.shape[0] == result.shape[1] > 1:
        tracer.count("specops.dense_matrix_calls")
    domain = args[0] if args else None
    if hasattr(domain, "eigenvalues"):
        tracer._needed[idx] = tracer.distinct_abs_eigenvalues(domain)


def _hook_polarization_expand(tracer, idx, args, kwargs, result):
    tracer.count("huygens.polarization_terms", len(result))


def _hook_locality_probe(tracer, idx, args, kwargs, result):
    # The probe doubles the grid until it resolves the band limit.
    q, max_freq = int(args[0]), int(args[1])
    n = int(kwargs.get("grid_points", args[5] if len(args) > 5 else 256))
    while n < 2 * max_freq + 2:
        n *= 2
    tracer.count("huygens.probe_grid_points", float(n) ** q)


_HOOKS = {
    "besselfn.phi": _hook_phi,
    **{f"domains.{b}": _hook_build for b in BUILDERS},
    "domains.spectrum_by_degree": _hook_spectrum_by_degree,
    "huygens.polarization_expand": _hook_polarization_expand,
    "huygens.locality_probe": _hook_locality_probe,
}


def per_layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Set-up figures plus the median traced round, for every per-layer metric."""
    units = tracer.unit_metrics()
    setup = units.get(SETUP_UNIT, defaultdict(float))
    rounds = [m for u, m in units.items() if u != SETUP_UNIT]
    keys = set(setup) | {k for m in rounds for k in m}

    def value(key: str) -> float:
        per_round = statistics.median(m.get(key, 0.0) for m in rounds) if rounds else 0.0
        return setup.get(key, 0.0) + per_round

    v = defaultdict(float, {k: value(k) for k in keys})
    evals = v["specops.profile_evals"]
    stages = v["geomfront.rk_stages"]
    return {
        "besselfn.self_s": v["besselfn.self_s"],
        "besselfn.calls": v["besselfn.calls"],
        "besselfn.series_calls": v["besselfn.series_calls"],
        "besselfn.hankel_calls": v["besselfn.hankel_calls"],
        "polyforms.self_s": v["polyforms.self_s"],
        "polyforms.calls": v["polyforms.calls"],
        "huygens.exact_self_s": v["huygens.exact_self_s"],
        "huygens.polarization_terms": v["huygens.polarization_terms"],
        "domains.build_s": v["domains.build_s"],
        "domains.builds": v["domains.builds"],
        "domains.eigh_n3_sum": v["domains.eigh_n3_sum"],
        "domains.dense_mib": v["domains.dense_mib"],
        "specops.self_s": v["specops.self_s"],
        "specops.calls": v["specops.calls"],
        "specops.dense_matrix_calls": v["specops.dense_matrix_calls"],
        "specops.phi_useful_ratio": v["specops.needed_values"] / evals if evals else 0.0,
        "waveforms.self_s": v["waveforms.self_s"],
        "waveforms.residual_calls": v["waveforms.residual_calls"],
        "waveforms.solution_evals": v["waveforms.solution_evals"],
        "geomfront.self_s": v["geomfront.self_s"],
        "geomfront.rk_stages": stages,
        "geomfront.brioschi_calls": v["geomfront.brioschi_calls"],
        "exprgrammar.evals": v["exprgrammar.evals"],
        "exprgrammar.self_s": v["exprgrammar.self_s"],
        "exprgrammar.evals_per_stage": v["exprgrammar.evals"] / stages if stages else 0.0,
        "huygens.probe_self_s": v["huygens.probe_self_s"],
        "huygens.probe_grid_points": v["huygens.probe_grid_points"],
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls))
        if traced_walls and untraced_walls else 0.0,
    }
