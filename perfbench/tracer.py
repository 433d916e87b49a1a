"""Spans and counters around the public functions of every ``wresidue`` layer.

The tracer lives in the benchmark, not in the package: it replaces each
target function with a wrapper for the length of one traced workload and
puts the original back afterwards.  A wrapper either counts calls (for the
scalar operations, which run millions of times) or also records a span:
name, start, end and the span that was open when it started.  Spans stay in
memory and are written out once the workload has finished.

A function can be bound under several names: ``verifier`` imports
``assemble_boundary`` and ``build_model`` by name, ``boundary`` imports
``integrate_sphere``, classes alias ``__radd__ = __add__``.  Every binding
of a target, in every loaded module and every ``wresidue`` class, is
replaced by the same wrapper, and :meth:`Tracer.install` fails if any
binding of an original is left; an unwrapped alias would otherwise read as
a free layer.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import types
from array import array
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("scalars", "clifford", "xicalc", "sphere", "oracles", "boundary",
          "interior", "reference", "verifier", "report", "cli")

ROOT_SPAN = "perfbench.workload"
ROOT_LAYER = "perfbench"
SUITES = ("interior", "traces", "boundary-d2d2", "boundary-d1d3")


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``path`` is the attribute path inside the layer's module.  ``span``
    False means count only.  ``count`` and ``time`` name the per-layer
    metrics the calls add to; several targets may share one metric, and a
    time metric is the union of its spans (a nested span of the same metric
    is not counted twice).  ``time`` may hold ``{suite}``, filled from the
    first argument.  ``out_bytes`` names a counter of the UTF-8 size of the
    returned text.
    """

    layer: str
    path: str
    span: bool = True
    count: str | None = None
    time: str | None = None
    out_bytes: str | None = None


def _targets(layer, paths, **kw):
    return tuple(Target(layer, p, **kw) for p in paths)


TARGETS: tuple[Target, ...] = (
    # scalars: Gaussian-rational operations are counted only; the polynomial
    # operations that call them are spans, so their time lands in scalars
    Target("scalars", "GaussianRational.__mul__", span=False, count="scalars.gr_mul"),
    Target("scalars", "GaussianRational.__add__", span=False, count="scalars.gr_add"),
    Target("scalars", "ScalarPoly.__mul__", count="scalars.poly_mul", time="scalars.poly_mul_s"),
    *_targets("scalars", ("ScalarPoly.__add__", "ScalarPoly.__sub__", "ScalarPoly.__rsub__",
                          "ScalarPoly.__neg__", "ScalarPoly.__pow__", "ScalarPoly.substitute",
                          "ScalarPoly.replace", "ScalarPoly.derivative",
                          "ScalarPoly.coefficient_of", "ScalarPoly.project")),
    # clifford
    Target("clifford", "CliffordElement.__mul__", count="clifford.mul_count", time="clifford.mul_s"),
    Target("clifford", "CliffordElement.__rmul__", count="clifford.mul_count", time="clifford.mul_s"),
    Target("clifford", "CliffordElement.trace", time="clifford.trace_s"),
    Target("clifford", "CliffordElement.product_trace", time="clifford.trace_s"),
    Target("clifford", "word_mul", span=False, count="clifford.word_mul"),
    *_targets("clifford", ("CliffordElement.__add__", "CliffordElement.__sub__",
                           "CliffordElement.__rsub__", "CliffordElement.__neg__",
                           "CliffordElement.substitute", "CliffordElement.derivative")),
    # xicalc
    Target("xicalc", "XiRational.__init__", count="xicalc.constructs", time="xicalc.construct_s"),
    Target("xicalc", "XiRational.pi_plus", time="xicalc.pi_plus_s"),
    Target("xicalc", "XiRational.xi_derivative", time="xicalc.xi_derivative_s"),
    Target("xicalc", "XiRational.residue_at_plus_i", time="xicalc.residue_s"),
    Target("xicalc", "XiRational.integrate", time="xicalc.residue_s"),
    Target("xicalc", "XiRational.product_trace", time="xicalc.product_trace_s"),
    Target("xicalc", "XiRational.substitute", time="xicalc.substitute_s"),
    Target("xicalc", "numeric_xi_oracle", count="xicalc.quadrature_calls", time="xicalc.quadrature_s"),
    *_targets("xicalc", ("XiRational.pi_minus", "XiRational.laurent",
                         "XiRational.polynomial_part", "XiRational.__add__",
                         "XiRational.__sub__", "XiRational.__mul__",
                         "XiRational.coeff_derivative")),
    # sphere and oracles
    Target("sphere", "integrate_sphere", count="sphere.calls", time="sphere.integrate_s"),
    Target("sphere", "numeric_sphere_oracle", count="sphere.calls", time="sphere.integrate_s"),
    Target("sphere", "moment_fraction", count="sphere.calls", time="sphere.integrate_s"),
    Target("oracles", "matrix_trace", count="oracles.matrix_trace_calls",
           time="oracles.matrix_trace_s"),
    # boundary
    Target("boundary", "assemble_boundary", time="boundary.assemble_s"),
    Target("boundary", "evaluate_case", count="boundary.cases"),
    *_targets("boundary", ("enumerate_cases", "drop_components", "extrinsic_form")),
    # interior
    Target("interior", "first_principles_coefficients", time="interior.coefficients_s"),
    *_targets("interior", ("trace_endomorphism", "curvature_form_traces",
                           "endomorphism_blocks")),
    # reference
    Target("reference", "symbols_d2d2", count="reference.jet_builds", time="reference.jets_s"),
    Target("reference", "symbols_d1d3", count="reference.jet_builds", time="reference.jets_s"),
    Target("reference", "display_checks", time="reference.display_checks_s"),
    *_targets("reference", ("build_model", "load_suite", "expected_d2d2", "expected_d1d3",
                            "derived_fingerprints", "row_fingerprint")),
    # verifier, report, cli
    Target("verifier", "run_suite", time="verifier.suite_s.{suite}"),
    Target("verifier", "run"),
    Target("report", "to_json", time="report.render_s", out_bytes="report.bytes"),
    Target("report", "to_markdown", time="report.render_s", out_bytes="report.bytes"),
    Target("report", "structured_render", time="report.render_s"),
    *_targets("report", ("load_waivers", "exit_code")),
    Target("cli", "main"),
)

# Every per-layer metric a traced child reports, in a fixed order.
COUNT_METRICS = tuple(dict.fromkeys(
    [t.count for t in TARGETS if t.count] + [t.out_bytes for t in TARGETS if t.out_bytes]
    + ["cli.emit_files", "cli.emit_bytes"]))
TIME_METRICS = tuple(dict.fromkeys(
    [t.time for t in TARGETS if t.time and "{" not in t.time]
    + [f"verifier.suite_s.{s}" for s in SUITES]
    + [f"{layer}.self_s" for layer in (*LAYERS, ROOT_LAYER)]))


class CoverageError(RuntimeError):
    """A target was not found, or a binding of it was left unwrapped."""


def _wresidue_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "wresidue" or name.startswith("wresidue.")) and m is not None]


def _holders():
    """Every namespace that can bind a function: all loaded modules, and the
    classes defined in ``wresidue`` modules."""
    for mod in list(sys.modules.values()):
        if isinstance(mod, types.ModuleType):
            yield mod, vars(mod)
    for mod in _wresidue_modules():
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value, value.__dict__


def _find_binding(objects: dict[int, object]) -> str | None:
    """The first namespace binding of any of ``objects`` (keyed by id)."""
    for owner, space in _holders():
        for key, value in space.items():
            if value is not None and objects.get(id(value)) is value:
                return f"{getattr(owner, '__name__', owner)}.{key}"
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.name_time: list[str | None] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # 1 when no span of the same time metric is open
        self._stack = [-1]
        self._depth: dict[str, list[int]] = {}
        self.counters: dict[str, list[int]] = {m: [0] for m in COUNT_METRICS}
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: str, time_metric: str | None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.name_time.append(time_metric)
        return nid

    def _open(self, nid: int, depth: list[int] | None) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        if depth is None:
            self.span_outer.append(0)
        else:
            self.span_outer.append(depth[0] == 0)
            depth[0] += 1
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int, depth: list[int] | None) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        if depth is not None:
            depth[0] -= 1

    def run_root(self, fn, *args):
        """Call ``fn`` inside the root span that every other span nests in."""
        nid = self._name_id(ROOT_SPAN, ROOT_LAYER, None)
        idx = self._open(nid, None)
        try:
            return fn(*args)
        finally:
            self._close(idx, None)

    # -- wrappers ----------------------------------------------------------

    def _depth_cell(self, time_metric):
        if time_metric is None:
            return None
        return self._depth.setdefault(time_metric, [0])

    def _wrap(self, fn, target: Target):
        count = self.counters[target.count] if target.count else None
        if not target.span:
            def counting(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
            return counting

        name = f"{target.layer}.{target.path}"
        out_bytes = self.counters[target.out_bytes] if target.out_bytes else None
        per_suite = target.time is not None and "{suite}" in target.time
        nid = self._name_id(name, target.layer, None if per_suite else target.time)
        depth = None if per_suite else self._depth_cell(target.time)
        tracer = self

        def spanning(*args, **kwargs):
            if count is not None:
                count[0] += 1
            if per_suite:
                metric = target.time.format(suite=args[0])
                sid = tracer._name_id(f"{name}[{args[0]}]", target.layer, metric)
                cell = tracer._depth_cell(metric)
            else:
                sid, cell = nid, depth
            idx = tracer._open(sid, cell)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, cell)
            if out_bytes is not None:
                out_bytes[0] += len(out.encode("utf-8"))
            return out
        return spanning

    def install(self) -> None:
        """Wrap every binding of every target; raise CoverageError if a
        target is missing or any binding of an original is left."""
        found = []
        for target in TARGETS:
            owner = importlib.import_module(f"wresidue.{target.layer}")
            *outer, attr = target.path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            space = owner.__dict__ if isinstance(owner, type) else vars(owner)
            fn = space.get(attr)
            if not callable(fn) or id(fn) in self._wrappers:
                raise CoverageError(f"wresidue.{target.layer}.{target.path} "
                                    "is missing or listed twice")
            self._wrappers[id(fn)] = (fn, self._wrap(fn, target))
            found.append((target, fn))
        for owner, space in _holders():
            for key, value in list(space.items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, key, hit[1])
                    self._bindings.append((owner, key, value))
        bound = {id(orig) for _, _, orig in self._bindings}
        for target, fn in found:
            if id(fn) not in bound:
                raise CoverageError(f"no binding replaced for {target.layer}.{target.path}")
        self._check_no_original_left()

    def _check_no_original_left(self) -> None:
        originals = {id(orig): orig for orig, _ in self._wrappers.values()}
        left = _find_binding(originals)
        if left:
            raise CoverageError(f"unwrapped alias {left}")
        # a function kept in a container, a dispatch table say, is an alias
        # the namespace scan cannot see
        for ref in gc.get_referrers(*originals.values()):
            if ref is originals:
                continue
            if isinstance(ref, dict):
                held = ref.values()
            elif isinstance(ref, list):
                held = ref
            else:
                continue
            for value in held:
                if value is not None and originals.get(id(value)) is value:
                    raise CoverageError(f"{value!r} is held in a {type(ref).__name__} "
                                        "the tracer cannot rebind")

    def uninstall(self) -> None:
        """Put every original back and check that no wrapper is left bound."""
        for owner, key, orig in reversed(self._bindings):
            setattr(owner, key, orig)
        self._bindings.clear()
        left = _find_binding({id(w): w for _, w in self._wrappers.values()})
        if left:
            raise CoverageError(f"wrapper left at {left}")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, time per metric (union of its spans) and self time per layer."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out: dict[str, float] = {m: 0.0 for m in TIME_METRICS}
        for i in range(n):
            nid = self.span_name[i]
            out[f"{self.name_layer[nid]}.self_s"] += dur[i] - covered[i]
            metric = self.name_time[nid]
            if metric is not None and self.span_outer[i]:
                out[metric] += dur[i]
        for m, cell in self.counters.items():
            out[m] = cell[0]
        out["trace.spans"] = n
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table and one row per span of
        name index, parent span index (-1 for none), start and end in
        seconds from the root span's start."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        rows = [[self.span_name[i], self.span_parent[i],
                 round(self.span_start[i] - t0, 9), round(self.span_end[i] - t0, 9)]
                for i in range(len(self.span_start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": self.name_layer,
                       "columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)

