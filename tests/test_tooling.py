"""Tooling that wraps the package from outside must keep finding its targets."""

import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "wresidue"


def test_benchmark_tracer_covers_every_target(monkeypatch):
    """The benchmark's tracer wraps every public name it lists and puts the
    originals back; renaming or deleting a listed name breaks this."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    spans = tracer.Tracer()
    try:
        spans.install()
    except tracer.CoverageError as exc:
        pytest.fail(f"tracer coverage: {exc}")
    finally:
        spans.uninstall()


def test_property_sweep_checks_hold_once(sweep):
    """Each property of the benchmark's sweep, and one sphere moment, runs
    once and holds; deleting or renaming a name the sweep calls fails here
    and not only in the benchmark."""
    from wresidue import scalars

    for name, check, _ in sweep.PROPERTIES:
        reg = scalars.Registry()
        pi = reg.add("pi", scalars.KIND_MARKER)
        assert check(random.Random(f"1/{name}"), reg, pi), name
    reg = scalars.Registry()
    xi = tuple(reg.add(f"xi{k}", scalars.KIND_XI) for k in (1, 2, 3))
    assert sweep.sphere_moment((2, 2, 2), reg, xi)


def test_rendering_and_orchestration_name_no_atom():
    """Atoms are reached through the model's attributes; a lookup by name in
    the verifier or the report would be a second spelling of one."""
    src = Path(__file__).resolve().parents[1] / "src" / "wresidue"
    for name in ("verifier.py", "report.py"):
        assert "by_name(" not in (src / name).read_text(encoding="utf-8"), name


def test_set_up_imports_neither_dataclasses_nor_inspect():
    """The benchmark's set-up (import the CLI, build the model, load the
    waivers) imports neither module, which cost it time; pytest imports
    both itself, so a fresh interpreter checks."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "import wresidue.cli\n"
            "from wresidue import reference, report\n"
            "reference.build_model(); report.load_waivers()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def test_kernel_imports_load_no_engine_module():
    """The package root re-exports nothing, so importing a kernel module, as
    the property sweep does, loads none of the engine and report modules."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "import wresidue.scalars, wresidue.clifford, wresidue.xicalc, wresidue.sphere\n"
            "print(sorted(m for m in ('verifier', 'reference', 'report', 'boundary',\n"
            "                         'interior', 'cli') if f'wresidue.{m}' in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def test_package_imports_neither_numpy_nor_scipy():
    """The package runs on the standard library alone: no module imports
    numpy or scipy, at module level or inside a function."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules
                      if m.split(".")[0] in ("numpy", "scipy")]
    assert found == []


def test_oracles_run_without_numpy():
    """Both numeric oracles run in a fresh interpreter that never loads
    numpy; the sibling of ``test_full_run_imports_neither_numpy_nor_scipy``."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "from wresidue import clifford, oracles, scalars, sphere\n"
            "reg = scalars.Registry()\n"
            "g = clifford.CliffordElement.generator(reg, clifford.CF, 1)\n"
            "assert oracles.matrix_trace(g * g, {}) == -8\n"
            "xi = [reg.add(f'xi{k}', scalars.KIND_XI) for k in (1, 2, 3)]\n"
            "one = scalars.ScalarPoly.const(reg, 1)\n"
            "assert abs(sphere.numeric_sphere_oracle(one, xi) - 4 * 3.141592653589793) < 1e-12\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def _names(tree: ast.AST):
    """Every name a tree reads or binds by assignment: plain names,
    attributes and the names imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _leftovers(package: Path) -> list[str]:
    """Private functions, methods and classes that no other code of the
    package names, and imports their module never uses."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    named: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            named[name] = named.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                inside = sum(n == name for n in _names(node))
                if named.get(name, 0) == inside:
                    found.append(f"{module}: {name} is named nowhere else")
        if module == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append(f"{module}: {bound} is imported but never used")
    return found


def test_no_private_name_or_import_is_left_unused():
    """A private definition that nothing else in the package names, or an
    import its module never reads, is a leftover of a deleted path."""
    assert _leftovers(PACKAGE) == []


def _unnamed_public(root: Path) -> list[str]:
    """Public module-level functions of the package, and public methods and
    properties of its module-level classes, that no file under ``src/``,
    ``tests/`` or ``perfbench/`` names outside their own definition; a name
    in a string, or a part of a dotted name in one (such as the tracer
    target ``"XiRational.pi_plus"``), counts."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))]

    def names(tree):
        yield from _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    yield from parts

    named: dict[str, int] = {}
    for tree in trees:
        for name in names(tree):
            named[name] = named.get(name, 0) + 1
    return [f"{module}: {label} is named nowhere else"
            for module, label, node in _public_defs(root / "src" / "wresidue")
            if named.get(node.name, 0) == sum(n == node.name for n in names(node))]


def _public_defs(package: Path):
    """``(module file, qualified name, node)`` of every public module-level
    function and every public method or property of a module-level class."""
    for path in sorted(package.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defs = [(node.name, node) for node in body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        yield from ((path.name, label, node) for label, node in defs
                    if not node.name.startswith("_"))


def test_no_public_function_is_left_unnamed():
    """A public module-level function, or a public method or property of a
    package class, that no code, test or benchmark names is a leftover of a
    path that was replaced."""
    assert _unnamed_public(ROOT) == []


# Public functions that none of the runs below calls, each with its reason.
_NOT_RUN = {
    "reference.py: derived_d2d2": "the frozen d2d2 re-derivation, asserted by "
                                  "test_second_composition_rows_exact and not reported",
    "reference.py: derived_d1d3_structure": "the legible part of the d1d3 re-derivation, "
                                            "asserted by the reference tests",
    "xicalc.py: XiRational.coeff_derivative": "a benchmark tracer target; no run "
                                              "differentiates in an atom",
    "clifford.py: CliffordElement.derivative": "reached through coeff_derivative alone",
    "scalars.py: ScalarPoly.derivative": "reached through coeff_derivative alone",
    "xicalc.py: XiRational.zero": "an empty word cut in on_words; no run meets it",
}

# every function of the package entered while the report, the d2d2-emit
# workload and one pass of each property-sweep check run
_RUNS = """
import random, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code) if event == "call" else None)
import sweep, workloads
from wresidue import scalars, verifier
verifier.run(["all"])
workloads.run("d2d2-emit", 1, {emit!r})
for name, check, _ in sweep.PROPERTIES:
    reg = scalars.Registry()
    assert check(random.Random(f"1/{{name}}"), reg, reg.add("pi", scalars.KIND_MARKER)), name
reg = scalars.Registry()
assert sweep.sphere_moment((2, 2, 2), reg, [reg.add(f"xi{{k}}", scalars.KIND_XI) for k in (1, 2, 3)])
sys.setprofile(None)
for code in entered:
    print(code.co_filename, code.co_qualname)
"""


def _not_run(root: Path, emit: Path) -> list[str]:
    """The public functions of the package (``_public_defs``) that no run of
    ``_RUNS`` enters, in a fresh interpreter, so that no model or jet cached
    by an earlier test hides a call."""
    package = root / "src" / "wresidue"
    code = _RUNS.format(src=str(package.parent), perfbench=str(root / "perfbench"), emit=str(emit))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    entered = set()
    for line in done.stdout.splitlines():
        filename, qualname = line.rsplit(" ", 1)
        if Path(filename).resolve().parent == package:
            entered.add(f"{Path(filename).name}: {qualname}")
    return sorted(label for module, name, _ in _public_defs(package)
                  if (label := f"{module}: {name}") not in entered)


def test_every_public_function_runs_or_is_listed(tmp_path):
    """Each public function, method and property of the package is entered by
    the report run, the d2d2-emit workload or the property sweep, or is in
    ``_NOT_RUN`` with its reason, and every entry there is still unrun.  A
    name check alone passes an unused method whose name some other attribute
    shares."""
    assert _not_run(ROOT, tmp_path) == sorted(_NOT_RUN)


_SHARED = ("terms", "num")
_MUTATORS = ("pop", "popitem", "update", "setdefault", "clear")


def _in_place_mutations(package: Path) -> list[str]:
    """Every spot that changes a ``terms`` or ``num`` mapping in place: an
    item assigned or deleted, an in-place operator, or a mutating method
    call."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Attribute) and target.attr in _SHARED:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_terms_or_numerator_is_changed_in_place():
    """Products by one return an operand itself and sums share untouched
    coefficients, so one ``terms`` or ``num`` mapping can sit in several
    values; changing one in place would change them all."""
    assert _in_place_mutations(PACKAGE) == []
