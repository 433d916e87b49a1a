"""Tooling that wraps the package from outside must keep finding its targets."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
