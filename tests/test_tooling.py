"""Tooling that wraps the package from outside must keep finding its targets."""

import random
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
