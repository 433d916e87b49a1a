from pathlib import Path

import pytest

from wresidue.boundary import assemble_boundary
from wresidue.reference import BOUNDARY_SUITES, build_model, load_suite
from wresidue.verifier import run


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def sweep(monkeypatch):
    """The benchmark's property sweep: its seeded operand generators and one
    check per property, which the acceptance gate runs at the gate's counts
    and the topic tests run at theirs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sweep
    return sweep


@pytest.fixture(scope="session")
def model():
    return build_model()


@pytest.fixture(scope="session")
def suites(model):
    """Each boundary suite loaded once, keyed by name in suite order."""
    return {name: load_suite(name, model) for name in BOUNDARY_SUITES}


@pytest.fixture(scope="session")
def d2d2(suites):
    return assemble_boundary(suites["boundary-d2d2"])


@pytest.fixture(scope="session")
def d1d3(suites):
    return assemble_boundary(suites["boundary-d1d3"])


@pytest.fixture(scope="session")
def cli_runs():
    """Two independent full runs, for determinism and report-content checks."""
    return run(("all",)), run(("all",))
