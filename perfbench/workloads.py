"""The three workloads, their pinned outputs and the per-layer predictions.

Why these three (see README.md for the full table):

- ``verify-all`` is the run users and CI make: every suite, JSON report.
  It builds each boundary suite's jets three times and spends most of its
  time in large-numerator xi calculus, so jet caching, the pole-check fast
  path and the residue change all show here.  Rendering is under 1% of it.
- ``d2d2-emit`` is the write path: one boundary suite, markdown, and the six
  intermediate files.  Its own assembly is light; about half its time is
  ``display_checks`` building jets the suite never uses, and rendering and
  file writes are a larger share than anywhere else.
- ``property-sweep`` is the acceptance gate's randomized property load: many
  tiny operands, no jets, no boundary, no reference tables.  Jet caching
  must predict no change here, and a scalar-kernel change that costs
  small-operand work shows here first.

This module must not import ``wresidue`` at load time: the child process
times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

WORKLOADS = ("verify-all", "d2d2-emit", "property-sweep")

# the CLI reads extra waivers from this variable; children run without it
WAIVER_ENV = "WRESIDUE_WAIVERS"

CLI_ARGS = {
    "verify-all": ["--suite", "all", "--format", "json"],
    "d2d2-emit": ["--suite", "boundary-d2d2", "--format", "md"],
}

# sha256 of the CLI's standard output and of each intermediate file.
PINS = {
    "verify-all": {
        "stdout": "d0ecb5e623b70d386bfea452e9f33685442d412ab87e1b8c642419aea520dd31",
        "files": {},
    },
    "d2d2-emit": {
        "stdout": "91ff2dcea38dfb619cddf061fdd52bbd680aa1fe8e20e07868b2f69514716156",
        "files": {
            "boundary-d2d2-a-I.txt": "25df11619d2ceabb3ace9ad6381d77166bb3e832d67aaadb7dd3781f35bf8e51",
            "boundary-d2d2-a-II.txt": "2d606341f5fcc79cfa7483356edbbbf758b1f3cc620d837c6b710b0575ee98dc",
            "boundary-d2d2-a-III.txt": "e5daf22dffa2e07803bad04a3ad2baef403c77e741c0338366fe7a45c77cf341",
            "boundary-d2d2-b.txt": "6ba043e7350a55bb3a73ac631fcdbaced7d95858b9c91aa4b6c338cbd5fad260",
            "boundary-d2d2-c.txt": "6e5a6796c8bbadb72713f8de31eff6e8edd27a63ed252f28cf0d2fc9cb7b7619",
            "boundary-d2d2-total.txt": "72e98281d77755dfd53ab40547ea1aeabe78d710b2cb7d41433d924922852871",
        },
    },
}

# Per-layer metrics predicted to read exactly zero on each workload; every
# other per-layer metric must read above zero there.  A metric that breaks
# its prediction fails the traced run.
_UNUSED_BY_SWEEP = ("reference", "boundary", "interior", "verifier", "report", "cli")
PREDICTED_ZERO = {
    "verify-all": {
        "oracles.matrix_trace_calls", "oracles.matrix_trace_s", "oracles.self_s",
        "cli.emit_files", "cli.emit_bytes",
    },
    "d2d2-emit": {
        "oracles.matrix_trace_calls", "oracles.matrix_trace_s", "oracles.self_s",
        "interior.coefficients_s", "interior.self_s",
        "verifier.suite_s.interior", "verifier.suite_s.traces",
        "verifier.suite_s.boundary-d1d3",
    },
    "property-sweep": {"xicalc.product_trace_s", "xicalc.substitute_s"},
}


def predicted_zero(workload: str, metric: str) -> bool:
    if workload == "property-sweep" and metric.split(".", 1)[0] in _UNUSED_BY_SWEEP:
        return True
    return metric in PREDICTED_ZERO[workload]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(workload: str, seed: int, emit_dir: str | None) -> dict:
    """Run one workload in this process and return what was produced.

    The CLI workloads take no random input; ``seed`` drives the property
    sweep only.
    """
    if workload == "property-sweep":
        from sweep import run as sweep
        return sweep(seed)
    from wresidue import cli

    argv = list(CLI_ARGS[workload])
    if workload == "d2d2-emit":
        argv += ["--emit-intermediates", emit_dir]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = {"exit_code": code, "stdout": _sha256(buf.getvalue().encode("utf-8")), "files": {}}
    if emit_dir:
        for name in sorted(os.listdir(emit_dir)):
            with open(os.path.join(emit_dir, name), "rb") as fh:
                out["files"][name] = _sha256(fh.read())
    return out


def emitted(emit_dir: str | None) -> tuple[int, int]:
    """Number and total size of the files the CLI wrote."""
    if not emit_dir:
        return 0, 0
    names = os.listdir(emit_dir)
    return len(names), sum(os.path.getsize(os.path.join(emit_dir, n)) for n in names)


def check(workload: str, result: dict) -> list[str]:
    """Problems with one child's output; empty when it is correct."""
    if workload == "property-sweep":
        if result["failed"]:
            return [f"{result['failed']} property checks failed, first: {result['failures']}"]
        return []
    pin = PINS[workload]
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    if result["stdout"] != pin["stdout"]:
        problems.append(f"stdout sha256 {result['stdout']} != pinned {pin['stdout']}")
    if result["files"] != pin["files"]:
        problems.append(f"intermediate files {sorted(result['files'])} differ from the pins")
    return problems
