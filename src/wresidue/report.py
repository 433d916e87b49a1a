"""Deterministic verification reports.

A report is a sequence of suite sections, each a tuple of per-claim records
holding the recorded value, the recomputed value, a three-way status, and
the numeric evidence backing the call.  Rendering is pure: the same records
always produce the same bytes, in JSON or markdown.

Statuses: ``match`` means exact symbolic equality; ``mismatch`` means the
recomputation differs and is corroborated by an independent numeric oracle;
``convention-flag`` marks values reproduced up to a documented normalization
ratio.  A mismatch may carry a waiver, which keeps the exit code clean while
leaving the discrepancy visible.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .reference import Waiver, builtin_waivers
from .scalars import GR_ZERO, ScalarPoly

REPORT_VERSION = "wres-report/1"
WAIVER_ENV = "WRESIDUE_WAIVERS"

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_FLAG = "convention-flag"


class ClaimRecord(NamedTuple):
    record_id: str
    recorded: str
    computed: str
    status: str
    note: str = ""
    waiver: str = ""
    evidence: tuple[str, ...] = ()
    intermediates: str = ""
    # false when the evidence a waiver would rest on has failed; not rendered
    waivable: bool = True


class SuiteReport(NamedTuple):
    suite: str
    records: tuple[ClaimRecord, ...]

    def unwaivered_mismatches(self) -> tuple[ClaimRecord, ...]:
        return tuple(r for r in self.records
                     if r.status == STATUS_MISMATCH and not r.waiver)


def exit_code(reports) -> int:
    """0 iff no suite carries an unwaivered mismatch."""
    bad = any(rep.unwaivered_mismatches() for rep in reports)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# waivers


def load_waivers(environ=None) -> tuple[Waiver, ...]:
    """Built-in waivers plus any read from the file named by the environment
    variable; the file holds a JSON list of {suite, label, reason}, each a
    non-empty string (anything else is a ValueError)."""
    out = list(builtin_waivers())
    path = (environ if environ is not None else os.environ).get(WAIVER_ENV)
    if path:
        with open(path, encoding="utf-8") as fh:
            for item in json.load(fh):
                fields = {key: item[key] for key in ("suite", "label", "reason")}
                for key, value in fields.items():
                    if not isinstance(value, str) or not value:
                        raise ValueError(f"waiver field {key!r} must be a non-empty string, "
                                         f"got {value!r}")
                out.append(Waiver(**fields))
    return tuple(out)


def waiver_reason(waivers, suite: str, record_id: str) -> str:
    for w in waivers:
        if w.suite == suite and w.label == record_id:
            return w.reason
    return ""


# ---------------------------------------------------------------------------
# structured rendering of boundary rows


def structured_render(model, poly: ScalarPoly) -> str:
    """Render a boundary row as multiples of ``model.row_shapes`` plus
    whatever residual is left.

    The shapes are peeled in table order.  A shape is peeled when the row's
    coefficients at the shape's probe monomials are one nonzero multiple of
    the shape's own coefficients there; that multiple is what is rendered.
    """
    if poly.is_zero():
        return "0"
    pieces: list[str] = []
    rest = poly
    for shape in model.row_shapes.values():
        ratios = {rest.terms.get(mono, GR_ZERO) / shape.poly.terms[mono]
                  for mono in shape.probes}
        co = ratios.pop()
        if ratios or co.is_zero():
            continue
        rest = rest - shape.poly * co
        pieces.append(f"{co.render()}*{shape.text}")
    if not rest.is_zero():
        pieces.append(f"residual[{len(rest.terms)} terms]: {rest.render()}")
    return " + ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# renderers


def _record_payload(rec: ClaimRecord) -> dict:
    return {
        "id": rec.record_id,
        "recorded": rec.recorded,
        "computed": rec.computed,
        "status": rec.status,
        "note": rec.note,
        "waiver": rec.waiver,
        "evidence": list(rec.evidence),
        "intermediates": rec.intermediates,
    }


def to_json(reports) -> str:
    payload = {
        "version": REPORT_VERSION,
        "suites": [
            {"suite": rep.suite,
             "records": [_record_payload(r) for r in rep.records]}
            for rep in reports
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def to_markdown(reports) -> str:
    lines = [f"# Verification report ({REPORT_VERSION})", ""]
    for rep in reports:
        lines.append(f"## suite: {rep.suite}")
        lines.append("")
        lines.append("| record | status | waiver |")
        lines.append("| --- | --- | --- |")
        for r in rep.records:
            lines.append(f"| {r.record_id} | {r.status} | {'yes' if r.waiver else ''} |")
        lines.append("")
        for r in rep.records:
            lines.append(f"### {rep.suite} / {r.record_id}")
            lines.append("")
            lines.append(f"- status: {r.status}")
            lines.append(f"- recorded: `{r.recorded}`")
            lines.append(f"- computed: `{r.computed}`")
            if r.note:
                lines.append(f"- note: {r.note}")
            if r.waiver:
                lines.append(f"- waiver: {r.waiver}")
            for ev in r.evidence:
                lines.append(f"- evidence: {ev}")
            if r.intermediates:
                lines.append(f"- intermediates: {r.intermediates}")
            lines.append("")
    return "\n".join(lines)
