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
from dataclasses import dataclass

from .reference import Waiver, builtin_waivers
from .scalars import ScalarPoly

REPORT_VERSION = "wres-report/1"
WAIVER_ENV = "WRESIDUE_WAIVERS"

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_FLAG = "convention-flag"


@dataclass(frozen=True)
class ClaimRecord:
    record_id: str
    recorded: str
    computed: str
    status: str
    note: str = ""
    waiver: str = ""
    evidence: tuple[str, ...] = ()
    intermediates: str = ""


@dataclass(frozen=True)
class SuiteReport:
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
    """Render a boundary row as named parts plus whatever residual is left.

    Peels, in order: the tangential and normal-normal collar terms, the
    normal-derivative terms (with and without the half-circle factor), the
    divergence terms (with and without the collar rate), then renders any
    remaining atoms verbatim.  Only constant coefficients are peeled, and a
    divergence part is peeled only when the row is genuinely proportional
    to the divergence scalar.
    """
    if poly.is_zero():
        return "0"
    reg = model.registry
    var = model.var
    base = var(model.pi) * var(model.omega3)
    sig, nn = model.sigma_hat, model.n_hat
    x1, y1 = reg.by_name("X1"), reg.by_name("Y1")
    x4, y4 = reg.by_name("X4"), reg.by_name("Y4")
    xy = reg.by_name("XdY4")
    wp, wm = reg.by_name("wP12d3"), reg.by_name("wM12d1")
    div = model.div_poly

    pieces: list[str] = []
    rest = poly

    def const_co(mono: dict):
        return rest.coefficient_of(mono).constant_part()

    def peel(mono: dict, pattern: ScalarPoly, text: str):
        nonlocal rest
        co = const_co(mono)
        if co.is_zero():
            return
        rest = rest - pattern * co
        pieces.append(f"{co.render()}*{text}")

    def peel_div(pair: dict, pattern: ScalarPoly, text: str):
        # div itself carries wP12d3 with coefficient -1; peel only when the
        # companion mixed-family atom agrees, i.e. the part is div-shaped
        nonlocal rest
        co_wp = const_co({**pair, wp: 1})
        co_wm = const_co({**pair, wm: 1})
        if co_wp.is_zero() or co_wp != co_wm:
            return
        rest = rest - pattern * (-co_wp)
        pieces.append(f"{(-co_wp).render()}*{text}")

    peel({x1: 1, y1: 1, model.hp: 1, model.pi: 1, model.omega3: 1},
         sig * model.hp_poly * base, "[sum_a<4 Xa*Ya]*hp*pi*Omega3")
    peel({x4: 1, y4: 1, model.hp: 1, model.pi: 1, model.omega3: 1},
         nn * model.hp_poly * base, "X4*Y4*hp*pi*Omega3")
    peel({xy: 1, model.pi: 1, model.omega3: 1, model.hp: 0},
         var(xy) * base, "X(Y4)*pi*Omega3")
    peel({xy: 1, model.pi: 0, model.omega3: 1, model.hp: 0},
         var(xy) * var(model.omega3), "X(Y4)*Omega3")
    peel_div({x1: 1, y1: 1, model.hp: 0, model.pi: 1, model.omega3: 1},
             sig * div * base, "[sum_a<4 Xa*Ya]*div*pi*Omega3")
    peel_div({x4: 1, y4: 1, model.hp: 0, model.pi: 1, model.omega3: 1},
             nn * div * base, "X4*Y4*div*pi*Omega3")
    peel_div({x1: 1, y1: 1, model.hp: 1, model.pi: 1, model.omega3: 1},
             sig * div * model.hp_poly * base, "[sum_a<4 Xa*Ya]*div*hp*pi*Omega3")
    peel_div({x4: 1, y4: 1, model.hp: 1, model.pi: 1, model.omega3: 1},
             nn * div * model.hp_poly * base, "X4*Y4*div*hp*pi*Omega3")

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
