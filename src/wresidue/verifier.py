"""Suite orchestration: recompute every claim and compare it to the frozen
expected tables, with numeric corroboration for anything that disagrees.

Four suites: ``interior`` (closed functional, dual-route), ``traces``
(fiber-trace identities), and the two boundary compositions.  Each produces
a deterministic :class:`~wresidue.report.SuiteReport`; rendering and exit
codes live in :mod:`wresidue.report`.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from fractions import Fraction

from . import interior, reference
from .boundary import assemble_boundary, drop_components, extrinsic_form
from .report import (
    STATUS_FLAG,
    STATUS_MATCH,
    STATUS_MISMATCH,
    WAIVER_ENV,
    ClaimRecord,
    SuiteReport,
    load_waivers,
    structured_render,
    waiver_reason,
)
from .reference import build_model, load_suite
from .scalars import GR, KIND_MARKER, ScalarPoly
from .sphere import integrate_sphere
from .xicalc import numeric_xi_oracle

NUMERIC_RTOL = 1e-9


class UnknownSuiteError(ValueError):
    pass


class ConfigurationError(RuntimeError):
    """The waiver file, a waiver in it, or the intermediates directory cannot
    be used."""


def _claim(record_id, recorded, computed, same, **kw) -> ClaimRecord:
    """A record whose status is ``match`` exactly when ``same`` holds."""
    return ClaimRecord(record_id=record_id, recorded=recorded, computed=computed,
                       status=STATUS_MATCH if same else STATUS_MISMATCH, **kw)


# ---------------------------------------------------------------------------
# record ids


_ROW_ORDER = ("a-I", "a-II", "a-III", "b", "c", "total")
_BOUNDARY_IDS = _ROW_ORDER + ("recorded-sum-identity",)
_INTERIOR_KEYS = ("einstein", "scalar", "two-form", "endo-trace")

# Every record id each suite reports, in report order, so that waiver labels
# can be checked before any suite runs.
RECORD_IDS: dict[str, tuple[str, ...]] = {
    "interior": tuple(f"rank-{p}-{q}-dim-{n}-{key}"
                      for p, q, n in reference.INTERIOR_CASES for key in _INTERIOR_KEYS),
    "traces": ("endo-block-mixed-trace", "endo-block-leaf-trace", "endo-block-perp-trace",
               "endo-trace-rank-2-2", "endo-trace-rank-4-2", "endo-trace-rank-2-4",
               "two-letter-leaf-pair", "perp-pair-difference",
               "normal-divergence-trace", "tangential-divergence-trace"),
    "boundary-d2d2": _BOUNDARY_IDS + (
        "plus-part-base", "plus-part-normal-jet", "plus-part-first-derivative",
        "plus-part-second-derivative", "right-second-derivative",
        "extrinsic-gauge-rewrite"),
    "boundary-d1d3": _BOUNDARY_IDS + (
        "plus-part-base", "plus-part-first-derivative", "plus-part-second-derivative",
        "right-first-derivative", "right-second-derivative"),
}


# ---------------------------------------------------------------------------
# numeric corroboration


def exact_bindings(model) -> dict:
    """Deterministic nonzero rationals for every non-marker atom, keyed by
    sorted name so the values do not depend on registry construction order."""
    out = {}
    names = sorted(ind.name for ind in model.registry if ind.kind != KIND_MARKER)
    for k, nm in enumerate(names):
        ind = model.registry.by_name(nm)
        out[ind] = GR(Fraction((-1) ** k * (k + 3), 2 * k + 5))
    return out


def numeric_bindings(model) -> dict[int, complex]:
    """The exact bindings as floats, plus stand-ins for the formal markers."""
    out = {ind.id: complex(v.re) for ind, v in exact_bindings(model).items()}
    out[model.pi.id] = complex(math.pi)
    out[model.omega3.id] = 2.03125
    out[model.kext.id] = 0.40625
    out[model.scurv.id] = 1.15625
    return out


def _fmt(x: float) -> str:
    return format(x, ".6e")


def _case_corroboration(model, cases, label, bound_atoms, bindings,
                        memo) -> tuple[list[str], bool]:
    """Quadrature check of the normal-covariable integral for every case
    contributing to one row ("total" covers them all); returns evidence
    lines and an overall flag.

    The exact atom bindings are substituted before integrating, so the
    quadrature runs over a constant-coefficient rational function.  The
    memo shares per-case results between row claims and the total claim.
    """
    lines = []
    ok = True
    for idx, res in enumerate(cases):
        if (label != "total" and res.label != label) or res.traced is None:
            continue
        got = memo.get(idx)
        if got is None:
            small = res.traced.substitute(bound_atoms)
            sym = small.integrate(model.pi).scalar_part().eval_complex(bindings)
            num = numeric_xi_oracle(small, bindings)
            rel = abs(sym - num) / max(abs(sym), 1.0)
            got = memo[idx] = (
                rel <= NUMERIC_RTOL,
                f"residue integral vs quadrature, case {res.label}: "
                f"rel err {_fmt(rel)} (tol {_fmt(NUMERIC_RTOL)})")
        ok = ok and got[0]
        lines.append(got[1])
    return lines, ok and bool(lines)


# ---------------------------------------------------------------------------
# interior suite


def _interior_records() -> list[ClaimRecord]:
    records = []
    for p, q, n in reference.INTERIOR_CASES:
        got = interior.first_principles_coefficients(p, q, n)
        want = reference.interior_expected(p, q, n)
        units = {"einstein": f" * pi^{n // 2}", "endo-trace": " * s"}
        for key in _INTERIOR_KEYS:
            unit = units.get(key, "")
            w, g = want[key], getattr(got, key.replace("-", "_"))
            records.append(_claim(f"rank-{p}-{q}-dim-{n}-{key}", f"{w}{unit}",
                                  f"{g}{unit}", g == w,
                                  note="closed form vs first-principles assembly"))
    return records


# ---------------------------------------------------------------------------
# traces suite


def _trace_records(model) -> list[ClaimRecord]:
    records = []

    _, block_traces = interior.trace_endomorphism(2, 2)
    for block in ("mixed-pair", "leaf-pair", "perp-pair"):
        tr = block_traces[block]
        records.append(_claim(
            f"endo-block-{block.removesuffix('-pair')}-trace", "0", tr.render(),
            tr.is_zero(), note="curvature block of the endomorphism traces to zero"))

    for p, q in ((2, 2), (4, 2), (2, 4)):
        co, _ = interior.trace_endomorphism(p, q)
        want = Fraction(2) ** (p // 2 + q - 2)
        records.append(_claim(f"endo-trace-rank-{p}-{q}", f"{want} * s",
                              f"{co} * s", co == want))

    p, q = 2, 2
    setting = interior.InteriorSetting(p, q)
    diag = (setting.cf(1) * setting.cf(1)).trace(p, q).constant_part()
    off = (setting.cf(1) * setting.cf(2)).trace(p, q).constant_part()
    full = -(GR(2) ** (p // 2 + q))
    records.append(ClaimRecord(
        record_id="two-letter-leaf-pair",
        recorded=f"-{2 ** (p // 2)} (k = l); 0 (k != l)",
        computed=f"{diag.render()} (k = l); {off.render()} (k != l)",
        status=STATUS_FLAG if diag == full and off.is_zero() else STATUS_MISMATCH,
        note="recorded value is the distinguished-factor trace",
        evidence=(f"full-fiber over recorded ratio = 2^q = {2 ** q}",),
    ))

    diag = (setting.hc(1) * setting.hc(1) - setting.cn(1) * setting.cn(1)).trace(p, q)
    off = (setting.hc(1) * setting.hc(2) - setting.cn(1) * setting.cn(2)).trace(p, q)
    want = GR(2) ** (p // 2 + q + 1)
    records.append(_claim(
        "perp-pair-difference",
        f"{2 ** (p // 2 + q + 1)} (r = t); 0 (r != t)",
        f"{diag.constant_part().render()} (r = t); "
        f"{off.constant_part().render()} (r != t)",
        diag.constant_part() == want and off.is_zero(),
        note="recorded complement-factor value lifted by the distinguished "
             f"factor dimension 2^(p/2) = {2 ** (p // 2)}"))

    got = (model.sigma0_base * model.cdxn).trace(2, 2)
    want_poly = (model.var(model.registry.by_name("wM12d1"))
                 + model.var(model.registry.by_name("wM22d2"))
                 + model.var(model.registry.by_name("wP12d3"))) * GR(4)
    records.append(_claim(
        "normal-divergence-trace", "4*(wM12d1 + wM22d2 + wP12d3)", got.render(),
        got == want_poly, note="equals -4 times the boundary divergence scalar"))

    tang = (model.sigma0_base * model.cxi).trace(2, 2)
    avg = integrate_sphere(tang, model.xi, model.omega3)
    records.append(_claim(
        "tangential-divergence-trace", "0", avg.render(), avg.is_zero(),
        note="pointwise trace is odd in the tangential covariable; its "
             "sphere average vanishes",
        evidence=(f"pointwise trace holds {len(tang.terms)} odd terms",)))

    return records


# ---------------------------------------------------------------------------
# boundary suites


def _boundary_records(model, suite_name, emit) -> tuple[list[ClaimRecord], dict[str, str]]:
    """The suite's records and, when ``emit`` holds, the text of each row's
    intermediate file keyed by file name (written by :func:`run_suite`)."""
    suite = load_suite(suite_name, model)
    result = assemble_boundary(suite.pside, suite.qside, suite_name,
                               suite.labels, model.pi, model.omega3)
    expected = suite.expected
    rows = dict(result.groups)
    rows["total"] = result.total
    bindings = numeric_bindings(model)
    bound_atoms = exact_bindings(model)
    fingerprints = reference.derived_fingerprints()[suite_name]
    quad_memo: dict = {}

    records = []
    texts: dict[str, str] = {}
    for label in _ROW_ORDER:
        row, want = rows[label], expected[label]
        evidence: list[str] = []
        note = ""
        if row != want:
            case_lines, cases_ok = _case_corroboration(model, result.cases,
                                                       label, bound_atoms,
                                                       bindings, quad_memo)
            evidence.extend(case_lines)
            got_num = row.eval_complex(bindings)
            want_num = want.eval_complex(bindings)
            gap = abs(got_num - want_num) / max(abs(got_num), abs(want_num), 1.0)
            evidence.append(f"engine vs recorded at numeric bindings: "
                            f"rel gap {_fmt(gap)}")
            frozen_ok = all(
                reference.row_fingerprint(model, row, off, mul)
                == fingerprints[tag][label]
                for tag, off, mul in reference.FINGERPRINT_RECIPES)
            evidence.append(f"engine equals frozen re-derived value: {frozen_ok}")
            if not (cases_ok and frozen_ok and gap > NUMERIC_RTOL):
                note = "corroboration incomplete"
        computed = structured_render(model, row)
        recorded = structured_render(model, want)
        inter = ""
        if emit:
            detail = [f"suite: {suite_name}", f"row: {label}", "",
                      f"engine (raw): {row.render()}", "",
                      f"engine (structured): {computed}", "",
                      f"recorded (structured): {recorded}", ""]
            for res in result.cases:
                if res.label == label and res.traced is not None:
                    detail.append(f"case integrand (alpha={res.case.alpha}, "
                                  f"r={res.case.r}, l={res.case.l}, "
                                  f"k={res.case.k}, j={res.case.j}):")
                    detail.append(res.traced.render())
                    detail.append("")
            inter = f"{suite_name}-{label}.txt"
            texts[inter] = "\n".join(detail)
        records.append(_claim(label, recorded, computed, row == want, note=note,
                              evidence=tuple(evidence), intermediates=inter))

    case_sum = ScalarPoly.zero(model.registry)
    for label in _ROW_ORDER[:-1]:
        case_sum = case_sum + expected[label]
    records.append(_claim(
        "recorded-sum-identity", structured_render(model, expected["total"]),
        structured_render(model, case_sum), case_sum == expected["total"],
        note="pure arithmetic: the recorded case rows sum to the recorded total"))

    for check in reference.display_checks(suite):
        records.append(_claim(check.record_id, check.encoded.render(),
                              check.engine.render(), check.engine == check.encoded,
                              note=check.note))

    if suite_name == "boundary-d2d2":
        tangential = drop_components(expected["total"],
                                     (model.registry.by_name("X4"),))
        gauge = extrinsic_form(tangential, model.hp, model.kext)
        want_poly = (model.sigma_hat * model.var(model.kext)
                     * model.var(model.pi) * model.var(model.omega3)
                     * GR(Fraction(5, 36)))
        records.append(_claim(
            "extrinsic-gauge-rewrite", "5/36*[sum_a<4 Xa*Ya]*K*pi*Omega3",
            gauge.render(), gauge == want_poly,
            note="recorded total with the normal component dropped, collar "
                 "rate rewritten as -(2/3)*K"))

    return records, texts


# ---------------------------------------------------------------------------
# entry points


def _check_waivers(waivers) -> None:
    """Reject a waiver whose suite and label name no record in
    :data:`RECORD_IDS`."""
    for w in waivers:
        if w.label not in RECORD_IDS.get(w.suite, ()):
            raise ConfigurationError(
                f"waiver names no record: suite {w.suite!r}, label {w.label!r}")


def run_suite(name, model=None, waivers=None, emit_dir=None) -> SuiteReport:
    """Recompute one suite, then give each mismatch its waiver, if any.

    Waivers passed in are taken as checked (:func:`run` checks them once,
    before any suite runs); waivers this function loads itself are checked
    before the suite is computed.  A bad one is a
    :class:`ConfigurationError`."""
    if name not in reference.ALL_SUITES:
        raise UnknownSuiteError(name)
    model = model if model is not None else build_model()
    if waivers is None:
        waivers = load_waivers()
        _check_waivers(waivers)
    texts: dict[str, str] = {}
    if name == "interior":
        records = _interior_records()
    elif name == "traces":
        records = _trace_records(model)
    else:
        records, texts = _boundary_records(model, name, bool(emit_dir))
    for file_name, text in texts.items():
        with open(os.path.join(emit_dir, file_name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return SuiteReport(suite=name, records=tuple(
        replace(r, waiver=waiver_reason(waivers, name, r.record_id))
        if r.status == STATUS_MISMATCH else r for r in records))


def run(names, fmt="json", emit_dir=None, environ=None):
    """Run the named suites; returns (exit code, rendered report).  Waivers
    are loaded and every label checked before any suite runs."""
    from .report import exit_code, to_json, to_markdown

    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(reference.ALL_SUITES)
        elif name in reference.ALL_SUITES:
            expanded.append(name)
        else:
            raise UnknownSuiteError(name)
    try:
        waivers = load_waivers(environ)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigurationError(
            f"cannot load waivers from {WAIVER_ENV}: {type(exc).__name__}: {exc}") from exc
    _check_waivers(waivers)
    if emit_dir:
        try:
            os.makedirs(emit_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create intermediates directory: {exc}") from exc
    model = build_model()
    reports = tuple(run_suite(n, model, waivers, emit_dir) for n in expanded)
    text = to_json(reports) if fmt == "json" else to_markdown(reports)
    return exit_code(reports), text
