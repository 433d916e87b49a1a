"""Suite orchestration: recompute every claim and compare it to the frozen
expected tables, with numeric corroboration for anything that disagrees.

Four suites: ``interior`` (closed functional, dual-route), ``traces``
(fiber-trace identities), and the two boundary compositions.  Each produces
a deterministic :class:`~wresidue.report.SuiteReport`; rendering and exit
codes live in :mod:`wresidue.report`.
"""

from __future__ import annotations

import gc
import math
import os
from dataclasses import replace
from fractions import Fraction

from . import interior, reference
from .boundary import assemble_boundary, drop_components, extrinsic_form
from .clifford import HC
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
from .scalars import GR, ScalarPoly
from .sphere import integrate_sphere
from .xicalc import numeric_xi_oracle

NUMERIC_RTOL = 1e-9


class UnknownSuiteError(ValueError):
    pass


class ConfigurationError(RuntimeError):
    """The waiver file, a waiver in it, the intermediates directory or a file
    in it cannot be used."""


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
    """Deterministic nonzero rationals for every non-marker atom."""
    return reference.atom_binding(
        model, lambda k: GR(Fraction((-1) ** k * (k + 3), 2 * k + 5)))


def numeric_bindings(model, exact: dict) -> dict[int, complex]:
    """The ``exact`` bindings as floats, plus stand-ins for the formal markers."""
    out = {ind.id: complex(v.re) for ind, v in exact.items()}
    out[model.pi.id] = complex(math.pi)
    out[model.omega3.id] = 2.03125
    out[model.kext.id] = 0.40625
    out[model.scurv.id] = 1.15625
    return out


def _fmt(x: float) -> str:
    return format(x, ".6e")


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
            w, g = want[key], got[key]
            records.append(_claim(f"rank-{p}-{q}-dim-{n}-{key}", f"{w}{unit}",
                                  f"{g}{unit}", not (g - w),
                                  note="closed form vs first-principles assembly"))
    return records


# ---------------------------------------------------------------------------
# traces suite


def _trace_records(model) -> list[ClaimRecord]:
    records = []
    settings = {(p, q): interior.InteriorSetting(p, q) for p, q in ((2, 2), (4, 2), (2, 4))}
    endo = {split: interior.trace_endomorphism(s) for split, s in settings.items()}

    block_traces = endo[2, 2][1]
    for block in ("mixed-pair", "leaf-pair", "perp-pair"):
        tr = block_traces[block]
        records.append(_claim(
            f"endo-block-{block.removesuffix('-pair')}-trace", "0", tr.render(),
            tr.is_zero(), note="curvature block of the endomorphism traces to zero"))

    for (p, q), (co, _) in endo.items():
        want = reference.interior_expected(p, q, p + q)["endo-trace"]
        records.append(_claim(f"endo-trace-rank-{p}-{q}", f"{want} * s",
                              f"{co} * s", co == want))

    p, q = 2, 2
    setting = settings[p, q]
    diag = (setting.c(1) * setting.c(1)).trace(p, q).constant_part()
    off = (setting.c(1) * setting.c(2)).trace(p, q).constant_part()
    full = -(GR(2) ** (p // 2 + q))
    records.append(ClaimRecord(
        record_id="two-letter-leaf-pair",
        recorded=f"-{2 ** (p // 2)} (k = l); 0 (k != l)",
        computed=f"{diag.render()} (k = l); {off.render()} (k != l)",
        status=STATUS_FLAG if diag == full and off.is_zero() else STATUS_MISMATCH,
        note="recorded value is the distinguished-factor trace",
        evidence=(f"full-fiber over recorded ratio = 2^q = {2 ** q}",),
    ))

    hc1, hc2, cn1, cn2 = setting.gen(HC, 1), setting.gen(HC, 2), setting.c(3), setting.c(4)
    diag = (hc1 * hc1 - cn1 * cn1).trace(p, q)
    off = (hc1 * hc2 - cn1 * cn2).trace(p, q)
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
    records.append(_claim(
        "normal-divergence-trace", "4*(wM12d1 + wM22d2 + wP12d3)", got.render(),
        got == model.div_poly * -4, note="equals -4 times the boundary divergence scalar"))

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


def _corroborate(suite, result, rows) -> dict[str, tuple[tuple[str, ...], str]]:
    """Evidence lines and note for each row that disagrees with its recorded
    value: the residue integral of every case contributing to the row
    ("total" covers them all) against quadrature, the numeric gap to the
    recorded row, and the frozen fingerprints.  The note is empty when all
    three hold; otherwise it names what failed, and no waiver covers the row.

    The exact atom bindings are substituted before integrating, so the
    quadrature runs over a constant-coefficient rational function; each
    case is integrated once and shared between its row and the total."""
    model = suite.model
    bound_atoms = exact_bindings(model)
    bindings = numeric_bindings(model, bound_atoms)
    fingerprints = reference.derived_fingerprints()[suite.name]
    quadrature: dict[int, tuple[bool, str]] = {}
    out = {}
    for label in _ROW_ORDER:
        row, want = rows[label], suite.expected[label]
        if row == want:
            continue
        evidence = []
        cases_ok = True
        for idx, res in enumerate(result.cases):
            if (label != "total" and res.label != label) or res.traced is None:
                continue
            if idx not in quadrature:
                small = res.traced.substitute(bound_atoms)
                sym = small.integrate(model.pi).scalar_part().eval_complex(bindings)
                num = numeric_xi_oracle(small, bindings)
                rel = abs(sym - num) / max(abs(sym), 1.0)
                quadrature[idx] = (rel <= NUMERIC_RTOL,
                                   f"residue integral vs quadrature, case {res.label}: "
                                   f"rel err {_fmt(rel)} (tol {_fmt(NUMERIC_RTOL)})")
            cases_ok = cases_ok and quadrature[idx][0]
            evidence.append(quadrature[idx][1])
        cases_ok = cases_ok and bool(evidence)
        got_num = row.eval_complex(bindings)
        want_num = want.eval_complex(bindings)
        gap = abs(got_num - want_num) / max(abs(got_num), abs(want_num), 1.0)
        evidence.append(f"engine vs recorded at numeric bindings: rel gap {_fmt(gap)}")
        frozen_ok = all(reference.row_fingerprint(model, row, off, mul) == fingerprints[tag][label]
                        for tag, off, mul in reference.FINGERPRINT_RECIPES)
        evidence.append(f"engine equals frozen re-derived value: {frozen_ok}")
        checks = {"quadrature": cases_ok, "frozen re-derived value": frozen_ok,
                  "gap to recorded value": gap > NUMERIC_RTOL}
        failed = ", ".join(what for what, ok in checks.items() if not ok)
        out[label] = (tuple(evidence), failed and
                      f"corroboration incomplete, so no waiver applies; failed: {failed}")
    return out


def _intermediate_text(suite, result, label, row, computed, recorded) -> str:
    detail = [f"suite: {suite.name}", f"row: {label}", "",
              f"engine (raw): {row.render()}", "",
              f"engine (structured): {computed}", "",
              f"recorded (structured): {recorded}", ""]
    for res in result.cases:
        if res.label == label and res.traced is not None:
            case = res.case
            detail += [f"case integrand (alpha={case.alpha}, r={case.r}, l={case.l}, "
                       f"k={case.k}, j={case.j}):", res.traced.render(), ""]
    return "\n".join(detail)


def _boundary_records(suite, emit) -> tuple[list[ClaimRecord], dict[str, str]]:
    """The suite's records and, when ``emit`` holds, the text of each row's
    intermediate file keyed by file name (written by :func:`run_suite`).

    The rows are assembled, each row that disagrees with its recorded value
    is corroborated, and then every row is rendered."""
    model, expected = suite.model, suite.expected
    result = assemble_boundary(suite)
    rows = {**result.groups, "total": result.total}
    corroborated = _corroborate(suite, result, rows)

    records = []
    texts: dict[str, str] = {}
    for label in _ROW_ORDER:
        row, want = rows[label], expected[label]
        computed = structured_render(model, row)
        recorded = structured_render(model, want)
        inter = f"{suite.name}-{label}.txt" if emit else ""
        if emit:
            texts[inter] = _intermediate_text(suite, result, label, row, computed, recorded)
        evidence, note = corroborated.get(label, ((), ""))
        records.append(_claim(label, recorded, computed, row == want, note=note,
                              evidence=evidence, intermediates=inter, waivable=not note))

    case_sum = sum((expected[label] for label in _ROW_ORDER[:-1]),
                   ScalarPoly.zero(model.registry))
    records.append(_claim(
        "recorded-sum-identity", structured_render(model, expected["total"]),
        structured_render(model, case_sum), case_sum == expected["total"],
        note="pure arithmetic: the recorded case rows sum to the recorded total"))

    for check in reference.display_checks(suite):
        records.append(_claim(check.record_id, check.encoded.render(),
                              check.engine.render(), check.engine == check.encoded,
                              note=check.note))

    if suite.name == "boundary-d2d2":
        tangential = drop_components(expected["total"], (model.X[-1],))
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


def _checked_waivers(environ=None):
    """Built-in waivers plus those of the waiver file, each naming a record
    of :data:`RECORD_IDS`; an unreadable file or a waiver that names no
    record is a :class:`ConfigurationError`."""
    try:
        waivers = load_waivers(environ)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigurationError(
            f"cannot load waivers from {WAIVER_ENV}: {type(exc).__name__}: {exc}") from exc
    for w in waivers:
        if w.label not in RECORD_IDS.get(w.suite, ()):
            raise ConfigurationError(
                f"waiver names no record: suite {w.suite!r}, label {w.label!r}")
    return waivers


def run_suite(name, model=None, waivers=None, emit_dir=None) -> SuiteReport:
    """Recompute one suite, then give each waivable mismatch its waiver, if
    any.

    Waivers passed in are taken as checked (:func:`run` checks them once,
    before any suite runs); without them, :func:`_checked_waivers` loads and
    checks them before the suite is computed."""
    if name not in reference.ALL_SUITES:
        raise UnknownSuiteError(name)
    model = model if model is not None else build_model()
    if waivers is None:
        waivers = _checked_waivers()
    texts: dict[str, str] = {}
    if name == "interior":
        records = _interior_records()
    elif name == "traces":
        records = _trace_records(model)
    else:
        records, texts = _boundary_records(load_suite(name, model), bool(emit_dir))
    try:
        for file_name, text in texts.items():
            with open(os.path.join(emit_dir, file_name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write intermediate file: {exc}") from exc
    return SuiteReport(suite=name, records=tuple(
        replace(r, waiver=waiver_reason(waivers, name, r.record_id))
        if r.status == STATUS_MISMATCH and r.waivable else r for r in records))


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
    waivers = _checked_waivers(environ)
    if emit_dir:
        try:
            os.makedirs(emit_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create intermediates directory: {exc}") from exc
    model = build_model()
    # the suites make short-lived objects by the million but few cycles, so
    # the cyclic collector waits until they are done
    collecting = gc.isenabled()
    gc.disable()
    try:
        reports = tuple(run_suite(n, model, waivers, emit_dir) for n in expanded)
    finally:
        if collecting:
            gc.enable()
    text = to_json(reports) if fmt == "json" else to_markdown(reports)
    return exit_code(reports), text
