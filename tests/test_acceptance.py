"""Acceptance gate: one test per contract criterion, in contract order.

Each test prints a single pass/fail line under ``pytest -v``.  The
second-composition row check holds every row to an exact value: rows
``a-I`` .. ``b`` to the recorded table, and the disputed rows ``c`` and
``total`` to the frozen re-derivation, but only after the floating-point
matrix twin in ``twin.py`` (8x8 generator matrices, contour pi+, quadrature;
none of the engine's exact calculus) has reproduced the engine's row ``c``
and ruled out the recorded one at two independent bindings.
"""
import json
import math
from fractions import Fraction

import twin
from wresidue.boundary import drop_components, extrinsic_form
from wresidue.interior import (
    InteriorSetting,
    curvature_form_traces,
    first_principles_coefficients,
    trace_endomorphism,
)
from wresidue.reference import (
    FINGERPRINT_RECIPES,
    INTERIOR_CASES,
    derived_d2d2,
    display_checks,
    expected_d2d2,
    expected_d1d3,
    fingerprint_binding,
    interior_expected,
)
from wresidue.report import STATUS_FLAG, STATUS_MATCH, STATUS_MISMATCH
from wresidue.scalars import GR, ScalarPoly
from wresidue.verifier import NUMERIC_RTOL, exact_bindings, run_suite

_ROWS = ("a-I", "a-II", "a-III", "b", "c", "total")


def test_interior_constants_dual_route():
    closed = interior_expected(2, 2)
    assert closed["einstein"] == Fraction(8, 3)  # times the implied pi^2
    assert closed["two-form"] == 0
    assert closed["scalar"] == 1
    for p, q in INTERIOR_CASES:
        got = first_principles_coefficients(p, q)
        want = interior_expected(p, q)
        assert got["einstein"] == want["einstein"], (p, q)
        assert got["scalar"] == want["scalar"], (p, q)
        assert not (got["two-form"] - want["two-form"]), (p, q)
        assert got["endo-trace"] == want["endo-trace"], (p, q)


def test_trace_suite_reductions(model):
    for p, q in ((2, 2), (4, 2), (2, 4)):
        setting = InteriorSetting(p, q)
        coeff, _ = trace_endomorphism(setting)
        assert coeff == Fraction(2) ** (p // 2 + q - 2)
        for name, value in curvature_form_traces(setting).items():
            assert value.is_zero(), (p, q, name)
    rep = run_suite("traces", model)
    by_id = {r.record_id: r for r in rep.records}
    flag = by_id.pop("two-letter-leaf-pair")
    assert flag.status == STATUS_FLAG
    assert any("2^q" in line for line in flag.evidence)
    for rid, rec in by_id.items():
        assert rec.status == STATUS_MATCH, rid


def _rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def test_second_composition_rows_exact(model, d2d2):
    recorded = expected_d2d2(model)
    case_sum = ScalarPoly.zero(model.registry)
    for label in _ROWS[:-1]:
        case_sum = case_sum + recorded[label]
    assert case_sum == recorded["total"]  # recorded rows sum to recorded total

    rows = dict(d2d2.groups)
    rows["total"] = d2d2.total
    for label in ("a-I", "a-II", "a-III", "b"):
        assert rows[label] == recorded[label], label

    # Row c: the recorded value and the engine's disagree, so an independent
    # twin decides between them before either is held to an exact value.
    recipes = {tag: (offset, mul) for tag, offset, mul in FINGERPRINT_RECIPES}
    for binding in (exact_bindings(model),
                    fingerprint_binding(model, *recipes["fp1"])):
        atoms = {ind.name: value.to_complex() for ind, value in binding.items()}
        numeric = {ind.id: value.to_complex() for ind, value in binding.items()}
        numeric[model.pi.id] = math.pi
        numeric[model.omega3.id] = 4 * math.pi  # area of the unit 2-sphere
        settled = twin.final_case_d2d2(atoms)
        engine = rows["c"].eval_complex(numeric)
        claimed = recorded["c"].eval_complex(numeric)
        assert _rel_gap(settled, engine) < NUMERIC_RTOL, (settled, engine)
        assert _rel_gap(settled, claimed) > NUMERIC_RTOL, (settled, claimed)

    derived = derived_d2d2(model)
    assert rows["c"] == derived["c"]
    assert rows["total"] == derived["total"]
    assert derived["total"] == recorded["total"] - recorded["c"] + derived["c"]


def test_plus_projection_milestones(suites):
    seen = []
    for name, suite in suites.items():
        checks = display_checks(suite)
        assert len(checks) == 5, name
        for check in checks:
            assert check.engine == check.encoded, (name, check.record_id)
            seen.append((name, check.record_id))
    assert len(set(seen)) == 10


def test_extrinsic_gauge_rewrite(model):
    total = expected_d2d2(model)["total"]
    tangential = drop_components(total, (model.registry.by_name("X4"),))
    gauge = extrinsic_form(tangential, model.hp, model.kext)
    want = (model.sigma_hat * model.var(model.kext) * model.var(model.pi)
            * model.var(model.omega3) * GR(Fraction(5, 36)))
    assert gauge == want


def test_third_composition_corroborated(model, cli_runs):
    (_, text), _ = cli_runs
    suites = {s["suite"]: s["records"] for s in json.loads(text)["suites"]}
    records = {r["id"]: r for r in suites["boundary-d1d3"]}

    for label in _ROWS:
        rec = records[label]
        if rec["status"] == STATUS_MATCH:
            continue
        assert rec["status"] == STATUS_MISMATCH, label
        assert rec["waiver"], label
        assert "corroboration incomplete" not in rec["note"], label
        evidence = "\n".join(rec["evidence"])
        assert "rel err" in evidence and "tol 1.000000e-09" in evidence, label

    assert records["recorded-sum-identity"]["status"] == STATUS_MATCH

    # the recorded quadratic totals, as exact coefficients
    total = expected_d1d3(model)
    hp, pi, om = model.hp, model.pi, model.omega3
    x1, y1 = model.registry.by_name("X1"), model.registry.by_name("Y1")
    x4, y4 = model.registry.by_name("X4"), model.registry.by_name("Y4")
    tang = total["total"].coefficient_of({hp: 1, pi: 1, om: 1, x1: 1, y1: 1})
    norm = total["total"].coefficient_of({hp: 1, pi: 1, om: 1, x4: 1, y4: 1})
    assert tang.constant_part() == GR(Fraction(-113, 960), Fraction(-11, 80))
    assert norm.constant_part() == GR(Fraction(-71, 96), Fraction(13, 48))


def test_analytic_property_suites(sweep):
    result = sweep.run(1)
    print(result["failures"])
    assert result["attempted"] == 22_504
    assert result["failed"] == 0, result["failures"]
