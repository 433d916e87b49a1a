import math
from dataclasses import replace
from fractions import Fraction

import pytest

from wresidue import xicalc
from wresidue.boundary import (
    CaseSpec,
    CaseResult,
    IbpMismatchError,
    assemble_boundary,
    case_prefactor,
    drop_components,
    enumerate_cases,
    evaluate_case,
    extrinsic_form,
)
from wresidue.reference import (
    BOUNDARY_SUITES,
    D2D2_LABELS,
    Model,
    Suite,
    derived_d2d2,
    expected_d2d2,
    expected_d1d3,
    load_suite,
)
from wresidue.clifford import CF, CliffordElement, generator_square_sign
from wresidue.scalars import GR, GR_I, GR_ONE, ScalarPoly
from wresidue.sphere import integrate_sphere, odd_class
from wresidue.xicalc import InsufficientDecayError, XiRational


def test_case_order_constraint(d2d2, d1d3):
    for result in (d2d2, d1d3):
        assert result.cases, result.suite
        for res in result.cases:
            case = res.case
            assert case.k + case.j + case.alpha_abs == case.r + case.l + 3


def test_case_labels_and_counts(d2d2, d1d3):
    order = ("a-I", "a-II", "a-III", "b", "c")
    for result in (d2d2, d1d3):
        labels = [res.label for res in result.cases]
        assert set(labels) == set(order)
        # report order groups the labels in sequence
        first_seen = [labels[i] for i in range(len(labels))
                      if labels.index(labels[i]) == i]
        assert first_seen == list(order)


def test_prefactor_values():
    base = dict(label="x", r=0, l=-2)
    assert case_prefactor(CaseSpec(**base, k=0, j=0, alpha=(1, 0, 0))) == GR(-1)
    assert case_prefactor(CaseSpec(**base, k=0, j=1, alpha=(0, 0, 0))) == \
        GR(Fraction(-1, 2))
    assert case_prefactor(CaseSpec(**base, k=1, j=0, alpha=(0, 0, 0))) == \
        GR(Fraction(-1, 2))
    assert case_prefactor(CaseSpec(label="x", r=0, l=-3,
                                   k=0, j=0, alpha=(0, 0, 0))) == -GR_I
    assert case_prefactor(CaseSpec(**base, k=0, j=0, alpha=(2, 0, 0))) == \
        GR(0, Fraction(1, 2))
    # (-i)^(k+1) / (k+1)! once round the cycle and on
    for k in range(6):
        assert case_prefactor(CaseSpec(**base, k=k, j=0, alpha=(0, 0, 0))) == \
            GR(0, -1) ** (k + 1) * GR(Fraction(1, math.factorial(k + 1)))


def test_enumerate_rejects_unlabelled_cases(suites):
    with pytest.raises(KeyError):
        enumerate_cases(replace(suites["boundary-d2d2"], labels={}))


def test_tangential_cases_vanish_with_note(d2d2):
    flagged = [res for res in d2d2.cases if res.case.alpha_abs]
    assert flagged
    for res in flagged:
        assert res.value.is_zero()
        assert res.note == "tangential-base-jet-vanishes"


def test_derivative_transfer_invariance(suites):
    """Moving one normal-covariable derivative across the product, with the
    sign flip, cannot change any case value."""
    for suite in suites.values():
        for case in enumerate_cases(suite)[:4]:
            plain = evaluate_case(suite, case, shift=0)
            moved = evaluate_case(suite, case, shift=1)
            assert plain.value == moved.value, case.label


def test_shift_range_validated(suites):
    suite = suites["boundary-d2d2"]
    case = enumerate_cases(suite)[0]
    with pytest.raises(ValueError):
        evaluate_case(suite, case, shift=case.j + 2)


def test_groups_additive(d2d2, d1d3):
    for result in (d2d2, d1d3):
        regroup = {}
        total = ScalarPoly.zero(result.total.registry)
        for res in result.cases:
            regroup[res.label] = regroup.get(
                res.label, ScalarPoly.zero(result.total.registry)) + res.value
            total = total + res.value
        assert regroup == result.groups
        assert total == result.total


def test_second_composition_rows_match_frozen_derivation(model, d2d2):
    table = derived_d2d2(model)
    for label, want in table.items():
        got = d2d2.total if label == "total" else d2d2.groups[label]
        assert got == want, label


def test_dual_composition_collar_velocity_coefficient(model, d1d3):
    """The recomputed fourth row carries -3/2 on the normal-component
    velocity atom, times both volume markers."""
    xdy4 = model.registry.by_name("XdY4")
    co = d1d3.groups["b"].coefficient_of({xdy4: 1})
    want = (model.var(model.pi) * model.var(model.omega3)
            * GR(Fraction(-3, 2)))
    assert co == want


def test_first_rows_vanish(d2d2, d1d3):
    assert d2d2.groups["a-I"].is_zero()
    assert d1d3.groups["a-I"].is_zero()


def test_recorded_rows_sum_to_recorded_totals(model):
    for table in (expected_d2d2(model), expected_d1d3(model)):
        acc = ScalarPoly.zero(model.registry)
        for label, row in table.items():
            if label != "total":
                acc = acc + row
        assert acc == table["total"]


# -- post-processing helpers -------------------------------------------------


def test_extrinsic_form(model):
    hp, kext = model.hp, model.kext
    value = model.var(hp) * GR(3) + model.var(model.pi)
    got = extrinsic_form(value, hp, kext)
    assert got == model.var(kext) * GR(-2) + model.var(model.pi)


def test_drop_components(model):
    x4 = model.registry.by_name("X4")
    y1 = model.registry.by_name("Y1")
    value = model.var(x4) * model.var(y1) + model.var(y1)
    assert drop_components(value, (x4,)) == model.var(y1)
    assert drop_components(value, (y1,)).is_zero()


# -- the antipodal identity ----------------------------------------------------
#
# The antipodal map xi -> -xi swaps the poles +i and -i, so it carries pi+ to
# pi-; each jet has a definite parity in (xi', xn) and the sphere average is
# even in xi'.  So every case value comes out the same with the left factor
# projected by pi- in place of pi+, through other Laurent data (at -i) and
# another traced integrand.


def _with_pi_minus_left(monkeypatch, suite):
    """The suite assembled afresh with every left factor projected by pi-."""
    with monkeypatch.context() as patch:
        patch.setattr(XiRational, "pi_plus", XiRational.pi_minus)
        return assemble_boundary(load_suite(suite.name, suite.model))


def _antipodal_breaks(plus, minus):
    """Labels of the cases whose value moves with pi- on the left."""
    assert [res.case for res in plus.cases] == [res.case for res in minus.cases]
    return {p.label for p, m in zip(plus.cases, minus.cases) if p.value != m.value}


def test_antipodal_left_factor_gives_every_case_value(suites, d2d2, d1d3, monkeypatch):
    for plus in (d2d2, d1d3):
        minus = _with_pi_minus_left(monkeypatch, suites[plus.suite])
        assert _antipodal_breaks(plus, minus) == set()
        nonzero = [(p, m) for p, m in zip(plus.cases, minus.cases) if p.value]
        assert nonzero, plus.suite
        for p, m in nonzero:  # not vacuous: another integrand, the same value
            assert p.traced != m.traced, (plus.suite, p.label)


def test_antipodal_identity_rejects_a_collar_bracket_without_xn(monkeypatch):
    """The probe 3/2 h' xn -> 3/2 h' in the connection bracket breaks the
    parity in xn, and with it the identity, at d2d2 rows b and c and at
    d1d3 row c."""
    model = Model()
    model.__dict__["collar_bracket"] = XiRational.build(
        model.registry, {0: model.hp_poly * Fraction(3, 2)})
    broken = {}
    for name in BOUNDARY_SUITES:
        suite = load_suite(name, model)
        broken[name] = _antipodal_breaks(assemble_boundary(suite),
                                         _with_pi_minus_left(monkeypatch, suite))
    assert broken == {"boundary-d2d2": {"b", "c"}, "boundary-d1d3": {"c"}}


# -- the residue of the sphere-surviving part --------------------------------


def _value_from_the_whole_integrand(model, case: CaseSpec, traced: XiRational,
                                    shift: int) -> ScalarPoly:
    """A case value as it was first computed: the residue of the whole
    traced integrand, odd covariable monomials included."""
    line = traced.integrate(model.pi).scalar_part()
    sign = GR_ONE if shift % 2 == 0 else -GR_ONE
    return integrate_sphere(line, model.xi, model.omega3) * (case_prefactor(case) * sign)


def _odd_monomials(model, traced: XiRational) -> int:
    xi_ids = {ind.id for ind in model.xi}
    return sum(bool(odd_class(mono, xi_ids)) for elem in traced.num.values()
               for poly in elem.terms.values() for mono in poly.terms)


def test_sphere_survivors_give_every_case_value_in_order(suites):
    """The stated form of every case of both suites: the value from the
    surviving monomials equals the whole integrand's, monomial order too,
    and the traced integrand stays whole.  The moved form keeps no
    integrand; ``test_moved_form_value_is_the_whole_products`` covers it."""
    odd = 0
    for suite in suites.values():
        model = suite.model
        for case in enumerate_cases(suite):
            res = evaluate_case(suite, case)
            if case.alpha_abs:
                assert res.traced is None
                continue
            want = _value_from_the_whole_integrand(model, case, res.traced, 0)
            assert res.value == want, (suite.name, case)
            assert list(res.value.terms.items()) == list(want.terms.items())
            odd += _odd_monomials(model, res.traced)
    assert odd  # not vacuous: the traced integrands keep their odd monomials


# -- the moved form: only what survives the sphere is joined -----------------


def _factor_pairs(suite):
    """Every case without tangential derivatives, with its left and right
    factors for each shift."""
    for case in enumerate_cases(suite):
        if not case.alpha_abs:
            for shift in (0, 1):
                yield case, shift, (suite.factor(True, case.r, case.j, case.k + shift),
                                    suite.factor(False, case.l, case.k, case.j + 1 - shift))


def test_moved_form_value_is_the_whole_products(suites):
    """Every case of both suites: the moved form's value equals the one the
    whole product gives, and the moved form keeps no integrand."""
    nonzero = 0
    for suite in suites.values():
        model = suite.model
        for case, shift, (left, right) in _factor_pairs(suite):
            if not shift:
                continue
            res = evaluate_case(suite, case, shift)
            assert res.traced is None
            whole = left.product_trace(right, model.p, model.q)
            want = _value_from_the_whole_integrand(model, case, whole, shift)
            assert res.value == want, (suite.name, case)
            nonzero += bool(want)
    assert nonzero


def _even_part(f: XiRational, xi_ids) -> XiRational:
    """The monomials of ``f`` whose odd class is empty, made canonical."""
    reg = f.registry
    return XiRational(reg, {m: CliffordElement(reg, {
        w: ScalarPoly(reg, {mono: c for mono, c in poly.terms.items() if not odd_class(mono, xi_ids)})
        for w, poly in elem.terms.items()}) for m, elem in f.num.items()}, f.a, f.b)


def test_even_join_is_the_surviving_part_of_the_whole_product(suites):
    """For the factors of both shifts of every case, the join over equal odd
    classes is the sphere-surviving part of the whole product, over the
    summed pole orders, with no odd monomial below the decay bound."""
    dropped = 0
    for suite in suites.values():
        model = suite.model
        xi_ids = {ind.id for ind in model.xi}
        for case, shift, (left, right) in _factor_pairs(suite):
            even = left.product_trace(right, model.p, model.q, even_in=xi_ids)
            whole = left.product_trace(right, model.p, model.q)
            assert (even.a, even.b) == (left.a + right.a, left.b + right.b)
            assert _even_part(even, xi_ids) == _even_part(whole, xi_ids)
            assert even.integrate(model.pi, even_in=xi_ids) == \
                whole.integrate(model.pi, even_in=xi_ids)
            assert not any(_odd_monomials(model, XiRational(even.registry, {m: c}))
                           for m, c in even.num.items() if m <= even.a + even.b - 2)
            dropped += _odd_monomials(model, whole)
    assert dropped


def _crafted_case(monkeypatch, suite, left, right, shift):
    """The first case of ``suite`` without tangential derivatives, with every
    factor it asks for replaced by ``left`` or ``right``."""
    case = next(c for c in enumerate_cases(suite) if not c.alpha_abs)
    with monkeypatch.context() as patch:
        patch.setattr(Suite, "factor", lambda self, plus, *key: left if plus else right)
        return evaluate_case(suite, case, shift)


def test_decay_check_reads_whole_joins_above_the_bound(suites, monkeypatch):
    """xn^3 is above the bound 2 of the pole orders (2, 2).  Reached only by
    xi1 against xi2, a pair of unequal odd classes, it fails the decay check
    in both forms; cancelled by a second such pair, both forms integrate."""
    suite = suites["boundary-d2d2"]
    model = suite.model
    reg = model.registry
    xi1, xi2 = (model.var(ind) for ind in model.xi[:2])
    one, e = model.ident(), model.gen(CF, 1)
    sign = generator_square_sign((CF, 1))  # tr(e e) = sign tr(1)
    left = XiRational(reg, {0: one, 2: one * xi1 + e * xi2}, 2, 0)
    lone = XiRational(reg, {0: one, 1: one * xi2}, 0, 2)
    cancelled = XiRational(reg, {0: one, 1: one * xi2 - e * (xi1 * sign)}, 0, 2)
    for shift in (0, 1):
        with pytest.raises(InsufficientDecayError):
            _crafted_case(monkeypatch, suite, left, lone, shift)
        assert _crafted_case(monkeypatch, suite, left, cancelled, shift).value


def test_a_join_that_drops_one_odd_class_is_caught(suites, monkeypatch):
    """The moved form with the pairs of one odd class left out no longer
    agrees with the stated form."""
    suite = suites["boundary-d1d3"]
    xi1 = suite.model.xi[0].id
    split = xicalc._by_odd_class
    monkeypatch.setattr(xicalc, "_by_odd_class", lambda elem, ids: {
        cls: part for cls, part in split(elem, ids).items() if cls != (xi1,)})
    with pytest.raises(IbpMismatchError):
        assemble_boundary(suite)


def test_cases_and_partner_words_read_one_pairing_rule(model, suites):
    """``Suite.partners`` is the budget rule r + l + n - 1 >= 0, highest
    order first, and both the cases and the word restriction read it."""
    for suite in suites.values():
        for plus, mine, others in ((True, suite.left, suite.right),
                                   (False, suite.right, suite.left)):
            for order in mine:
                assert suite.partners(plus, order) == tuple(
                    o for o in sorted(others, reverse=True) if order + o + model.n - 1 >= 0)
        pairs = {(c.r, c.l) for c in enumerate_cases(suite)}
        assert pairs == {(r, l) for r in suite.left for l in suite.partners(True, r)}


def test_no_partners_means_no_cases_and_no_factor_words(model, suites, monkeypatch):
    monkeypatch.setattr(Suite, "partners", lambda self, left, order: ())
    for name, suite in suites.items():
        assert enumerate_cases(suite) == ()
        fresh = load_suite(name, model)
        for plus, jets in ((True, fresh.left), (False, fresh.right)):
            for order in jets:
                assert fresh.factor(plus, order, 0, 0).is_zero(), (name, plus, order)


def _case_with_integrand(monkeypatch, suite, num, a, b) -> CaseResult:
    """The first case of ``suite`` without tangential derivatives, its traced
    integrand replaced by ``num`` over the pole orders ``(a, b)``."""
    reg = suite.model.registry
    traced = XiRational(reg, {m: CliffordElement.identity(reg, c) for m, c in num.items()}, a, b)
    case = next(c for c in enumerate_cases(suite) if not c.alpha_abs)
    with monkeypatch.context() as patch:
        patch.setattr(XiRational, "product_trace", lambda *args: traced)
        res = evaluate_case(suite, case)
    assert res.traced is traced
    return res


def test_decay_check_reads_the_odd_monomials(suites, monkeypatch):
    """The only power too high for the poles sits on an odd monomial, which
    the residue drops; the degree check must still see it."""
    suite = suites["boundary-d2d2"]
    model = suite.model
    xi1, xi2 = (model.var(ind) for ind in model.xi[:2])
    num = {0: xi1 * xi1, 1: xi2 * xi2 * GR(3), 2: xi1 * xi2 * xi2}
    with pytest.raises(InsufficientDecayError):
        _case_with_integrand(monkeypatch, suite, num, 2, 1)
    # without it the same integrand integrates, to a nonzero value
    del num[2]
    assert _case_with_integrand(monkeypatch, suite, num, 2, 1).value


def test_an_integrand_of_odd_monomials_gives_zero(suites, monkeypatch):
    suite = suites["boundary-d1d3"]
    model = suite.model
    xi1, xi2, xi3 = (model.var(ind) for ind in model.xi)
    num = {0: xi1 * GR(5), 1: xi1 * xi2 * xi3 + xi2 * xi2 * xi3}
    res = _case_with_integrand(monkeypatch, suite, num, 2, 1)
    assert res.value == ScalarPoly.zero(model.registry)
    assert res.traced.integrate(model.pi)  # the whole integrand's residue is not zero


# -- the contour closed downwards -------------------------------------------


def test_residue_at_minus_i_gives_every_case_value(suites, d2d2, d1d3, monkeypatch):
    """-2 pi i Res at -i in place of 2 pi i Res at +i: every case value of
    both suites is the same, through the surviving monomials' residue at the
    other pole.  Taking the residue at -i without the sign is caught."""
    for plus in (d2d2, d1d3):
        suite = suites[plus.suite]
        with monkeypatch.context() as patch:
            patch.setattr(XiRational, "residue_at_plus_i", lambda f: -f._residue(-1))
            down = assemble_boundary(suite)
        assert [r.value for r in down.cases] == [r.value for r in plus.cases]
        with monkeypatch.context() as patch:
            patch.setattr(XiRational, "residue_at_plus_i", lambda f: f._residue(-1))
            wrong = assemble_boundary(suite)
        moved = {p.label for p, w in zip(plus.cases, wrong.cases) if p.value != w.value}
        assert moved == {p.label for p in plus.cases if p.value}, plus.suite
