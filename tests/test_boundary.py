import json
import math
from fractions import Fraction

import pytest

from wresidue import reference, xicalc
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
    partner_orders,
)
from wresidue.clifford import CF, CliffordElement, word_mul
from wresidue.scalars import GR, GR_I, GR_ONE, KIND_CONN, KIND_HPRIME, ScalarPoly
from wresidue.sphere import integrate_sphere, odd_class
from wresidue.verifier import run
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
    s = suites["boundary-d2d2"]
    with pytest.raises(KeyError):
        enumerate_cases(Suite(s.name, s.model, s.left, s.right, {}, s.expected))


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


def test_leaf_gauge_atoms_stay_out_of_every_row_but_d1d3_b(model, d2d2, d1d3):
    """A rotation of the leaf frame (f1, f2) shifts, at the base point, only
    the leaf connection atoms wF12d1..wF12d4 and the field derivatives
    XdY1, XdY2.  No boundary-d2d2 row holds any of them, and of the
    boundary-d1d3 rows only b and the total may; how b depends on them is
    not settled, so it is not pinned here."""
    names = [f"wF12d{d}" for d in range(1, model.n + 1)] + ["XdY1", "XdY2"]
    gauge = {model.registry.by_name(name).id for name in names}

    def held(poly):
        return sorted({ind for mono in poly.terms for ind, _ in mono} & gauge)

    for result, allowed in ((d2d2, ()), (d1d3, ("b", "total"))):
        rows = {**result.groups, "total": result.total}
        assert set(rows) == {"a-I", "a-II", "a-III", "b", "c", "total"}
        for label, row in rows.items():
            if label not in allowed:
                assert not held(row), (result.suite, label, held(row))


# -- the leaf relabelling f1 <-> f2 ---------------------------------------------
#
# Swapping the two leaf frame vectors is a symmetry of the model: the
# covariables, the field components and their derivatives swap indices 1 and
# 2, the mixed families swap their leaf index, every family swaps directions
# d1 and d2, and the one leaf atom pair wF12 changes sign (wF21 = -wF12).
# Every row, engine and recorded, must be invariant.  The map acts on the
# monomials directly and adds no atom to the model's registry.


def _leaf_swap(model, wf12_sign: int = -1) -> dict[int, tuple[int, int]]:
    """Atom id -> (relabelled atom id, sign)."""
    s = {1: 2, 2: 1}
    out = {}
    for atoms in (model.xi, model.X, model.Y, model.dXY):
        for a, ind in enumerate(atoms, start=1):
            out[ind.id] = (atoms[s.get(a, a) - 1].id, 1)
    for fam, sign, leaf in ((model.nabf, wf12_sign, False), (model.nabp, 1, False),
                            (model.nabtm, 1, True), (model.smix, 1, True)):
        for (i, k, d), ind in fam.items():
            out[ind.id] = (fam[(s.get(i, i) if leaf else i, k, s.get(d, d))].id, sign)
    return out


def _relabelled(poly: ScalarPoly, swap) -> ScalarPoly:
    terms = {}
    for mono, c in poly.terms.items():
        sign, new = 1, []
        for iid, exp in mono:
            nid, s = swap.get(iid, (iid, 1))
            new.append((nid, exp))
            sign *= s ** exp
        key = tuple(sorted(new))
        terms[key] = terms.get(key, GR(0)) + c * sign
    return ScalarPoly(poly.registry, terms)


def test_rows_are_invariant_under_the_leaf_relabelling(model, suites, d2d2, d1d3):
    """Every engine and recorded row of both suites is invariant under
    f1 <-> f2; the same map without the wF12 sign moves d1d3 b and total."""
    swap = _leaf_swap(model)
    assert all(swap[swap[iid][0]][0] == iid for iid in swap)  # an involution
    moved_without_sign = set()
    for result in (d2d2, d1d3):
        rows = {**result.groups, "total": result.total}
        for label, row in rows.items():
            assert _relabelled(row, swap) == row, (result.suite, label)
            if _relabelled(row, _leaf_swap(model, 1)) != row:
                moved_without_sign.add((result.suite, label))
        for label, row in suites[result.suite].expected.items():
            assert _relabelled(row, swap) == row, (result.suite, "recorded", label)
    assert moved_without_sign == {("boundary-d1d3", "b"), ("boundary-d1d3", "total")}


_LEAF_LETTERS = {(CF, 1): (CF, 2), (CF, 2): (CF, 1)}


def _relabelled_jet(jet: XiRational, swap, letters=_LEAF_LETTERS) -> XiRational:
    """``jet`` with its atoms relabelled by ``swap`` and the generators
    swapped by ``letters`` in every Clifford word, each word normal-ordered
    again with the sign of ``word_mul``."""
    num = {}
    for power, elem in jet.num.items():
        terms = {}
        for word, coeff in elem.terms.items():
            sign, image = 1, ()
            for letter in word:
                s, image = word_mul(image, (letters.get(letter, letter),))
                sign *= s
            terms[image] = _relabelled(coeff, swap) * sign
        num[power] = CliffordElement(jet.registry, terms)
    return XiRational(jet.registry, num, jet.a, jet.b)


def test_jets_are_invariant_under_the_leaf_relabelling(model, suites):
    """Every left and right jet of both suites, d_xn jets included, equals
    its image under f1 <-> f2.  Each part of the map acts: without the wF12
    sign two d1d3 jets move, and without c(f1) <-> c(f2) every d1d3 jet."""
    swap, unsigned = _leaf_swap(model), _leaf_swap(model, 1)
    d1d3, moved_without_sign, moved_without_words = set(), set(), set()
    for name, suite in suites.items():
        for side, jets in (("left", suite.left), ("right", suite.right)):
            for order, entries in jets.items():
                for k, jet in enumerate(entries):
                    key = (name, side, order, k)
                    assert _relabelled_jet(jet, swap) == jet, key
                    if name == "boundary-d1d3":
                        d1d3.add(key)
                    if _relabelled_jet(jet, unsigned) != jet:
                        moved_without_sign.add(key)
                    if _relabelled_jet(jet, swap, {}) != jet:
                        moved_without_words.add(key)
    assert moved_without_sign == {("boundary-d1d3", "left", 0, 0),
                                  ("boundary-d1d3", "right", -4, 0)}
    assert moved_without_words == d1d3


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


def test_sphere_survivors_give_every_case_value(suites):
    """The stated form of every case of both suites: the value from the
    surviving monomials equals the whole integrand's, and the traced
    integrand stays whole.  The moved form keeps no integrand;
    ``test_moved_form_value_is_the_whole_products`` covers it."""
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
            whole = left.product_trace(right, model.p, model.q, ())
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


def _sphere_average(model, f: XiRational) -> ScalarPoly:
    return integrate_sphere(f.integrate(model.pi).scalar_part(), model.xi, model.omega3)


def test_even_join_is_the_surviving_part_of_the_whole_product(suites):
    """For the factors of both shifts of every case, the join over equal odd
    classes is the sphere-surviving part of the whole product, over the
    summed pole orders, with no odd monomial below the decay bound."""
    dropped = 0
    for suite in suites.values():
        model = suite.model
        xi_ids = {ind.id for ind in model.xi}
        for case, shift, (left, right) in _factor_pairs(suite):
            even = left.product_trace(right, model.p, model.q, xi_ids)
            whole = left.product_trace(right, model.p, model.q, ())
            assert (even.a, even.b) == (left.a + right.a, left.b + right.b)
            assert _even_part(even, xi_ids) == _even_part(whole, xi_ids)
            assert _sphere_average(model, even) == _sphere_average(model, whole)
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
    sign = (e * e).scalar_part().constant_part()  # tr(e e) = sign tr(1)
    left = XiRational(reg, {0: one, 2: one * xi1 + e * xi2}, 2, 0)
    lone = XiRational(reg, {0: one, 1: one * xi2}, 0, 2)
    cancelled = XiRational(reg, {0: one, 1: one * xi2 - e * (xi1 * sign)}, 0, 2)
    for shift in (0, 1):
        with pytest.raises(InsufficientDecayError):
            _crafted_case(monkeypatch, suite, left, lone, shift)
        assert _crafted_case(monkeypatch, suite, left, cancelled, shift).value


def test_forms_that_disagree_are_caught(model, monkeypatch):
    """Left factors whose xn-covariable derivatives are doubled move the
    moved form of a case with k = 0 and not its stated form."""
    suite = load_suite("boundary-d2d2", model)
    factor = Suite.factor
    monkeypatch.setattr(Suite, "factor", lambda self, plus, order, xn_order, nxi: (
        factor(self, plus, order, xn_order, nxi) * GR(2) if plus and nxi == 1
        else factor(self, plus, order, xn_order, nxi)))
    with pytest.raises(IbpMismatchError):
        assemble_boundary(suite)


def _boundary_records() -> tuple[int, dict]:
    """Exit code and records of a run of both boundary suites, by suite and id."""
    code, text = run(list(BOUNDARY_SUITES), environ={})
    return code, {(s["suite"], r["id"]): r for s in json.loads(text)["suites"]
                  for r in s["records"]}


_CASE_ROWS = {"a-II", "a-III", "b", "c", "total"}


@pytest.mark.parametrize("dropped, changed", [
    ("xi1", {"boundary-d1d3": _CASE_ROWS}),
    ("empty", {"boundary-d2d2": _CASE_ROWS, "boundary-d1d3": _CASE_ROWS}),
], ids=["xi1", "empty"])
def test_a_join_that_drops_one_odd_class_is_caught(model, monkeypatch, dropped, changed):
    """Both integration-by-parts forms join through one route, so they lose
    the same odd class and still agree; the exact rows catch the loss.
    Without ξ1's class only d1d3 rows move, as that class adds nothing to a
    d2d2 case value; without the empty class both suites' rows move."""
    _, before = _boundary_records()
    cls = (model.xi[0].id,) if dropped == "xi1" else ()
    split = xicalc._by_odd_class
    monkeypatch.setattr(xicalc, "_by_odd_class", lambda elem, ids: {
        c: part for c, part in split(elem, ids).items() if c != cls})
    code, after = _boundary_records()
    assert code == 1
    moved = {}
    for key, record in after.items():
        if record != before[key]:
            moved.setdefault(key[0], set()).add(key[1])
    assert moved == changed


def test_cases_and_partner_words_read_one_pairing_rule(model, suites):
    """``partner_orders`` is the budget rule r + l + n - 1 >= 0, highest
    order first, and both the cases and the word restriction read it."""
    for suite in suites.values():
        for mine, others in ((suite.left, suite.right), (suite.right, suite.left)):
            for order in mine:
                assert partner_orders(others, order, model.n) == tuple(
                    o for o in sorted(others, reverse=True) if order + o + model.n - 1 >= 0)
        pairs = {(c.r, c.l) for c in enumerate_cases(suite)}
        assert pairs == {(r, l) for r in suite.left
                         for l in partner_orders(suite.right, r, model.n)}


def test_no_partners_means_no_cases_and_no_factor_words(model, suites, monkeypatch):
    """With the pairing rule meeting no order, a suite has no cases, and
    every jet built on its partners' words (each next order) carries no
    word, nor do its factors; the top orders are built as before."""
    monkeypatch.setattr(reference, "partner_orders", lambda others, order, n: ())
    built_on_words = {"boundary-d2d2": {(True, -1), (False, -3)},
                      "boundary-d1d3": {(True, 0), (False, -4)}}
    for name, suite in suites.items():
        fresh = load_suite(name, model)
        assert enumerate_cases(fresh) == ()
        empty = set()
        for plus, jets, usual in ((True, fresh.left, suite.left),
                                  (False, fresh.right, suite.right)):
            for order in jets:
                if all(jet.is_zero() for jet in jets[order]):
                    assert fresh.factor(plus, order, 0, 0).is_zero(), (name, plus, order)
                    empty.add((plus, order))
                else:
                    assert jets[order] == usual[order], (name, plus, order)
        assert empty == built_on_words[name]


def _integrand(reg, num, a, b) -> XiRational:
    return XiRational(reg, {m: CliffordElement.identity(reg, c) for m, c in num.items()}, a, b)


def _case_with_integrand(monkeypatch, suite, num, a, b) -> CaseResult:
    """The first case of ``suite`` without tangential derivatives, its traced
    integrand replaced by ``num`` over the pole orders ``(a, b)``."""
    traced = _integrand(suite.model.registry, num, a, b)
    case = next(c for c in enumerate_cases(suite) if not c.alpha_abs)
    with monkeypatch.context() as patch:
        patch.setattr(XiRational, "product_trace", lambda *args, **kw: traced)
        res = evaluate_case(suite, case)
        assert res.traced is traced  # formed on read, so through the patched join
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
    # the whole integrand's residue is not zero
    assert _integrand(model.registry, num, 2, 1).integrate(model.pi)


# -- the contour closed downwards -------------------------------------------


def _residue_at_minus_i(f: XiRational) -> CliffordElement:
    return f.laurent(False, -1).get(-1, CliffordElement.zero(f.registry))


def test_residue_at_minus_i_gives_every_case_value(suites, d2d2, d1d3, monkeypatch):
    """-2 pi i Res at -i in place of 2 pi i Res at +i: every case value of
    both suites is the same, through the surviving monomials' residue at the
    other pole.  Taking the residue at -i without the sign is caught."""
    for plus in (d2d2, d1d3):
        suite = suites[plus.suite]
        with monkeypatch.context() as patch:
            patch.setattr(XiRational, "residue_at_plus_i", lambda f: -_residue_at_minus_i(f))
            down = assemble_boundary(suite)
        assert [r.value for r in down.cases] == [r.value for r in plus.cases]
        with monkeypatch.context() as patch:
            patch.setattr(XiRational, "residue_at_plus_i", _residue_at_minus_i)
            wrong = assemble_boundary(suite)
        moved = {p.label for p, w in zip(plus.cases, wrong.cases) if p.value != w.value}
        assert moved == {p.label for p in plus.cases if p.value}, plus.suite


# -- derivative weight and normalisation -------------------------------------
#
# In dimension 4 every term of the boundary density carries exactly one
# derivative of the geometry, and the residue route gives it exactly one
# factor pi (the xn integral) and one Omega3 (the sphere).  Weight 1: hp,
# every connection atom and the derivatives XdY; weight 0: the field
# components, the covariables and the markers.  The check reads no jet.

# recorded rows that break it: (monomials of weight other than 1,
# monomials not linear in pi and in Omega3)
RECORDED_WEIGHT_FAULTS = {("boundary-d1d3", "b"): (12, 1), ("boundary-d1d3", "total"): (12, 1)}


def _weight_breaks(model, rows) -> dict:
    """The rows that break the check, keyed as in ``rows``, each with its
    rendered monomials of weight other than 1 and those not linear in pi
    and in Omega3."""
    weighted = {ind.id for ind in model.registry if ind.kind in (KIND_CONN, KIND_HPRIME)}
    out = {}
    for key, poly in rows.items():
        weight, normal = [], []
        for mono, c in poly.terms.items():
            exps, text = dict(mono), ScalarPoly(poly.registry, {mono: c}).render()
            if sum(e for iid, e in mono if iid in weighted) != 1:
                weight.append(text)
            if (exps.get(model.pi.id), exps.get(model.omega3.id)) != (1, 1):
                normal.append(text)
        if weight or normal:
            out[key] = (weight, normal)
    return out


def _rows(results) -> dict:
    """Every row of the assembled ``results``, keyed (suite, label)."""
    return {(got.suite, label): value for got in results
            for label, value in {**got.groups, "total": got.total}.items()}


def test_rows_have_weight_one_and_one_factor_pi_omega3(model, suites, d2d2, d1d3):
    for got in (d2d2, d1d3):
        assert _weight_breaks(model, {res.case: res.value for res in got.cases}) == {}, got.suite
        for (name, label), value in _rows([got]).items():
            # a-I is all tangential derivatives, zero at the base point
            assert (label == "a-I") != bool(value), (name, label)
    assert _weight_breaks(model, _rows([d2d2, d1d3])) == {}
    faults = _weight_breaks(model, {(name, label): value for name, suite in suites.items()
                                    for label, value in suite.expected.items()})
    assert {key: (len(w), len(n)) for key, (w, n) in faults.items()} == RECORDED_WEIGHT_FAULTS


def _drop_collar_hp(model):
    model.collar_bracket = XiRational.build(model.registry, {1: Fraction(3, 2)})


def _square_wf12d1(model):
    atom, antisym = model.nabf[(1, 2, 1)], model.antisym

    def squared(family, a, b, d):
        entry = antisym(family, a, b, d)
        hit = family is model.nabf and {a, b} == {1, 2} and d == 1
        return entry * model.var(atom) if hit else entry
    model.antisym = squared


@pytest.mark.parametrize("mutate, broken, mark", [
    (_drop_collar_hp, {("boundary-d2d2", "b"), ("boundary-d2d2", "c"),
                       ("boundary-d2d2", "total"), ("boundary-d1d3", "c"),
                       ("boundary-d1d3", "total")}, None),
    (_square_wf12d1, {("boundary-d1d3", "b"), ("boundary-d1d3", "total")}, "wF12d1^2"),
], ids=["collar-hp-dropped", "wF12d1-squared"])
def test_weight_check_names_the_rows_an_engine_mutation_breaks(mutate, broken, mark):
    """On a fresh model, hp dropped from the collar bracket leaves terms of
    weight 0 and a squared connection atom terms of weight 2; the check
    names every row they reach, and only by its weight."""
    model = Model()
    mutate(model)
    breaks = _weight_breaks(model, _rows(
        [assemble_boundary(load_suite(name, model)) for name in BOUNDARY_SUITES]))
    assert set(breaks) == broken
    for key, (weight, normal) in breaks.items():
        assert weight and not normal, key
        assert all(("hp" not in text) if mark is None else (mark in text) for text in weight), key
