import hashlib
import json
from fractions import Fraction

import pytest

from wresidue import reference
from wresidue.boundary import assemble_boundary, enumerate_cases, evaluate_case
from wresidue.reference import (
    BOUNDARY_SUITES,
    FINGERPRINT_RECIPES,
    Model,
    builtin_waivers,
    derived_d1d3_structure,
    derived_fingerprints,
    display_checks,
    expected_d2d2,
    expected_d1d3,
    interior_expected,
    load_suite,
    row,
    row_fingerprint,
)
from wresidue.clifford import CF, CN, CliffordElement
from wresidue.report import structured_render
from wresidue.scalars import GR, KIND_CONN, KIND_MARKER, KIND_X, KIND_Y, ScalarPoly
from wresidue.sphere import integrate_sphere
from wresidue.xicalc import XiRational


def test_registry_dump_pinned():
    """Registry ids set the printed term order; the report pin guards only
    the atoms that appear in the report, this pins all of them."""
    dump = json.dumps([[i.id, i.name, i.kind] for i in Model().registry])
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "c4506968c906d594f190507a071752408c6168fa57738de34cb1670661300ad4")


def test_markers_are_formal(model):
    for ind in (model.pi, model.omega3, model.scurv, model.kext):
        assert ind.kind == KIND_MARKER


def test_divergence_scalar(model):
    want = -(model.antisymmetric("wP{}{}d3", KIND_CONN, (1, 2))
             + model.var(model.nabtm[(1, 2, 1)]) + model.var(model.nabtm[(2, 2, 2)]))
    assert model.div_poly == want


def test_quadratic_blocks(model):
    x4 = model.registry.by_name("X4")
    y4 = model.registry.by_name("Y4")
    assert model.n_hat == model.var(x4) * model.var(y4)
    sig = model.sigma_hat
    assert sig.coefficient_of({x4: 1, y4: 1}).is_zero()
    for a in (1, 2, 3):
        xa = model.registry.by_name(f"X{a}")
        ya = model.registry.by_name(f"Y{a}")
        assert sig.coefficient_of({xa: 1, ya: 1}).constant_part() == GR(1)


# rational points (xi', xn, X, Y) at which pairings are evaluated exactly
PAIR_POINTS = (
    ((Fraction(1, 2), Fraction(-3), Fraction(2, 7)), Fraction(5, 3),
     (Fraction(1), Fraction(-2, 3), Fraction(4), Fraction(1, 5)),
     (Fraction(-7, 2), Fraction(3, 4), Fraction(0), Fraction(9, 8))),
    ((Fraction(-4, 5), Fraction(1, 3), Fraction(6)), Fraction(-1, 2),
     (Fraction(2, 9), Fraction(5), Fraction(-1, 4), Fraction(-3)),
     (Fraction(1, 6), Fraction(-2), Fraction(7, 3), Fraction(1, 2))),
)


def _at(model, xi, point) -> CliffordElement:
    """The exact value of a polynomial ``XiRational`` at one point."""
    tang, xn, x, y = point
    bindings = {ind: GR(v) for atoms, vals in ((model.xi, tang), (model.X, x), (model.Y, y))
                for ind, v in zip(atoms, vals)}
    return sum((c.substitute(bindings) * GR(xn) ** m for m, c in xi.num.items()),
               CliffordElement.zero(model.registry))


@pytest.mark.parametrize("point", PAIR_POINTS)
def test_pair_is_the_covariable_pairing(model, point):
    tang, xn, x, _ = point
    covector = (*tang, xn)
    assert _at(model, model.pair(lambda a: a * a), point) == model.ident(
        sum(a * a * v for a, v in enumerate(covector, start=1)))
    assert _at(model, model.field(model.X), point) == model.ident(
        sum(u * v for u, v in zip(x, covector)))
    assert _at(model, model.pair(model.c), point) == sum(
        (model.c(a) * v for a, v in enumerate(covector, start=1)),
        CliffordElement.zero(model.registry))
    assert model.c_xi_num == model.pair(model.c)


@pytest.mark.parametrize("point", PAIR_POINTS)
def test_t_full_num_is_the_product_of_the_field_pairings(model, point):
    tang, xn, x, y = point
    tx, ty = (sum(u * v for u, v in zip(f, tang)) for f in (x, y))
    want = (tx + x[-1] * xn) * (ty + y[-1] * xn)
    assert _at(model, model.t_full_num, point) == model.ident(want)
    coefficients = ((model.t_hat, tx * ty), (model.c_hat, tx * y[-1] + x[-1] * ty),
                    (model.n_hat, x[-1] * y[-1]))
    for poly, value in coefficients:
        assert _at(model, XiRational.build(model.registry, {0: poly}), point) == model.ident(value)


def test_mixed_connection_family_holds_only_mixed_words(model):
    """Without a mixed family the connection is its leaf and perp families;
    adding ``smix`` adds exactly the half-weighted c(f_j) c(h_s) words."""
    for d in range(1, model.n + 1):
        diff = model.connection(d, model.smix) - model.connection(d)
        assert diff
        assert all(len(w) == 2 and w[0][0] == CF and w[1][0] == CN for w in diff.terms)
        assert diff == sum((model.c(j) * model.c(model.p + s) * model.var(ind) * Fraction(1, 2)
                            for (j, s, e), ind in model.smix.items() if e == d),
                           CliffordElement.zero(model.registry))
        assert not any(w in diff.terms for w in model.connection(d).terms)


ROW_SHAPES = ("sigma_hp", "normal_hp", "xy_pi", "xy", "sigma_div", "normal_div",
              "sigma_div_hp", "normal_div_hp")


def test_row_shapes_in_peel_order(model):
    assert tuple(model.row_shapes) == ROW_SHAPES


@pytest.mark.parametrize("name", ROW_SHAPES)
def test_every_row_shape_renders_as_itself(model, name):
    got = structured_render(model, row(model, **{name: GR(Fraction(3, 7), -2)}))
    assert got == "(3/7-2i)*" + model.row_shapes[name].text


def test_divergence_shape_needs_both_probes_to_agree(model):
    """A divergence row whose mixed-family atom is off is not div-shaped, so
    nothing is peeled and the whole row stays residual."""
    var = model.var
    off = (var(model.X[0]) * var(model.Y[0]) * var(model.nabtm[(1, 2, 1)])
           * var(model.pi) * var(model.omega3))
    got = structured_render(model, row(model, sigma_div=1) - off)
    assert got.startswith("residual[") and "div" not in got


def test_recorded_row_coefficients(model):
    hp, pi, om = model.hp, model.pi, model.omega3
    x1, y1 = model.registry.by_name("X1"), model.registry.by_name("Y1")
    x4, y4 = model.registry.by_name("X4"), model.registry.by_name("Y4")

    def coeffs(row):
        tang = row.coefficient_of({hp: 1, pi: 1, om: 1, x1: 1, y1: 1})
        norm = row.coefficient_of({hp: 1, pi: 1, om: 1, x4: 1, y4: 1})
        return tang.constant_part(), norm.constant_part()

    t2 = expected_d2d2(model)
    assert coeffs(t2["a-II"]) == (GR(Fraction(5, 24)), GR(Fraction(-1, 8)))
    assert coeffs(t2["b"]) == (GR(Fraction(11, 24)), GR(Fraction(-11, 8)))
    assert coeffs(t2["total"]) == (GR(Fraction(-5, 24)), GR(Fraction(-3, 2)))
    t3 = expected_d1d3(model)
    assert coeffs(t3["a-II"]) == (GR(Fraction(5, 16)), GR(Fraction(1, 16)))
    assert coeffs(t3["c"]) == (GR(Fraction(129, 320), Fraction(-44, 320)),
                               GR(Fraction(-245, 96), Fraction(26, 96)))


# the suite factor each pinned display reads: (plus, order, xn_order, nxi)
DISPLAY_FACTORS = {
    "boundary-d2d2": {"plus-part-base": (True, 0, 0, 0),
                      "plus-part-normal-jet": (True, 0, 1, 0),
                      "plus-part-first-derivative": (True, 0, 0, 1),
                      "plus-part-second-derivative": (True, 0, 0, 2),
                      "right-second-derivative": (False, -2, 0, 2)},
    "boundary-d1d3": {"plus-part-base": (True, 1, 0, 0),
                      "plus-part-first-derivative": (True, 1, 0, 1),
                      "plus-part-second-derivative": (True, 1, 0, 2),
                      "right-first-derivative": (False, -3, 0, 1),
                      "right-second-derivative": (False, -3, 0, 2)},
}


def test_display_checks_read_the_assembled_factor_table(suites, d2d2, d1d3, monkeypatch):
    """After assembly, every pinned display is an entry of the suite's factor
    table: no pi+ part or xn-covariable derivative is taken a second time."""
    calls = []
    for name in ("pi_plus", "xi_derivative"):
        def counted(self, _orig=getattr(XiRational, name), _name=name):
            calls.append(_name)
            return _orig(self)
        monkeypatch.setattr(XiRational, name, counted)
    for name, suite in suites.items():
        checks = display_checks(suite)
        assert calls == [], name
        assert {check.record_id for check in checks} == set(DISPLAY_FACTORS[name])
        for check in checks:
            assert check.engine is suite.factor(*DISPLAY_FACTORS[name][check.record_id])


# -- each jet and boundary factor on its partners' words --------------------
#
# The whole-factor route below is the derivation without the word
# restriction: every jet built whole, and every factor from its whole jet.


class _EveryWord:
    def __contains__(self, word):
        return True


@pytest.fixture(scope="module")
def whole_factor_suites(model):
    """Each boundary suite loaded afresh with every word cut turned off (at
    ``partner_words``, the one place the cuts read their words from), its
    cases assembled and each case's moved form evaluated."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "partner_words", lambda others, orders: _EveryWord())
        out = {}
        for name in BOUNDARY_SUITES:
            suite = load_suite(name, model)
            moved = [evaluate_case(suite, case, 1) for case in enumerate_cases(suite)]
            out[name] = (suite, assemble_boundary(suite), moved)
    return out


def _layout(f: XiRational):
    """Pole orders, then every xn power, word and monomial in order."""
    return (f.a, f.b, [(m, [(w, list(p.terms.items())) for w, p in e.terms.items()])
                       for m, e in f.num.items()])


def _partner_words(suite, plus: bool, order: int) -> set:
    """Every word the other side's jets carry at an order that meets
    ``order`` in some case (left r, right l: r + l + n - 1 >= 0)."""
    others = suite.right if plus else suite.left
    return {word for o, jets in others.items() if order + o + suite.model.n - 1 >= 0
            for jet in jets for elem in jet.num.values() for word in elem.terms}


def test_partner_words_keep_every_traced_integrand_and_value(suites, d2d2, d1d3,
                                                             whole_factor_suites):
    """Assembled from whole factors, every traced integrand keeps its pole
    orders, xn powers, words and monomials in order, and every case value
    of both shifts is the same, in monomial order."""
    for got in (d2d2, d1d3):
        suite = suites[got.suite]
        _, want, moved = whole_factor_suites[got.suite]
        traced = 0
        for g, w, m in zip(got.cases, want.cases, moved, strict=True):
            assert g.case == w.case == m.case
            assert list(g.value.terms.items()) == list(w.value.terms.items()), g.case
            assert (g.traced is None) == (w.traced is None)
            if w.traced is not None:
                assert _layout(g.traced) == _layout(w.traced), g.case
                traced += 1
            here = evaluate_case(suite, g.case, 1).value
            assert list(here.terms.items()) == list(m.value.terms.items()), g.case
        assert traced, got.suite


def test_restricted_factor_is_the_word_restriction_of_the_whole(suites, d2d2, d1d3,
                                                                whole_factor_suites):
    """Each factor equals the whole factor cut to its partners' words, in
    value and in pole orders; some factors do drop words."""
    dropped = 0
    for name, suite in suites.items():
        whole_suite = whole_factor_suites[name][0]
        reg = suite.model.registry
        assert set(suite._factors) == set(whole_suite._factors)
        for key, whole in whole_suite._factors.items():
            plus, order = key[0], key[1]
            words = _partner_words(suite, plus, order)
            num = {}
            for m, elem in whole.num.items():
                kept = {w: p for w, p in elem.terms.items() if w in words}
                if kept:
                    num[m] = CliffordElement(reg, kept)
            want = XiRational._canonical(reg, num, whole.a, whole.b) if num else XiRational.zero(reg)
            got = suite.factor(*key)
            assert got == want and (got.a, got.b) == (want.a, want.b), (name, key)
            dropped += got != whole
    assert dropped  # not vacuous: the restriction drops words somewhere


def _by_power(layout):
    """A ``_layout`` with its xn powers in rising order."""
    a, b, keys = layout
    return a, b, sorted(keys, key=lambda item: item[0])


def test_each_jet_is_built_on_its_partners_words(suites, whole_factor_suites):
    """Every jet of both suites is its whole jet cut to its partners' words,
    so ``Suite.factor`` reads it uncut; some jets are cut.  Pole orders, and
    the word and monomial order at each xn power, match exactly.  The key
    order matches on the right, whose factors feed the trace as they are;
    pi+ reads a left jet by power alone, so there the powers are compared
    in rising order."""
    cut = 0
    for name, suite in suites.items():
        whole_suite = whole_factor_suites[name][0]
        for plus, jets, whole_jets in ((True, suite.left, whole_suite.left),
                                       (False, suite.right, whole_suite.right)):
            assert list(jets) == list(whole_jets)
            layout = (lambda f: _by_power(_layout(f))) if plus else _layout
            for order in jets:
                words = _partner_words(suite, plus, order)
                for k, (jet, whole) in enumerate(zip(jets[order], whole_jets[order], strict=True)):
                    assert layout(jet) == layout(whole.on_words(words)), (name, order, k)
                    assert jet.on_words(words) is jet
                    cut += whole.on_words(words) is not whole
    assert cut == 4  # d2d2 left -1 and right -3, d1d3 left 0 and right -4


def test_display_factors_are_the_unrestricted_derivation(suites, d2d2, d1d3,
                                                         whole_factor_suites):
    """Every factor a display check reads comes from a jet that the word
    restriction returns as the same object, so it is the whole derivation."""
    for name, suite in suites.items():
        whole_suite = whole_factor_suites[name][0]
        for plus, order, xn_order, nxi in DISPLAY_FACTORS[name].values():
            jet = (suite.left if plus else suite.right)[order][xn_order]
            assert jet.on_words(_partner_words(suite, plus, order)) is jet
            key = (plus, order, xn_order, nxi)
            assert suite.factor(*key) == whole_suite.factor(*key), (name, key)


def test_suite_factor_table_is_not_compared(model, suites, d2d2):
    """A filled factor table leaves the suite equal to a freshly loaded one."""
    suite = suites["boundary-d2d2"]
    assert suite._factors
    fresh = load_suite("boundary-d2d2", model)
    assert not fresh._factors and fresh == suite


def test_boundary_jets_pinned(whole_factor_suites):
    """Every whole jet of both suites, by suite, side, order and index
    (``test_each_jet_is_built_on_its_partners_words`` ties the built jets to
    these).  ``render`` sorts its terms, so this pins values and pole
    orders, not key order (the report pin guards what of that order the
    report reads)."""
    lines = [f"{name}/{side}/{order}/{k}: {jet.render()}"
             for name, (suite, _, _) in whole_factor_suites.items()
             for side, jets in (("left", suite.left), ("right", suite.right))
             for order in sorted(jets, reverse=True)
             for k, jet in enumerate(jets[order])]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "86ca32f76cbfb5482899756a0659f3ab83af2952dede0161cb91d920d1e3a9b5")


def test_second_composition_builds_the_inverse_square_symbol_once(model, monkeypatch):
    calls = []

    def counted(m, _orig=reference.inverse_square):
        calls.append(m)
        return _orig(m)
    monkeypatch.setattr(reference, "inverse_square", counted)
    reference.symbols_d2d2(model)
    assert calls == [model]


def test_compose_with_the_identity_returns_the_other_top_orders(model):
    """The identity's jets on either side give back the other table's top
    order, its d_xn jet (zero where the table has none) and the next order."""
    reg = model.registry
    zero = XiRational.zero(reg)
    one = {0: (XiRational.build(reg, {0: 1}), zero), -1: (zero,)}
    tables = (reference.nabla_jets(model), reference.inverse_first(model),
              reference.inverse_square(model))
    for jets in tables:
        top = max(jets)
        (p, *dp), (p1, *_) = jets[top], jets[top - 1]
        want = {top: (p, dp[0] if dp else zero), top - 1: (p1,)}
        words = reference.partner_words(jets, (top - 1,))
        assert reference.compose(jets, one, words) == want
        if dp:
            assert reference.compose(one, jets, words) == want
        # on part of the words, the next order is that part of p1, made
        # canonical (the part may share a pole factor that p1 as a whole does not)
        part = set(list(words)[:len(words) // 2])
        cut = p1.on_words(part)
        assert reference.compose(jets, one, part)[top - 1] == (
            XiRational(reg, cut.num, cut.a, cut.b),)


def test_compose_by_hand(model):
    """xn against an order-0 operator with d_xn jet D: the top d_xn jet is
    xn*D, and the next order is the Leibniz term d_xi_n(xn) D (-i) = -i D."""
    reg = model.registry
    zero, xn = XiRational.zero(reg), XiRational.build(reg, {1: 1})
    d = XiRational.build(reg, {0: model.hp_poly, 1: model.cdxn}, 1, 0)
    right = {0: (XiRational.build(reg, {0: 1}), d), -1: (zero,)}
    got = reference.compose({1: (xn,), 0: (zero,)}, right, {(), *model.cdxn.terms})
    assert got == {1: (xn, xn * d), 0: (d * GR(0, -1),)}
    # on the identity word alone, the next order keeps hp and drops c(dxn)
    got = reference.compose({1: (xn,), 0: (zero,)}, right, {()})
    assert got[0] == (XiRational.build(reg, {0: model.hp_poly * GR(0, -1)}, 1, 0),)


def test_compose_against_a_top_order_only_table_gives_the_top_entry(model):
    """Either table cut to its top order skips the next order and gives
    exactly the full composition's top entry, d_xn jet included, with its
    numerator keys in the same order (the report sums in that order)."""
    nabla, inv1, inv2 = (reference.nabla_jets(model), reference.inverse_first(model),
                         reference.inverse_square(model))
    for left, right in ((inv1, inv2), (nabla, inv2), (nabla, inv1)):
        full = reference.compose(left, right, {()})
        want = {max(full): full[max(full)]}
        for cut_left, cut_right in ((left, {max(right): right[max(right)]}),
                                    ({max(left): left[max(left)]}, right)):
            got = reference.compose(cut_left, cut_right, {()})
            assert got == want
            assert [list(jet.num) for jet in got[max(full)]] == \
                [list(jet.num) for jet in want[max(full)]]


# -- the parametrix rule and the known vanishing --------------------------


def _on_sphere(model, jet: XiRational) -> XiRational:
    """``jet`` at xi' = (2/3, 1/3, 2/3), a point of the unit sphere: the
    jets' poles take |xi'| = 1, but their numerators keep |xi'|^2 unreduced."""
    return jet.substitute({ind: GR(Fraction(v, 3)) for ind, v in zip(model.xi, (2, 1, 2))})


def _operator_symbols(model):
    """The top two orders of sigma(D), with the d_xn jet i(hp/2) c(xi') of
    its top, sigma(D^2) and sigma(D^3) at the base point, the last with
    ``sigma2_cube_num`` as its second order."""
    reg = model.registry
    icxi, square = model.c_xi_num * GR(0, 1), XiRational.build(reg, {0: 1, 2: 1})
    bracket = model.pair(lambda d: model.connection(d, model.nabtm)) * (-2) + model.collar_bracket
    jet = XiRational.build(reg, {0: model.cxi * model.hp_poly * GR(0, Fraction(1, 2))})
    return ({1: (icxi, jet), 0: (XiRational.build(reg, {0: model.sigma0_base}),)},
            {2: (square,), 1: (bracket * GR(0, 1),)},
            {3: (icxi * square,), 2: (reference.sigma2_cube_num(model),)})


def test_parametrix_inverts_the_first_and_second_order_symbols(model):
    """D o D^-1 and D^2 o D^-2 read 1 at order 0 and 0 at order -1: the next
    orders of ``inverse_first`` and ``inverse_square`` are the parametrix
    of the operator's symbol.  D o D^-1 reads |xi|^2/|xi|^2 at order 0, so
    it reads 1 and 0 only on the unit sphere."""
    reg = model.registry
    one, zero = XiRational.build(reg, {0: 1}), XiRational.zero(reg)
    sigma_d, sigma_d2, _ = _operator_symbols(model)
    first = reference.compose(sigma_d, reference.inverse_first(model), None)
    assert first[0][0] != one
    assert [_on_sphere(model, first[k][0]) for k in (0, -1)] == [one, zero]
    assert first[-1][0]  # not zero before substitution
    second = reference.compose(sigma_d2, reference.inverse_square(model), None)
    assert [second[k][0] for k in (0, -1)] == [one, zero]


def test_sigma_d_squared_by_compose_departs_from_the_square_table(model):
    """compose(sigma(D), sigma(D)), with the sigma(D) that ``inverse_first``
    composes, against the sigma(D^2) table that ``inverse_square`` inverts,
    pinned as it stands.  The top orders agree only on the unit sphere, as
    |xi'|^2 stays unreduced.  Order 1 differs in 52 monomials, 13 on the
    identity word and 39 on six bivector words; at xn^1 the identity word
    differs by -i(3/2 hp + div).  So sigma(D^2) is not yet ``compose`` of
    sigma(D)."""
    sigma_d, sigma_d2, _ = _operator_symbols(model)
    top = reference.compose(sigma_d, reference.inverse_square_top(model), ())
    assert reference.parametrix(sigma_d, top) == reference.inverse_first(model)
    square = reference.compose(sigma_d, sigma_d, None)
    assert square[2][0] != sigma_d2[2][0]
    assert _on_sphere(model, square[2][0]) == _on_sphere(model, sigma_d2[2][0])
    diff = square[1][0] - sigma_d2[1][0]
    assert (diff.a, diff.b, sorted(diff.num)) == (0, 0, [0, 1])
    counts: dict = {}
    for elem in diff.num.values():
        for word, poly in elem.terms.items():
            counts[word] = counts.get(word, 0) + len(poly.terms)
    assert (counts.pop(()), len(counts), sum(counts.values())) == (13, 6, 39)
    assert all(len(word) == 2 for word in counts)
    identity = diff.num[1].terms[()]
    assert identity == -(model.div_poly + model.hp_poly * Fraction(3, 2)) * GR(0, 1)
    assert identity.render() == "-3/2i*hp + 1i*wP12d3 + 1i*wM12d1 + 1i*wM22d2"


def test_inverse_cube_sigma_m4_departs_from_the_parametrix_rule(model):
    """D^3 o D^-3, with D^-3's sigma_-4 the hand-written ``sigma_m4_cube``,
    reads 1 at order 0 but not 0 at order -1, even on the unit sphere, where
    every coefficient of the residual carries the collar rate hp.  The first
    half of ``sigma_m4_cube``, c(xi) N c(xi) over (4, 4) with N =
    ``sigma2_cube_num``, is the rule's -q sigma_2 q exactly; its second half
    is not the rule's Leibniz term -q (-i) d_xi_n sigma_3 dq, whose poles
    are (5, 5)."""
    reg = model.registry
    _, _, sigma_d3 = _operator_symbols(model)
    top = reference.compose(reference.inverse_first(model), reference.inverse_square_top(model),
                            None)
    m4 = reference.sigma_m4_cube(model, None)
    cube = reference.compose(sigma_d3, {-3: top[-3], -4: (m4,)}, None)
    assert _on_sphere(model, cube[0][0]) == XiRational.build(reg, {0: 1})
    residual = _on_sphere(model, cube[-1][0])
    assert (residual.a, residual.b) == (2, 2)
    assert sum(len(poly.terms) for elem in residual.num.values()
               for poly in elem.terms.values()) == 10
    assert residual.render() == (
        "[([(1+1i)*hp]c(f1).c(h2) + [(1/2+1/2i)*hp]c(f2).c(h2) + [(1+1i)*hp]c(h1).c(h2))"
        " + ([(5+5i)*hp])xn + ([(-4/3-1i)*hp]c(f1).c(h2) + [(-2/3-1/2i)*hp]c(f2).c(h2)"
        " + [(-4/3-1i)*hp]c(h1).c(h2))xn^2 + ([-1/3*hp]c(f1).c(h2) + [-1/6*hp]c(f2).c(h2)"
        " + [-1/3*hp]c(h1).c(h2))xn^4] / (xn-i)^2(xn+i)^2")

    (q, dq), cxin = top[-3], model.c_xi_num
    first = XiRational(reg, (cxin * reference.sigma2_cube_num(model) * cxin).num, 4, 4)
    assert first == -(q * sigma_d3[2][0] * q)
    second, leibniz = m4 - first, -(q * (sigma_d3[3][0].xi_derivative() * dq)) * GR(0, -1)
    assert ((second.a, second.b), (leibniz.a, leibniz.b)) == ((4, 4), (5, 5))
    assert _on_sphere(model, second) != _on_sphere(model, leibniz)


WANG_LABELS = {(-1, -1, 0, 0, 1): "a-I", (-1, -1, 0, 1, 0): "a-II",
               (-1, -1, 1, 0, 0): "a-III", (-1, -2, 0, 0, 0): "b", (-2, -1, 0, 0, 0): "c"}


def _wang_boundary(model, inverse):
    return assemble_boundary(reference.Suite("wang", model, inverse, inverse, WANG_LABELS, {}))


def test_boundary_term_of_the_inverse_squared_vanishes(model):
    """Wang (Lett. Math. Phys. 80, 2007, "Gravity and the noncommutative
    residue for manifolds with boundary"), as recalled, not reread: in
    dimension 4, the boundary term of Wres[pi+ D^-1 o pi+ D^-1] vanishes.

    With ``inverse_first`` on both sides the cases (-1, -1) sum to 0 and the
    two cross cases cancel.  The total sees the Clifford shape of sigma_-2,
    not its coefficients: an odd xn c(h_2) term moves it, while an added
    c(f_1) term or an even word leaves it at 0."""
    reg, inverse = model.registry, reference.inverse_first(model)
    result = _wang_boundary(model, inverse)
    assert len(result.cases) == 7
    groups, zero = result.groups, ScalarPoly.zero(reg)
    pi_omega = model.var(model.pi) * model.var(model.omega3)
    cross = pi_omega * (model.div_poly - model.hp_poly * Fraction(3, 4))
    assert groups["a-I"] + groups["a-II"] + groups["a-III"] == zero
    assert (groups["b"], groups["c"], result.total) == (cross, -cross, zero)

    hp = model.hp_poly
    for extra, total in ((XiRational(reg, {1: model.c(4) * hp}, 2, 2), pi_omega * hp * GR(0, -1)),
                         (XiRational(reg, {0: model.c(1) * hp}, 2, 2), zero),
                         (XiRational(reg, {0: model.c(1) * model.c(2) * hp}, 2, 2), zero)):
        mutated = {**inverse, -2: (inverse[-2][0] + extra,)}
        assert _wang_boundary(model, mutated).total == total


def test_display_checks_all_reproduce(suites):
    seen = []
    for name, suite in suites.items():
        checks = display_checks(suite)
        assert len(checks) == 5, name
        for check in checks:
            assert check.engine == check.encoded, (name, check.record_id)
            seen.append((name, check.record_id))
    assert len(set(seen)) == 10


# -- recorded source integrands (scalar already traced, still to be integrated)


def source_c_integrand_d2d2(model) -> XiRational:
    """The recorded final-case integrand of the second composition, encoded
    as recorded; integrating it reproduces that table's final-case row.

    It exceeds the engine's traced integrand of the same case (the trace of
    pi+ of the order -1 left jet against the xn-covariable derivative of the
    order -2 right jet, keeping its collar-rate terms even in xi') by

        hp * (-2i xn) * [2 nn (2 xn - i)(xn - i) - i t (xn - 3i)]
            / ((xn - i)^5 (xn + i)^2),

    with ``t``, ``nn`` the tangential and normal quadratic forms; it also
    has no term in the normal xy-derivative atom."""
    hp = model.hp_poly
    t, nn = model.t_hat, model.n_hat
    num = {
        1: model.ident(t * (hp * GR(0, 18)) + nn * (hp * GR(0, 4))),
        2: model.ident(t * (hp * GR(-10)) + nn * (hp * GR(-28))),
        3: model.ident(nn * (hp * GR(0, -20))),
    }
    return XiRational.build(model.registry, num, 5, 2)


def source_c_bracket_d1d3(model) -> XiRational:
    """Rational bracket shared by the recorded final-case integrand of the
    dual composition (coefficient of the tangential quadratic block)."""
    reg = model.registry
    one = XiRational.build
    part1 = one(reg, {0: 2, 1: GR(0, 2)}, 4, 2)
    part2 = one(reg, {0: -8, 1: GR(4, -32), 2: GR(24, 4)}, 6, 4)
    part3 = one(reg, {1: -2, 2: GR(0, -2)}, 5, 3)
    return part1 + part2 + part3


def test_recorded_final_case_integrand_second_composition(model):
    f = source_c_integrand_d2d2(model)
    line = f.integrate(model.pi).scalar_part()
    value = integrate_sphere(line, model.xi, model.omega3) * GR(0, -1)
    assert value == expected_d2d2(model)["c"]


def test_recorded_final_case_integrand_gap_second_composition(model, d2d2):
    """The recorded integrand is the engine's traced final-case integrand
    (collar-rate terms even in xi') plus the numerator the docstring of
    ``source_c_integrand_d2d2`` records."""
    (case,) = [res for res in d2d2.cases if res.label == "c"]
    xi_ids = {ind.id for ind in model.xi}
    xy_ids = {ind.id for ind in model.dXY}

    def even_collar_part(coeff):
        kept = {mono: v for mono, v in coeff.scalar_part().terms.items()
                if not any(iid in xy_ids for iid, _ in mono)
                and sum(e for iid, e in mono if iid in xi_ids) % 2 == 0}
        return model.ident(ScalarPoly(model.registry, kept))

    engine = case.traced.map_coeffs(even_collar_part)
    hp, t, nn = model.hp_poly, model.t_hat, model.n_hat
    # -2i xn [2 nn (2 xn - i)(xn - i) - i t (xn - 3i)], expanded in xn
    bracket = {0: nn * GR(-2) - t * GR(3), 1: nn * GR(0, -6) + t * GR(0, -1),
               2: nn * GR(4)}
    gap = XiRational.build(model.registry, {k + 1: model.ident(v * (hp * GR(0, -2)))
                                            for k, v in bracket.items()}, 5, 2)
    assert source_c_integrand_d2d2(model) == engine + gap


def test_recorded_bracket_dual_composition_frozen_value(model):
    """The recorded rational bracket integrates to (19/8 + i/32)*pi; the
    engine's final-case row is not a multiple of it, so only this frozen
    integral is asserted."""
    got = source_c_bracket_d1d3(model).integrate(model.pi).scalar_part()
    want = model.var(model.pi) * GR(Fraction(19, 8), Fraction(1, 32))
    assert got == want


# -- frozen re-derivation oracles -------------------------------------------


def _engine_rows(result):
    rows = dict(result.groups)
    rows["total"] = result.total
    return rows


def test_engine_rows_match_frozen_fingerprints(model, d2d2, d1d3):
    table = derived_fingerprints()
    for suite_name, result in (("boundary-d2d2", d2d2), ("boundary-d1d3", d1d3)):
        rows = _engine_rows(result)
        for recipe, offset, mul in FINGERPRINT_RECIPES:
            frozen = table[suite_name][recipe]
            assert set(frozen) == set(rows)
            for label, row in rows.items():
                got = row_fingerprint(model, row, offset, mul)
                assert got == frozen[label], (suite_name, recipe, label)


def test_dual_composition_structure_decomposition(model, d1d3):
    """Engine rows split into the legible quadratic/velocity/divergence part
    plus a residual built purely from connection atoms."""
    structure = derived_d1d3_structure(model)
    hp_id = model.hp.id
    xdy_ids = {model.registry.by_name(f"XdY{a}").id for a in (1, 2, 3, 4)}
    marker_ids = {model.pi.id, model.omega3.id}
    rows = _engine_rows(d1d3)
    for label, legible in structure.items():
        residual = rows[label] - legible
        assert not residual.is_zero(), label
        for mono, _ in residual.terms.items():
            ids = {iid for iid, _ in mono}
            assert hp_id not in ids, label
            assert not (ids & xdy_ids), label
            assert marker_ids <= ids, label
            kinds = {model.registry[iid].kind for iid in ids - marker_ids}
            assert KIND_CONN in kinds, label
            assert kinds <= {KIND_CONN, KIND_X, KIND_Y}, (label, kinds)


def test_builtin_waivers_cover_disputed_rows():
    got = {(w.suite, w.label) for w in builtin_waivers()}
    assert got == {
        ("boundary-d2d2", "c"), ("boundary-d2d2", "total"),
        ("boundary-d1d3", "b"), ("boundary-d1d3", "c"),
        ("boundary-d1d3", "total"),
    }
    for w in builtin_waivers():
        assert w.reason


def test_interior_expected_closed_forms():
    for (p, q), einstein in (((2, 2), Fraction(8, 3)),
                             ((4, 0), Fraction(4, 3)),
                             ((2, 4), Fraction(16, 3))):
        table = interior_expected(p, q)
        assert table["einstein"] == einstein
        assert table["scalar"] == Fraction(2) ** (p // 2 + q - 3)
        assert table["two-form"] == 0
        assert table["endo-trace"] == Fraction(2) ** (p // 2 + q - 2)


def test_load_suite_rejects_unknown():
    with pytest.raises(KeyError):
        load_suite("no-such-suite")
