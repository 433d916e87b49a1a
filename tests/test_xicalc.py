import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from wresidue.clifford import CF, HC, CliffordElement
from wresidue.scalars import GR, GR_I, KIND_MARKER, KIND_X, Registry, ScalarPoly
from wresidue.xicalc import (
    InsufficientDecayError,
    XiRational,
    _num_mul_linear,
    _synthetic_div,
    _vanishes_at,
    pi_minus,
    pi_plus,
    xi_derivative,
)


@pytest.fixture()
def reg():
    return Registry()


@pytest.fixture()
def pi_ind(reg):
    return reg.add("pi", KIND_MARKER)


def _const(reg, value):
    return CliffordElement.identity(reg, ScalarPoly.const(reg, value))


def _random_gr(rng):
    return GR(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
              Fraction(rng.randint(-8, 8), rng.randint(1, 5)))


def _random_decaying(reg, rng, clifford=True):
    a = rng.randint(1, 3)
    b = rng.randint(max(0, 2 - a), 3)
    num = {}
    for k in range(a + b - 1):
        coeff = _random_gr(rng)
        if coeff.is_zero():
            continue
        elem = _const(reg, coeff)
        if clifford and rng.random() < 0.5:
            elem = elem * CliffordElement.generator(reg, rng.choice((CF, HC)), 1)
        num[k] = elem
    return XiRational.build(reg, num, a, b)


def _random_any(reg, rng):
    """Possibly non-decaying: numerator degree may reach the pole order."""
    a = rng.randint(0, 3)
    b = rng.randint(0, 3)
    num = {}
    for k in range(a + b + 1):
        coeff = _random_gr(rng)
        if not coeff.is_zero():
            num[k] = _const(reg, coeff)
    return XiRational.build(reg, num, a, b)


# -- projection properties ---------------------------------------------------


def test_pi_plus_idempotent_and_decomposition(sweep, reg):
    rng = random.Random(101)
    for k in range(300):
        assert sweep.projection(rng, reg, None), k


def test_pi_minus_annihilated_by_pi_plus(reg):
    rng = random.Random(103)
    for _ in range(300):
        f = _random_decaying(reg, rng)
        assert pi_plus(pi_minus(f)).is_zero()


def test_decaying_input_splits_without_polynomial_part(reg):
    rng = random.Random(107)
    for _ in range(300):
        f = _random_decaying(reg, rng)
        assert not f.polynomial_part()
        assert pi_plus(f) + pi_minus(f) == f


# -- derivatives -------------------------------------------------------------


def test_leibniz_rule(reg):
    rng = random.Random(109)
    for _ in range(200):
        f = _random_decaying(reg, rng, clifford=False)
        g = _random_decaying(reg, rng, clifford=False)
        lhs = xi_derivative(f * g)
        rhs = xi_derivative(f) * g + f * xi_derivative(g)
        assert lhs == rhs


def test_derivative_lowers_by_one_order(reg):
    f = XiRational.build(reg, {0: 1}, 1, 1)  # 1/(xn^2+1)
    df = xi_derivative(f)
    assert df == XiRational.build(reg, {1: GR(-2)}, 2, 2)


def test_integral_of_derivative_vanishes(sweep, reg, pi_ind):
    rng = random.Random(113)
    for k in range(200):
        assert sweep.derivative_integral(rng, reg, pi_ind), k


# -- line integrals ----------------------------------------------------------


def test_exact_integral_table(reg, pi_ind):
    pi_poly = ScalarPoly.var(reg, pi_ind)
    cases = [
        ({0: 1}, 1, 1, GR(1)),          # 1/(xn^2+1)        -> pi
        ({1: 1}, 2, 2, GR(0)),          # xn/(xn^2+1)^2     -> 0
        ({0: 1}, 2, 2, GR(Fraction(1, 2))),   # 1/(xn^2+1)^2 -> pi/2
        ({2: 1}, 2, 2, GR(Fraction(1, 2))),   # xn^2/(xn^2+1)^2 -> pi/2
        ({0: 1}, 2, 1, GR(0, Fraction(1, 2))),  # 1/((xn-i)^2(xn+i)) -> i*pi/2
    ]
    for num, a, b, coeff in cases:
        got = XiRational.build(reg, num, a, b).integrate(pi_ind)
        want = CliffordElement.identity(reg, pi_poly * coeff)
        if coeff.is_zero():
            assert got.is_zero()
        else:
            assert got == want


def test_insufficient_decay_rejected(reg, pi_ind):
    f = XiRational.build(reg, {0: 1, 1: 1}, 1, 1)
    with pytest.raises(InsufficientDecayError):
        f.integrate(pi_ind)


def test_integral_against_quadrature(sweep, reg, pi_ind):
    rng = random.Random(127)
    for k in range(40):
        assert sweep.quadrature(rng, reg, pi_ind), k


# -- representation ----------------------------------------------------------


def test_build_canonicalizes_shared_poles(reg):
    # (xn - i)/((xn - i)(xn + i)) reduces to 1/(xn + i)
    f = XiRational.build(reg, {0: GR(0, -1), 1: 1}, 1, 1)
    assert f == XiRational.build(reg, {0: 1}, 0, 1)


def _random_numerator(reg, rng, letters):
    """Up to four powers of xn whose coefficients mix Clifford words over
    ``letters`` and monomials in two atoms."""
    from wresidue.scalars import KIND_CONN
    atoms = [ScalarPoly.var(reg, reg.get_or_add(f"w{k}F", KIND_CONN)) for k in range(2)]
    num = {}
    for m in range(rng.randint(1, 4)):
        elem = CliffordElement.zero(reg)
        for _ in range(rng.randint(0, 3)):
            word = CliffordElement.generator(reg, *rng.choice(letters))
            scalar = ScalarPoly.const(reg, _random_gr(rng))
            if rng.random() < 0.5:
                scalar = scalar * rng.choice(atoms)
            elem = elem + (word if rng.random() < 0.5 else _const(reg, 1)) * scalar
        if elem:
            num[m] = elem
    return num


def _value_at(num, reg, point):
    """The numerator at xn = point, summed power by power."""
    acc = CliffordElement.zero(reg)
    for m, coeff in num.items():
        acc = acc + coeff * point ** m
    return acc


def _times_linear(f, reg, k_plus, k_minus):
    """``f * (xn - i)^k_plus * (xn + i)^k_minus`` for a polynomial ``f``."""
    for c, k in ((GR(0, 1), k_plus), (GR(0, -1), k_minus)):
        for _ in range(k):
            f = XiRational.build(reg, {0: -c, 1: 1}) * f
    return f


# the sweep fixture only hands over a module, so its examples may share it
_SHARES_SWEEP = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SHARES_SWEEP
@given(seed=st.integers(0, 2**32), k_plus=st.integers(0, 3), k_minus=st.integers(0, 3),
       a=st.integers(0, 3), b=st.integers(0, 3))
def test_construction_strips_exactly_the_shared_factors(sweep, seed, k_plus, k_minus, a, b):
    reg = Registry()
    num = _random_numerator(reg, random.Random(seed), sweep.LETTERS)
    assume(num and _value_at(num, reg, GR(0, 1)) and _value_at(num, reg, GR(0, -1)))
    poly = _times_linear(XiRational.build(reg, num), reg, k_plus, k_minus)
    got = XiRational(reg, poly.num, a, b)
    strip_plus, strip_minus = min(a, k_plus), min(b, k_minus)
    want = _times_linear(XiRational.build(reg, num), reg,
                         k_plus - strip_plus, k_minus - strip_minus)
    assert (got.a, got.b) == (a - strip_plus, b - strip_minus)
    assert got.num == want.num


def _layout(num):
    """Every key of a numerator in order: powers, words, monomials and values."""
    return [(m, [(w, list(p.terms.items())) for w, p in e.terms.items()])
            for m, e in num.items()]


def _mul_linear_by_product(num, reg, sign):
    """``num * (xn - sign * i)`` through general coefficient products."""
    c = GR_I * sign
    out = {}
    for m, coeff in num.items():
        out[m + 1] = out.get(m + 1, CliffordElement.zero(reg)) + coeff
        out[m] = out.get(m, CliffordElement.zero(reg)) - coeff * c
    return {m: e for m, e in out.items() if e}


def _div_linear_by_product(num, reg, sign):
    """``num / (xn - sign * i)`` without remainder, through general products."""
    c, quot, carry = GR_I * sign, {}, CliffordElement.zero(reg)
    for m in range(max(num, default=0), 0, -1):
        carry = carry * c + num.get(m, CliffordElement.zero(reg))
        if carry:
            quot[m - 1] = carry
    return quot


def _assert_rotation_is_the_product(num, reg):
    for sign in (1, -1):
        assert _layout(_num_mul_linear(num, reg, sign)) == \
            _layout(_mul_linear_by_product(num, reg, sign))
        assert _layout(_synthetic_div(num, reg, sign)) == \
            _layout(_div_linear_by_product(num, reg, sign))


@_SHARES_SWEEP
@given(seed=st.integers(0, 2**32))
def test_pole_factor_rotation_equals_the_product(sweep, seed):
    reg = Registry()
    _assert_rotation_is_the_product(
        _random_numerator(reg, random.Random(seed), sweep.LETTERS), reg)


def test_pole_factor_rotation_equals_the_product_on_jets(suites):
    suite = suites["boundary-d2d2"]
    for jets in (*suite.left.values(), *suite.right.values()):
        for f in jets:
            _assert_rotation_is_the_product(f.num, f.registry)


@_SHARES_SWEEP
@given(seed=st.integers(0, 2**32), a=st.integers(0, 4), b=st.integers(0, 4))
def test_residue_is_the_minus_one_laurent_coefficient(sweep, seed, a, b):
    reg = Registry()
    rng = random.Random(seed)
    num = _random_numerator(reg, rng, sweep.LETTERS)
    for _ in range(rng.randint(0, 2)):
        num = {m + 1: c for m, c in num.items()}
    f = XiRational(reg, num, a, b)
    want = f.laurent(True).get(-1, CliffordElement.zero(reg))
    got = f.residue_at_plus_i()
    assert got == want
    assert [(w, list(c.terms)) for w, c in got.terms.items()] == \
        [(w, list(c.terms)) for w, c in want.terms.items()]


def test_word_restricted_product_is_the_canonical_cut_product(reg):
    """On a word set, the product of two elements is the whole product's
    part on those words, made canonical: the part may share a pole factor
    that the whole does not."""
    rng = random.Random(47)
    letters = ((CF, 1), (CF, 2), (HC, 1))
    words = [(), ((CF, 1),), ((CF, 2),), ((HC, 1),), ((CF, 1), (CF, 2)), ((CF, 1), (HC, 1))]
    for _ in range(100):
        x, y = (XiRational(reg, _random_numerator(reg, rng, letters), rng.randint(0, 2),
                           rng.randint(0, 2)) for _ in range(2))
        keep = set(rng.sample(words, rng.randint(0, len(words))))
        cut = (x * y).on_words(keep)
        assert x.mul_on_words(y, keep) == XiRational(reg, cut.num, cut.a, cut.b)
    # c(f1) (xn - i) + 1 over (xn - i) against 1: its c(f1) part alone
    e = CliffordElement.generator(reg, CF, 1)
    f = XiRational(reg, {1: e, 0: e * GR(0, -1) + CliffordElement.identity(reg)}, 1, 0)
    got = f.mul_on_words(XiRational.build(reg, {0: 1}), {((CF, 1),)})
    assert got == XiRational(reg, {0: e}) and (got.a, got.b) == (0, 0)


def test_on_words_keeps_pole_orders_and_order(reg):
    """A word restriction is taken as is: the part on one word may share a
    linear factor with the denominator, and the copy keeps it, with the
    element's own key order; nothing to drop gives the element itself."""
    e = CliffordElement.generator(reg, CF, 1)
    # 1 + e (xn - i), over (xn - i): canonical, but its e part is divisible
    f = XiRational(reg, {1: e, 0: e * GR(0, -1) + CliffordElement.identity(reg)}, 1, 0)
    assert (f.a, f.b) == (1, 0)
    cut = f.on_words({((CF, 1),)})
    assert (cut.a, cut.b) == (1, 0) and list(cut.num) == [1, 0]
    assert XiRational(reg, cut.num, cut.a, cut.b) == XiRational(reg, {0: e})
    assert f.on_words({(), ((CF, 1),), ((CF, 2),)}) is f
    assert f.on_words(set()).is_zero()


def test_substitute_and_coeff_derivative(reg, pi_ind):
    from wresidue.scalars import KIND_CONN
    w = reg.add("w0F", KIND_CONN)
    f = XiRational.build(reg, {0: _const(reg, GR(1)) * ScalarPoly.var(reg, w)}, 1, 1)
    assert f.coeff_derivative(w) == XiRational.build(reg, {0: 1}, 1, 1)
    assert f.substitute({w: GR(5)}) == XiRational.build(reg, {0: 5}, 1, 1)


def test_render_mentions_poles(reg):
    f = XiRational.build(reg, {0: 1}, 2, 1)
    text = f.render()
    assert "xn" in text


def _tower(reg):
    """A nonzero value of each exact type, lowest first, a zero XiRational
    (which has no coefficient to try an operand on), and two foreign ones."""
    x = ScalarPoly.var(reg, reg.add("x", KIND_X))
    cliff = (CliffordElement.generator(reg, CF, 1) * x
             + CliffordElement.generator(reg, HC, 1) - 2)
    return {"GR": GR(Fraction(1, 3), -2), "ScalarPoly": x * GR(1, 2) + 3,
            "CliffordElement": cliff, "XiRational": XiRational.build(reg, {0: cliff, 2: x}, 1, 2),
            "XiRational-zero": XiRational.zero(reg), "str": "x", "float": 1.5}


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_EXACT = ("GR", "ScalarPoly", "CliffordElement", "XiRational", "XiRational-zero")


@pytest.mark.parametrize("low, op, high", [
    ("GR", "*", "XiRational"), ("ScalarPoly", "*", "XiRational"),
    ("CliffordElement", "*", "XiRational"), ("GR", "*", "CliffordElement"),
    ("ScalarPoly", "*", "CliffordElement"), ("ScalarPoly", "+", "CliffordElement"),
    ("ScalarPoly", "+", "XiRational"), ("GR", "+", "XiRational"),
    ("CliffordElement", "+", "XiRational"), ("GR", "*", "XiRational-zero"),
    *[(foreign, op, kind) for foreign in ("str", "float") for kind in _EXACT for op in _OPS]])
def test_mixed_operands_lift_the_lower_one(reg, low, op, high):
    """Either order of a mixed expression equals the same expression with the
    lower operand lifted by hand, and has the higher type; a foreign operand
    raises TypeError on either side."""
    fn = _OPS[op]
    values = _tower(reg)
    lower, higher = values[low], values[high]
    if low in ("str", "float"):
        for args in ((lower, higher), (higher, lower)):
            with pytest.raises(TypeError):
                fn(*args)
        return
    if high == "CliffordElement":
        lifted = CliffordElement.identity(reg, lower)
    else:
        lifted = XiRational.build(reg, {0: lower})
    for got, want in ((fn(lower, higher), fn(lifted, higher)),
                      (fn(higher, lower), fn(higher, lifted))):
        assert type(got) is type(higher)
        assert got == want


# -- fast paths against the code they replace ---------------------------------


def _one_pole(f):
    return (f.a == 0) != (f.b == 0)


def _assert_derivative_is_the_formula(f):
    """The one-pole derivative equals the two-pole formula stripped back to
    canonical form, in value and in the order of its xn powers."""
    got, want = f.xi_derivative(), f._two_pole_derivative()
    assert got == want
    assert list(got.num) == list(want.num)


def test_one_pole_derivative_is_the_formula_on_every_suite_factor(suites, d2d2, d1d3):
    checked = 0
    for suite in suites.values():
        for f in list(suite._factors.values()):
            if not (f.a and f.b):
                _assert_derivative_is_the_formula(f)
                checked += _one_pole(f)
    assert checked == 14  # the seven pi+ entries of each suite


def test_one_pole_derivative_is_the_formula_on_seeded_elements(sweep):
    reg = Registry()
    rng = random.Random(7)
    poles = []
    while len(poles) < 200:
        f = sweep._decaying(reg, rng, with_generators=True) if len(poles) % 2 else sweep._any(reg, rng)
        if _one_pole(f):
            _assert_derivative_is_the_formula(f)
            poles.append(f.a > 0)
    assert 0 < sum(poles) < len(poles)  # poles at +i and at -i alone


def test_one_pole_derivative_keeps_every_traced_integrand(model, d2d2, d1d3, monkeypatch):
    """Assembled with the two-pole formula in place of the one-pole path,
    every traced integrand has the same xn powers, words and monomials in
    the same order: the report's floats are summed in that order."""
    from wresidue.boundary import assemble_boundary
    from wresidue.reference import load_suite

    monkeypatch.setattr(XiRational, "_one_pole_derivative", XiRational._two_pole_derivative)
    for fast in (d2d2, d1d3):
        slow = assemble_boundary(load_suite(fast.suite, model))
        for got, want in zip(fast.cases, slow.cases):
            assert got.case == want.case and got.value == want.value
            if want.traced is not None:
                assert _layout(got.traced.num) == _layout(want.traced.num)


def _vanishes_by_full_grouping(num, sign):
    """Every rotated (word, monomial) sum of the numerator at sign * i, all
    grouped before any is tested."""
    groups = {}
    for m, elem in num.items():
        for word, poly in elem.terms.items():
            for mono, c in poly.terms.items():
                groups.setdefault((word, mono), []).append(c * GR(0, 1) ** (m * sign))
    return all(not sum(values[1:], values[0]) for values in groups.values())


def _with_late_remainder(num, reg):
    """(xn^2 + 1) N plus one monomial met after all of its own: the first
    rotated sum vanishes at +-i, and the last does not."""
    from wresidue.scalars import KIND_CONN
    out = _num_mul_linear(_num_mul_linear(num, reg, 1), reg, -1)
    top = max(out)
    late = ScalarPoly.var(reg, reg.get_or_add("late", KIND_CONN))
    out[top] = out[top] + _const(reg, 1) * late
    return out


def _numerators_with_linear_factors(reg, rng, letters):
    num = _random_numerator(reg, rng, letters)
    if not num:
        return []
    cases = [num, _with_late_remainder(num, reg)]
    for sign in (1, -1):
        cases.append(_num_mul_linear(num, reg, sign))  # (xn - sign i) N
        cases.append(_num_mul_linear(_num_mul_linear(num, reg, sign), reg, -sign))
    return cases


@_SHARES_SWEEP
@given(seed=st.integers(0, 2**32))
def test_pole_test_early_exit_is_the_full_grouping(sweep, seed):
    reg = Registry()
    for num in _numerators_with_linear_factors(reg, random.Random(seed), sweep.LETTERS):
        for sign in (1, -1):
            assert _vanishes_at(num, sign) == _vanishes_by_full_grouping(num, sign)


def test_pole_test_finds_the_linear_factors_it_must(sweep):
    """Numerators built as (xn -+ i) N vanish there, on seeded numerators
    and on every jet numerator of both suites.  The jets come from a model
    of this test's own: ``_with_late_remainder`` adds an atom to the
    registry, and the shared model's exact bindings number its atoms."""
    from wresidue.reference import BOUNDARY_SUITES, Model, load_suite

    reg = Registry()
    rng = random.Random(11)
    nums = [_random_numerator(reg, rng, sweep.LETTERS) for _ in range(100)]
    nums = [(reg, n) for n in nums if n]
    own = Model()
    for suite in (load_suite(name, own) for name in BOUNDARY_SUITES):
        nums += [(f.registry, f.num) for jets in (*suite.left.values(), *suite.right.values())
                 for f in jets if f.num]
    for reg, num in nums:
        for sign in (1, -1):
            assert _vanishes_at(_num_mul_linear(num, reg, sign), sign)
            assert _vanishes_at(num, sign) == _vanishes_by_full_grouping(num, sign)
            assert not _vanishes_at(_with_late_remainder(num, reg), sign)
