import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wresidue.scalars import (
    GR,
    GR_I,
    GR_ONE,
    GR_ZERO,
    KIND_CONN,
    KIND_MARKER,
    KIND_X,
    MarkerSubstitutionError,
    Registry,
    RegistryMismatchError,
    ScalarPoly,
    _mono_mul,
)
from wresidue.verifier import exact_bindings

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)
gaussians = st.builds(GR, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_gr_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + GR_ZERO == a
    assert a * GR_ONE == a
    assert a - a == GR_ZERO


@given(gaussians)
def test_gr_conjugate_and_division(a):
    norm = a * GR(a.re, -a.im)
    assert norm.im == 0 and norm.re >= 0
    if not a.is_zero():
        assert a / a == GR_ONE
        assert (GR_ONE / a) * a == GR_ONE


@given(gaussians, gaussians)
def test_gr_render_distinguishes_values(a, b):
    assert (a.render() == b.render()) == (a == b)


def test_gr_render_forms():
    assert GR_ZERO.render() == "0"
    assert GR(Fraction(-3, 4)).render() == "-3/4"
    assert GR(5).render() == "5"
    assert GR_I.render() == "1i"
    assert (-GR_I).render() == "-1i"
    assert GR(0, Fraction(3, 4)).render() == "3/4i"
    assert GR(Fraction(1, 2), Fraction(-1, 3)).render() == "(1/2-1/3i)"
    assert GR(-2, 5).render() == "(-2+5i)"


# -- the integer-backed kernel ----------------------------------------------

# parts past 2**53 tell exact int division apart from float division
wide_rationals = st.one_of(rationals, st.fractions(max_denominator=10**6),
                           st.builds(Fraction, st.integers(-10**30, 10**30),
                                     st.integers(1, 10**20)))
# purely real and purely imaginary values take their own fast paths
mixed = st.one_of(st.builds(GR, wide_rationals, wide_rationals),
                  st.builds(GR, wide_rationals),
                  st.builds(lambda y: GR(0, y), wide_rationals))


def _results(x, y):
    """Each operation's result next to the (re, im) Fraction pair it must hold."""
    xr, xi, yr, yi = x.re, x.im, y.re, y.im
    out = [(x + y, (xr + yr, xi + yi)), (x - y, (xr - yr, xi - yi)),
           (y - x, (yr - xr, yi - xi)), (-x, (-xr, -xi)),
           (x * y, (xr * yr - xi * yi, xr * yi + xi * yr)),
           (x - x, (0, 0)), (x * 0, (0, 0))]
    norm = yr * yr + yi * yi
    if norm:
        out.append((x / y, ((xr * yr + xi * yi) / norm, (xi * yr - xr * yi) / norm)))
    return out


@given(mixed, mixed)
def test_gr_triple_canonical_and_exact(x, y):
    from math import gcd
    for value, (re, im) in _results(x, y):
        a, b, d = value._a, value._b, value._d
        assert d > 0 and gcd(a, b, d) == 1
        if not re and not im:
            assert (a, b, d) == (0, 0, 1)
        assert (value.re, value.im) == (re, im)
        assert isinstance(value.re, Fraction) and isinstance(value.im, Fraction)


@pytest.mark.parametrize("re, im", [(-3, 0), (0, -7), (0, 0), (12, -5), (-10**30, 1),
                                    (True, False), (False, True), (-2, True)])
def test_gr_from_ints_matches_the_fraction_path(re, im):
    got, want = GR(re, im), GR(Fraction(re), Fraction(im))
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert [type(v) for v in (got._a, got._b, got._d)] == [int, int, int]


@given(mixed, mixed)
def test_gr_eq_and_hash_follow_parts(x, y):
    assert (x == y) == ((x.re, x.im) == (y.re, y.im))
    assert x == GR(x.re, x.im) and hash(x) == hash(GR(x.re, x.im))
    if not x.im:
        assert x == x.re and hash(x) == hash(x.re)


@pytest.mark.parametrize("number", [0, 1, -3, 10**30, Fraction(1, 2), Fraction(-7, 3)])
def test_gr_hash_agrees_with_the_equal_number(number):
    """A real value equals the int or Fraction it holds, so it hashes alike
    and either finds the other in a set."""
    value = GR(number)
    assert value == number and hash(value) == hash(number)
    assert number in {value} and value in {number}
    assert value in {GR(Fraction(number) * 4, 0) / 4}


def test_gr_complex_hash_is_the_canonical_triple():
    value = GR(Fraction(1, 2), Fraction(-3, 4))
    assert hash(value) == hash((value._a, value._b, value._d)) == hash((2, -3, 4))
    assert value in {GR(Fraction(2, 4), Fraction(-6, 8))}


def _same_complex(x):
    want = complex(x.re) + 1j * complex(x.im)
    got = x.to_complex()
    return (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@given(mixed)
def test_gr_to_complex_bit_identical(x):
    assert _same_complex(x)


def test_gr_to_complex_bit_identical_past_double_precision():
    # hypothesis seldom draws parts this large; a third of these round
    # differently when the int is turned into a float before dividing
    rng = random.Random(5)
    for _ in range(300):
        den = rng.randint(1, 10**20)
        assert _same_complex(GR(Fraction(rng.randint(-10**30, 10**30), den),
                                Fraction(rng.randint(-10**30, 10**30), den)))


@given(mixed, mixed)
def test_gr_division_inverts_multiplication(x, y):
    if not y.is_zero():
        assert x / y * y == x


def test_gr_immutable():
    with pytest.raises(AttributeError):
        GR_ONE.re = Fraction(2)


def test_minus_i_pow_cycle():
    # (-i)**k is the turn by -k quarter turns
    minus_i_pow = [GR_ONE.turn_scale(-k % 4, 1, 1) for k in range(6)]
    assert minus_i_pow[:4] == [GR_ONE, -GR_I, -GR_ONE, GR_I]
    assert minus_i_pow[5] == minus_i_pow[1]
    assert minus_i_pow == [GR(0, -1) ** k for k in range(6)]


def test_gr_i_squares_to_minus_one():
    assert GR_I * GR_I == -GR_ONE


# -- registry ---------------------------------------------------------------


def test_registry_add_and_lookup():
    reg = Registry()
    x = reg.add("X1", KIND_X)
    assert reg.by_name("X1") is x
    assert "X1" in reg and "X2" not in reg
    assert reg.get_or_add("X1", KIND_X) is x
    assert len(reg) == 1


def test_registry_rejects_unknown_kind():
    reg = Registry()
    with pytest.raises(ValueError):
        reg.add("bogus", "no-such-kind")


# -- polynomials ------------------------------------------------------------


@pytest.fixture()
def reg():
    return Registry()


def _vars(reg, count=3):
    return [ScalarPoly.var(reg, reg.get_or_add(f"w{k}F", KIND_CONN))
            for k in range(count)]


def _random_poly(reg, rng, nvars=3):
    inds = [reg.get_or_add(f"w{k}F", KIND_CONN) for k in range(nvars)]
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(sorted((ind.id, rng.randint(1, 2))
                            for ind in rng.sample(inds, rng.randint(0, nvars))))
        terms[mono] = GR(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return ScalarPoly(reg, terms)


def test_poly_ring_axioms(reg):
    import random
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (_random_poly(reg, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == ScalarPoly.zero(reg)


def test_poly_power_matches_repeated_product(reg):
    x, y, _ = _vars(reg)
    p = x + y * GR(2)
    assert p ** 3 == p * p * p
    assert p ** 0 == ScalarPoly.const(reg, GR_ONE)


def test_poly_registry_mismatch():
    a = ScalarPoly.const(Registry(), GR_ONE)
    b = ScalarPoly.const(Registry(), GR_ONE)
    with pytest.raises(RegistryMismatchError):
        a + b


def test_coefficient_of_and_project(reg):
    x, y, z = _vars(reg)
    xi, yi, zi = (reg.by_name(f"w{k}F") for k in range(3))
    p = x * y * GR(3) + x * z + y * GR(5)
    assert p.coefficient_of({xi: 1, yi: 1}) == ScalarPoly.const(reg, GR(3))
    assert p.coefficient_of({xi: 1, yi: 0}) == z
    groups = p.project([xi])
    assert groups[((xi.id, 1),)] == y * GR(3) + z
    assert groups[()] == y * GR(5)


def test_substitute_exact_and_marker_guard(reg):
    xi = reg.add("w0F", KIND_CONN)
    mark = reg.add("pi", KIND_MARKER)
    p = ScalarPoly.var(reg, xi) * ScalarPoly.var(reg, mark) * GR(2)
    got = p.substitute({xi: GR(Fraction(1, 2))})
    assert got == ScalarPoly.var(reg, mark)
    with pytest.raises(MarkerSubstitutionError):
        p.substitute({mark: GR_ONE})


def test_eval_complex_agrees_with_substitute(reg):
    import random
    rng = random.Random(3)
    for _ in range(50):
        p = _random_poly(reg, rng)
        binding = {reg.by_name(f"w{k}F"): GR(Fraction(rng.randint(-4, 4), 3))
                   for k in range(3)}
        exact = p.substitute(binding).constant_part().to_complex()
        numeric = p.eval_complex({ind.id: complex(v.to_complex())
                                  for ind, v in binding.items()})
        assert abs(exact - numeric) < 1e-9


def test_replace_indeterminate(reg):
    x, y, _ = _vars(reg)
    xi = reg.by_name("w0F")
    p = x * x + x * y
    swapped = p.replace(xi, y * GR(-2))
    assert swapped == y * y * GR(4) + y * y * GR(-2)


def test_zero_coefficients_pruned(reg):
    x, y, _ = _vars(reg)
    assert (x - x).terms == {}
    assert (x + y - y) == x


# -- substitution: one reduction per remaining monomial ----------------------


def _substitute_by_running_sum(p, bindings):
    """Substitution as it was first written: every term reduced and added
    to a running sum, a sum that reaches zero dropped."""
    values = {ind.id: v for ind, v in bindings.items()}
    out = {}
    for mono, coeff in p.terms.items():
        acc, rest = coeff, []
        for iid, exp in mono:
            if iid in values:
                acc = acc * values[iid] ** exp
            else:
                rest.append((iid, exp))
        if acc.is_zero():
            continue
        key = tuple(rest)
        total = out.get(key, GR_ZERO) + acc
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return ScalarPoly(p.registry, out)


def test_substitute_is_the_running_sum_on_every_corroboration_integrand(model, d2d2, d1d3):
    bound = exact_bindings(model)
    seen = 0
    for result in (d2d2, d1d3):
        for res in result.cases:
            if res.traced is None:
                continue
            for elem in res.traced.num.values():
                for poly in elem.terms.values():
                    got, want = poly.substitute(bound), _substitute_by_running_sum(poly, bound)
                    assert got == want
                    assert list(got.terms.items()) == list(want.terms.items())
                    seen += 1
    assert seen


def test_partial_substitution_matches_the_running_sum_in_value(reg):
    rng = random.Random(13)
    inds = [reg.get_or_add(f"w{k}F", KIND_CONN) for k in range(3)]
    for _ in range(300):
        p = _random_poly(reg, rng)
        bound = {ind: GR(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
                 for ind in rng.sample(inds, rng.randint(0, 3))}
        assert p.substitute(bound) == _substitute_by_running_sum(p, bound)


def test_substitute_keys_come_first_met_among_nonzero_groups(reg):
    """Complex bindings: the x group cancels and disappears; the y group's
    running sum cancels on the way and comes back, and y keeps its first-met
    place."""
    x, y, z, u = (reg.add(name, KIND_CONN) for name in ("x", "y", "z", "u"))
    mark = reg.add("Omega", KIND_MARKER)
    var = functools.partial(ScalarPoly.var, reg)
    p = (var(x) * var(z) + var(y) * var(z) * GR(2) + var(mark) + var(x) * var(u)
         + var(y) * var(u) * GR(2) + var(y) * var(z) * var(z) * GR(Fraction(1, 3)))
    bound = {z: GR_I, u: -GR_I}
    got = p.substitute(bound)
    # x: i - i = 0;  y: 2i - 2i, then -1/3
    assert got == var(mark) + var(y) * GR(Fraction(-1, 3))
    assert list(got.terms) == [((y.id, 1),), ((mark.id, 1),)]
    # the running sum dropped y on the way and put it back last
    assert list(_substitute_by_running_sum(p, bound).terms) == [((mark.id, 1),), ((y.id, 1),)]
    with pytest.raises(MarkerSubstitutionError):
        p.substitute({z: GR_I, mark: GR_ONE})


# -- monomial product ----------------------------------------------------------


def _mono_mul_by_dict(m1, m2):
    """The monomial product as it was first written: merge in a dict, then
    sort."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for iid, exp in m2:
        merged[iid] = merged.get(iid, 0) + exp
    return tuple(sorted(merged.items()))


def _random_mono(rng, ids):
    return tuple((iid, rng.randint(1, 4)) for iid in sorted(rng.sample(ids, rng.randint(0, len(ids)))))


@pytest.mark.parametrize("m1, m2", [
    ((), ()), ((), ((3, 1),)), (((3, 1),), ()),
    (((0, 1), (1, 2)), ((2, 1), (5, 3))),  # disjoint, one after the other
    (((2, 1), (5, 3)), ((0, 1), (1, 2))),
    (((0, 1), (4, 2), (7, 1)), ((1, 1), (5, 2), (9, 1))),  # interleaved
    (((0, 1), (4, 2)), ((0, 3), (4, 1))),  # the same ids
    (((0, 1), (3, 2), (6, 1)), ((3, 1), (8, 2))),  # one shared id
])
def test_mono_mul_merges_like_the_dict(m1, m2):
    assert _mono_mul(m1, m2) == _mono_mul_by_dict(m1, m2)


def test_mono_mul_merges_like_the_dict_on_seeded_monomials():
    rng = random.Random(17)
    ids = list(range(9))
    for _ in range(2000):
        m1, m2 = _random_mono(rng, ids), _random_mono(rng, ids)
        assert _mono_mul(m1, m2) == _mono_mul_by_dict(m1, m2)
