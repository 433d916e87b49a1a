"""The property-sweep workload: seeded random small operands checked against
the algebraic and numeric properties the acceptance gate mandates.

The generator belongs to the benchmark (it does not import the test suite),
so editing a test cannot change the workload.  Counts and tolerances are the
gate's: 10^4 word-confluence and 10^4 trace-cyclicity Clifford products,
10^3 projection identities and 10^3 matrix-oracle traces, 300
derivative-integral vanishings, 120 quadrature comparisons at 1e-9 and the
sphere moments through degree 6 at 1e-6.  Every check is one operation; it
fails on a violated property or an exception.

Only public entry points are called, through their modules, so the traced
run sees every call.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from wresidue import clifford, oracles, scalars, sphere, xicalc
from wresidue.clifford import CF, CN, HC, CliffordElement
from wresidue.scalars import GR, ScalarPoly

QUADRATURE_RTOL = 1e-9
MATRIX_TOL = 1e-9
SPHERE_DEGREE = 6
SPHERE_TOL = 1e-6

LETTERS = ((CF, 1), (CF, 2), (CN, 1), (CN, 2), (HC, 1), (HC, 2))


def _gr(rng: random.Random) -> GR:
    return GR(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
              Fraction(rng.randint(-8, 8), rng.randint(1, 5)))


def _const(reg, value) -> CliffordElement:
    return CliffordElement.identity(reg, ScalarPoly.const(reg, value))


def _element(reg, rng, max_terms: int) -> CliffordElement:
    """A sum of up to ``max_terms`` scaled products of distinct generators."""
    out = CliffordElement.zero(reg)
    for _ in range(rng.randint(1, max_terms)):
        term = _const(reg, _gr(rng))
        for letter in rng.sample(LETTERS, rng.randint(0, len(LETTERS))):
            term = term * CliffordElement.generator(reg, *letter)
        out = out + term
    return out


def _word(rng) -> tuple:
    return tuple(sorted(rng.sample(LETTERS, rng.randint(0, 4))))


def _decaying(reg, rng, with_generators: bool) -> xicalc.XiRational:
    """Numerator degree at most a + b - 2, so the real-line integral exists."""
    a = rng.randint(1, 3)
    b = rng.randint(max(0, 2 - a), 3)
    num = {}
    for k in range(a + b - 1):
        elem = _const(reg, _gr(rng))
        if with_generators and rng.random() < 0.5:
            elem = elem * CliffordElement.generator(reg, rng.choice((CF, HC)), 1)
        num[k] = elem
    return xicalc.XiRational.build(reg, num, a, b)


def _any(reg, rng) -> xicalc.XiRational:
    """Numerator degree up to the total pole order, so a polynomial part can remain."""
    a, b = rng.randint(0, 3), rng.randint(0, 3)
    return xicalc.XiRational.build(reg, {k: _const(reg, _gr(rng)) for k in range(a + b + 1)}, a, b)


# -- one function per property: each returns True when the property holds --


def word_confluence(rng, reg, pi):
    w1, w2, w3 = _word(rng), _word(rng), _word(rng)
    s12, w12 = clifford.word_mul(w1, w2)
    s_left, left = clifford.word_mul(w12, w3)
    s23, w23 = clifford.word_mul(w2, w3)
    s_right, right = clifford.word_mul(w1, w23)
    return (s12 * s_left, left) == (s23 * s_right, right)


def trace_cyclicity(rng, reg, pi):
    a, b = _element(reg, rng, 2), _element(reg, rng, 2)
    return (a * b).trace(2, 2) == (b * a).trace(2, 2)


def projection(rng, reg, pi):
    f = _any(reg, rng)
    plus = xicalc.pi_plus(f)
    poly = xicalc.XiRational.build(reg, f.polynomial_part(), 0, 0)
    return xicalc.pi_plus(plus) == plus and plus + xicalc.pi_minus(f) + poly == f


def matrix_trace(rng, reg, pi):
    elem = _element(reg, rng, 4)
    exact = elem.trace(2, 2).constant_part().to_complex()
    return abs(exact - oracles.matrix_trace(elem, {})) < MATRIX_TOL


def derivative_integral(rng, reg, pi):
    f = _decaying(reg, rng, with_generators=True)
    return xicalc.xi_integral(xicalc.xi_derivative(f), pi).is_zero()


def quadrature(rng, reg, pi):
    f = _decaying(reg, rng, with_generators=False)
    while f.is_zero():
        f = _decaying(reg, rng, with_generators=False)
    exact = f.integrate(pi).scalar_part().eval_complex({pi.id: math.pi})
    approx = xicalc.numeric_xi_oracle(f)
    return abs(exact - approx) / max(abs(exact), abs(approx), 1.0) < QUADRATURE_RTOL


PROPERTIES = (
    ("word-confluence", word_confluence, 10_000),
    ("trace-cyclicity", trace_cyclicity, 10_000),
    ("projection", projection, 1_000),
    ("matrix-trace", matrix_trace, 1_000),
    ("derivative-integral", derivative_integral, 300),
    ("quadrature", quadrature, 120),
)


def sphere_exponents():
    return [e for e in product(range(SPHERE_DEGREE + 1), repeat=3) if sum(e) <= SPHERE_DEGREE]


def sphere_moment(exps, reg, xi) -> bool:
    mono = tuple((ind.id, e) for ind, e in zip(xi, exps) if e)
    numeric = sphere.numeric_sphere_oracle(ScalarPoly(reg, {mono: GR(1)}), xi).real
    return abs(float(sphere.moment_fraction(exps)) - numeric / (4.0 * math.pi)) < SPHERE_TOL


def run(seed: int) -> dict:
    """Run every check once; returns attempted and failed counts and the
    first few failures."""
    attempted = failed = 0
    failures: list[str] = []

    def record(label, thunk):
        nonlocal attempted, failed
        attempted += 1
        try:
            ok = thunk()
        except Exception as exc:  # one failed operation; the sweep goes on
            ok = False
            label = f"{label}: {type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(label)

    for name, check, count in PROPERTIES:
        rng = random.Random(f"{seed}/{name}")
        reg = scalars.Registry()
        pi = reg.add("pi", scalars.KIND_MARKER)
        for k in range(count):
            record(f"{name} #{k}", lambda: check(rng, reg, pi))
    reg = scalars.Registry()
    xi = tuple(reg.add(f"xi{k}", scalars.KIND_XI) for k in (1, 2, 3))
    for exps in sphere_exponents():
        record(f"sphere-moment {exps}", lambda: sphere_moment(exps, reg, xi))
    return {"attempted": attempted, "failed": failed, "failures": failures}
