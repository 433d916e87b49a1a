"""The QAGIE port against ``scipy.integrate.quad`` on (-inf, inf).

``quad`` runs QUADPACK's QAGIE for an infinite range; the port must give
the same value, error estimate and subinterval count bit for bit, so that
the report's quadrature digits do not depend on which of the two ran.
"""

import contextlib
import functools
import io
import math
import os
import random
import subprocess
import sys
import warnings

import pytest
from scipy import integrate

import wresidue
from wresidue import cli, quadpack, verifier
from wresidue.clifford import CF, CliffordElement
from wresidue.verifier import exact_bindings, numeric_bindings
from wresidue.xicalc import XiRational, numeric_xi_oracle

SETTINGS = dict(epsabs=quadpack.EPSABS, epsrel=quadpack.EPSREL, limit=quadpack.LIMIT)


def _quad(part):
    """(value, abserr, last) of ``scipy.integrate.quad`` over the real line."""
    with warnings.catch_warnings():  # a roundoff flag (ier 2) warns; the port returns it
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(part, -math.inf, math.inf, full_output=1, **SETTINGS)
    return out[0], out[1], out[2]["last"]


def _port(part):
    return quadpack.qagie(part)[:3]


def _random_rational(rng):
    """p(x) / ((x - i)^a (x + i)^b) with deg p <= a + b - 2 and complex
    rational coefficients: the engine's integrands have this form."""
    a = rng.randint(0, 8)
    b = rng.randint(max(0, 2 - a), 8)

    def fraction():
        return rng.randint(-99, 99) / rng.randint(1, 7)
    coeffs = [complex(fraction(), fraction()) for _ in range(rng.randint(1, a + b - 1))]

    def f(x):
        num = 0j
        for m, c in enumerate(coeffs):
            num += c * x ** m
        return num / ((x - 1j) ** a * (x + 1j) ** b)
    return f


def _parts(f):
    return (lambda x: f(x).real), (lambda x: f(x).imag)


def test_port_equals_quad_on_random_rationals(monkeypatch):
    """Value, error estimate and subinterval count on 400 parts; some of
    them must reach the epsilon algorithm and some need 8 subintervals."""
    extrapolations = []
    qelg = quadpack._qelg

    def counting_qelg(*args):
        extrapolations.append(args[0])
        return qelg(*args)

    monkeypatch.setattr(quadpack, "_qelg", counting_qelg)
    rng = random.Random(20240601)
    lasts, extrapolated = [], 0
    for _ in range(200):
        for part in _parts(_random_rational(rng)):
            before = len(extrapolations)
            got = _port(part)
            assert got == _quad(part)
            lasts.append(got[2])
            extrapolated += len(extrapolations) > before
    assert extrapolated >= 1
    assert max(lasts) >= 8


def _peaked(rng):
    """A sharp peak or a slowly decaying oscillation: QAGIE runs to its
    subdivision limit, raises its roundoff flags and extrapolates often."""
    c, eps = rng.uniform(-50, 50), 10 ** rng.uniform(-5, 0)
    if rng.random() < 0.5:
        k = rng.uniform(0, 5)
        return lambda x: math.cos(k * x) / (eps + (x - c) ** 2)
    return lambda x: math.exp(-eps * abs(x - c)) * math.sin(x) ** 2 / (1 + abs(x))


def test_port_equals_quad_on_hard_integrands():
    """Outside the engine's integrands, on the paths the smooth ones never
    take.  Two of these 30 bisect past ``limit / 2 + 2`` until dqagie's loop
    over the larger intervals runs no trip and must fall through to the
    extrapolation."""
    rng = random.Random(0)
    lasts = []
    for _ in range(30):
        f = _peaked(rng)
        got = _port(f)
        assert got == _quad(f)
        lasts.append(got[2])
    assert lasts.count(quadpack.LIMIT) >= 10


def test_engine_integrands_match_quad_bit_for_bit(monkeypatch):
    seen = []

    def recording(f, bindings=None):
        seen.append((f, bindings))
        return numeric_xi_oracle(f, bindings)

    monkeypatch.setattr(verifier, "numeric_xi_oracle", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--suite", "all"]) == 0
    assert len(seen) == 8
    for f, bindings in seen:
        parts = _parts(lambda x: f.eval_scalar_complex(x, bindings))
        assert [_port(p) for p in parts] == [_quad(p) for p in parts]
        assert numeric_xi_oracle(f, bindings) == complex(*(_quad(p)[0] for p in parts))


def _value_refloating_each_coefficient(f, x, bindings):
    """The identity-word value as first written: every coefficient floated
    again at each abscissa."""
    num = 0j
    for m, c in f.num.items():
        num += c.scalar_part().eval_complex(bindings) * x ** m
    return num / ((x - 1j) ** f.a * (x + 1j) ** f.b)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_oracle_floats_each_coefficient_once_and_keeps_every_bit(model, d2d2, d1d3,
                                                                 monkeypatch):
    """At every abscissa QAGIE asks for, on every case integrand bound as the
    corroboration binds it, both evaluators give the old value bit for bit."""
    bound = exact_bindings(model)
    bindings = numeric_bindings(model, bound)
    asked = []
    qagie = quadpack.qagie

    def recording(part):
        return qagie(lambda x: asked.append(x) or part(x))

    monkeypatch.setattr(quadpack, "qagie", recording)
    integrands = [res.traced.substitute(bound) for result in (d2d2, d1d3)
                  for res in result.cases if res.value]
    assert integrands
    for f in integrands:
        asked.clear()
        got = numeric_xi_oracle(f, bindings)
        assert asked
        value = f._evaluator(bindings)
        for x in asked:
            want = _bits(_value_refloating_each_coefficient(f, x, bindings))
            assert _bits(value(x)) == want
            assert _bits(f.eval_scalar_complex(x, bindings)) == want
        old = functools.cache(lambda x: _value_refloating_each_coefficient(f, x, bindings))
        assert _bits(got) == _bits(complex(qagie(lambda x: old(x).real)[0],
                                           qagie(lambda x: old(x).imag)[0]))


def test_oracle_rejects_a_word_before_integrating(model):
    reg = model.registry
    f = XiRational(reg, {0: CliffordElement.identity(reg), 1: CliffordElement.generator(reg, CF, 1)},
                   2, 1)
    with pytest.raises(ValueError, match="identity-word"):
        numeric_xi_oracle(f)
    with pytest.raises(ValueError, match="identity-word"):
        f.eval_scalar_complex(0.5)


def test_full_run_imports_neither_numpy_nor_scipy():
    code = ("import contextlib, io, sys\n"
            "from wresidue import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['--suite', 'all']) == 0\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(wresidue.__file__)))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
