"""First-principles route for the closed (boundaryless) functional.

The closed functional of two vector fields decomposes over three universal
ingredients: the quadratic-curvature weight ``v * Tr(Id) / 6`` with
``v = 2*pi**m / Gamma(m)`` the unit-sphere volume in dimension ``n = 2*m``,
the curvature-two-form weight ``v / 2``, and half the trace of the bundle
endomorphism in the Lichnerowicz decomposition of the squared operator.

This module recomputes each ingredient symbolically — fiber traces of the
identity, of the endomorphism built from generic antisymmetric curvature
atoms, and of every term of the connection curvature two-form — and
assembles the coefficients independently of the recorded closed-form
table, which lives in :mod:`wresidue.reference`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .clifford import CN, HC, CliffordElement, Frame
from .scalars import GR, KIND_CURV, KIND_CONN, KIND_MARKER, ScalarPoly


class InteriorSetting(Frame):
    """Generic curvature/connection atoms over the frame of one ``(p, q)``."""

    def __init__(self, p: int, q: int):
        super().__init__(p, q)
        self.scurv = self.registry.add("s", KIND_MARKER)

    # curvature pairings; each is antisymmetric in its last two slots, and the
    # one-family / perp-family pairings also in their first two
    def r_mixed(self, i: int, r: int, t: int, s: int) -> ScalarPoly:
        return self.antisymmetric(f"Rm{i}{r}{{}}{{}}", KIND_CURV, (t, s))

    def r_leaf(self, i: int, j: int, t: int, s: int) -> ScalarPoly:
        return self.antisymmetric("Rf{}{}{}{}", KIND_CURV, (i, j), (t, s))

    def r_perp(self, r: int, u: int, t: int, s: int) -> ScalarPoly:
        return self.antisymmetric("Rp{}{}{}{}", KIND_CURV, (r, u), (t, s))

    def connection_term(self, tag: str) -> CliffordElement:
        """Generic connection-form value for one direction tag: antisymmetric
        atoms in the two quadratic families, generic ones in the mixing
        family."""
        return self.spin_connection(
            lambda j, l: self.antisymmetric(f"w{tag}F{{}}{{}}", KIND_CONN, (j, l)),
            lambda s, t: self.antisymmetric(f"w{tag}P{{}}{{}}", KIND_CONN, (s, t)),
            lambda j, s: self.var(self.registry.get_or_add(f"w{tag}S{j}{s}", KIND_CONN)))


def endomorphism_blocks(setting: InteriorSetting) -> dict[str, CliffordElement]:
    """The endomorphism of the squared operator: scalar-curvature part plus
    three quarter-weighted curvature blocks, each the sum over a, b, t, s
    (in that nesting order, which sets atom order) of
    ``curv(a, b, t, s) * first(a) second(b) hatc(h_s) hatc(h_t)``, built
    pair by pair: ``first(a) second(b)`` times the (t, s) family."""
    quarter = Fraction(1, 4)
    scalar = setting.ident(setting.var(setting.scurv) * quarter)
    ps, qs = range(1, setting.p + 1), range(1, setting.q + 1)
    leaf, perp = setting.c, lambda s: setting.gen(CN, s)
    hats = {(t, s): setting.gen(HC, s) * setting.gen(HC, t) for t, s in product(qs, qs)}

    def block(curv, first, firsts, second, seconds) -> CliffordElement:
        return sum((first(a) * second(b) * setting.family(
            hats, lambda t, s: curv(a, b, t, s), lambda t, s: hats[t, s], quarter)
            for a, b in product(firsts, seconds)), CliffordElement.zero(setting.registry))

    return {"scalar": scalar,
            "mixed-pair": block(setting.r_mixed, leaf, ps, perp, qs),
            "leaf-pair": block(setting.r_leaf, leaf, ps, leaf, ps),
            "perp-pair": block(setting.r_perp, perp, qs, perp, qs)}


def trace_endomorphism(setting: InteriorSetting) -> tuple[Fraction, dict[str, ScalarPoly]]:
    """Coefficient of the scalar-curvature marker in the endomorphism trace,
    together with the per-block traces (the curvature blocks must all trace
    to zero)."""
    p, q = setting.p, setting.q
    traces = {name: el.trace(p, q) for name, el in endomorphism_blocks(setting).items()}
    total = sum(traces.values(), ScalarPoly.zero(setting.registry))
    co = total.coefficient_of({setting.scurv: 1})
    if not co.is_constant():
        raise ValueError("endomorphism trace is not a pure scalar-curvature multiple")
    rest = total - setting.var(setting.scurv) * co
    if not rest.is_zero():
        raise ValueError("endomorphism trace has terms beyond the scalar-curvature part")
    return co.constant_part().re, traces


def curvature_form_traces(setting: InteriorSetting) -> dict[str, ScalarPoly]:
    """Fiber traces of the four terms of the connection curvature two-form
    ``X(w(Y)) - Y(w(X)) + [w(X), w(Y)] - w([X, Y])``, each with its sign, so
    that they sum to the trace of the two-form.

    The derivative terms and the bracket term are connection-form values with
    fresh atom families, so their traces vanish term by term; the commutator
    trace vanishes by cyclicity.
    """
    p, q = setting.p, setting.q
    a = setting.connection_term("a")
    b = setting.connection_term("b")
    da = setting.connection_term("Da")   # direction-a derivative of the b-form
    db = setting.connection_term("Db")
    br = setting.connection_term("L")    # value on the frame bracket
    return {
        "derivative-forward": da.trace(p, q),
        "derivative-backward": -db.trace(p, q),
        "commutator": a.product_trace(b, p, q) - b.product_trace(a, p, q),
        "frame-bracket": -br.trace(p, q),
    }


def first_principles_coefficients(p: int, q: int) -> dict[str, Fraction | ScalarPoly]:
    """The interior coefficients in dimension ``n = p + q``, keyed as
    :func:`reference.interior_expected`: the quadratic-form weight
    ``v * Tr(Id) / 6`` and the two-form weight ``v / 2 * tr(Omega)``, both
    in units of ``pi**(n/2)``, the metric scalar-curvature weight, and the
    endomorphism-trace multiple of the curvature marker."""
    n = p + q
    if n % 2:
        raise ValueError("only even total dimension is supported")
    setting = InteriorSetting(p, q)
    endo_co, _ = trace_endomorphism(setting)
    two_form = sum(curvature_form_traces(setting).values(), ScalarPoly.zero(setting.registry))
    # sphere volume 2*pi**m/Gamma(m); pi**m stays implicit in the field
    vol = Fraction(2, math.factorial(n // 2 - 1))
    return {
        "einstein": vol * setting.ident().trace(p, q).constant_part().re / 6,
        "scalar": endo_co / 2,
        "two-form": two_form * GR(vol / 2),
        "endo-trace": endo_co,
    }
