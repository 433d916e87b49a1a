"""Frozen audit model: the shared indeterminate registry, the one-sided
symbol jets for both boundary suites, and the expected-value tables.

Everything the verifier compares against lives here.  The geometric setting
is a product collar near a flat boundary chart: an orthonormal frame split
into a distinguished rank-``p`` family and its rank-``q`` complement, a
collar rate ``hp`` for the normal metric derivative, and fully general
antisymmetric connection-coefficient families.  No coefficient is ever
numeric unless the source value is; formal markers (``pi``, ``Omega3``,
``s``, ``K``) stay symbolic throughout.

Expected rows carry an audit kind: ``recorded`` rows restate the values
under audit verbatim, ``derived`` rows freeze values this engine has
re-derived independently, and ``display`` records pin intermediate
closed forms that the engine must reproduce exactly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Container, Iterable, Mapping, NamedTuple

from .clifford import CliffordElement, Frame, Word
from .scalars import (
    GR,
    GR_I,
    KIND_CONN,
    KIND_HPRIME,
    KIND_MARKER,
    KIND_X,
    KIND_XI,
    KIND_Y,
    Indeterminate,
    Monomial,
    ScalarPoly,
)
from .xicalc import XiRational

P_LEAF = 2
Q_PERP = 2

_HALF = Fraction(1, 2)
_MI = GR(0, -1)  # -i

# One factor's jets at the boundary base point: {order: (jet, d_xn jet, ...)}.
Jets = Mapping[int, tuple[XiRational, ...]]


class RowShape(NamedTuple):
    """One named shape of the boundary rows: its report text, its polynomial,
    and the monomials at which a row is probed for a multiple of it."""

    text: str
    poly: ScalarPoly
    probes: tuple[Monomial, ...]


class Model(Frame):
    """Shared symbolic geometry for every suite, over one registry."""

    def __init__(self):
        super().__init__(P_LEAF, Q_PERP)
        reg, p, q = self.registry, self.p, self.q

        self.pi = reg.add("pi", KIND_MARKER)
        self.omega3 = reg.add("Omega3", KIND_MARKER)
        self.scurv = reg.add("s", KIND_MARKER)
        self.kext = reg.add("K", KIND_MARKER)
        self.hp = reg.add("hp", KIND_HPRIME)

        self.xi = tuple(reg.add(f"xi{a}", KIND_XI) for a in range(1, self.n))
        self.X = tuple(reg.add(f"X{a}", KIND_X) for a in range(1, self.n + 1))
        self.Y = tuple(reg.add(f"Y{a}", KIND_Y) for a in range(1, self.n + 1))
        # first-direction derivatives of the second field's components
        self.dXY = tuple(reg.add(f"XdY{a}", KIND_CONN) for a in range(1, self.n + 1))

        def family(prefix: str, pairs) -> dict[tuple[int, int, int], Indeterminate]:
            """One connection atom per index pair and direction."""
            return {(i, k, d): reg.add(f"{prefix}{i}{k}d{d}", KIND_CONN)
                    for i, k in pairs for d in range(1, self.n + 1)}

        mixed = list(product(range(1, p + 1), range(1, q + 1)))
        self.nabf = family("wF", combinations(range(1, p + 1), 2))
        self.nabp = family("wP", combinations(range(1, q + 1), 2))
        self.nabtm = family("wM", mixed)
        self.smix = family("sh", mixed)
        # the boundary divergence of the inward normal h_q: minus its atoms with
        # each f_a in direction a and with each h_s, s < q, in direction p + s
        self.div_atoms = (tuple(self.nabtm[a, q, a] for a in range(1, p + 1)),
                          tuple(self.nabp[s, q, p + s] for s in range(1, q)))

        # c(xi) = c(xi') + xn c(dxn): the inward unit conormal is the last
        # frame vector
        self.c_xi_num = self.pair(self.c)
        self.cxi, self.cdxn = self.c_xi_num.num[0], self.c_xi_num.num[1]

    def pair(self, f: Callable[[int], object]) -> XiRational:
        """The pairing ``sum_a<n f(a)*xi_a + f(n)*xn`` of a frame-indexed ``f``
        (numbers, polynomials or Clifford elements) with the covariable."""
        tangential = sum(f(a) * self.var(ind) for a, ind in enumerate(self.xi, start=1))
        return XiRational.build(self.registry, {0: tangential, 1: f(self.n)})

    def field(self, atoms: tuple[Indeterminate, ...]) -> XiRational:
        """``pair`` of a vector field given by its frame-component atoms."""
        return self.pair(lambda a: self.var(atoms[a - 1]))

    # -- scalar helpers ----------------------------------------------------

    @functools.cached_property
    def hp_poly(self) -> ScalarPoly:
        return self.var(self.hp)

    # X(xi) Y(xi) = t_hat + c_hat xn + n_hat xn^2
    @property
    def t_hat(self) -> ScalarPoly:
        return self.t_full_num.num[0].scalar_part()

    @property
    def c_hat(self) -> ScalarPoly:
        return self.t_full_num.num[1].scalar_part()

    @property
    def n_hat(self) -> ScalarPoly:
        return self.t_full_num.num[2].scalar_part()

    @functools.cached_property
    def sigma_hat(self) -> ScalarPoly:
        return sum(self.var(x) * self.var(y) for x, y in zip(self.X[:-1], self.Y[:-1]))

    # -- connection values (quadratic Clifford words) ----------------------

    def connection(self, d: int, mixed: Mapping[tuple[int, int, int], Indeterminate]
                   | None = None) -> CliffordElement:
        """Connection value in direction ``d``.  ``mixed`` is the mixed
        family, ``nabtm`` for the base operator and ``smix`` for the
        double-covariant symbols; without it, the leaf and perp families
        alone."""
        return self.spin_connection(
            lambda j, l: self.antisymmetric(f"wF{{}}{{}}d{d}", KIND_CONN, (j, l)),
            lambda s, t: self.antisymmetric(f"wP{{}}{{}}d{d}", KIND_CONN, (s, t)),
            None if mixed is None else lambda j, s: self.var(mixed[(j, s, d)]))

    @functools.cached_property
    def sigma0_base(self) -> CliffordElement:
        """Zeroth symbol of the base first-order operator: each frame letter
        against the base connection in its direction."""
        return sum(self.c(d) * self.connection(d, self.nabtm) for d in range(1, self.n + 1))

    @functools.cached_property
    def div_poly(self) -> ScalarPoly:
        """Boundary divergence of the inward normal; the traces suite checks
        it against the fiber trace of the base symbol."""
        return -sum(self.var(atom) for family in self.div_atoms for atom in family)

    @functools.cached_property
    def row_shapes(self) -> dict[str, RowShape]:
        """Every boundary row is a combination of these shapes, listed in the
        order a row is taken apart for rendering.  Each shape is a product of
        factors; its probes pick one probe atom set per factor.  The
        divergence factor has two, so a divergence part is recognised only
        when both of its atoms agree."""
        var = self.var
        # factor: (text, polynomial, atom sets of its probes)
        sig = ("[sum_a<4 Xa*Ya]", self.sigma_hat, ((self.X[0], self.Y[0]),))
        nn = ("X4*Y4", self.n_hat, ((self.X[-1], self.Y[-1]),))
        xy = ("X(Y4)", var(self.dXY[-1]), ((self.dXY[-1],),))
        div = ("div", self.div_poly, tuple(family[:1] for family in self.div_atoms))
        hp, pi, om = ((ind.name, var(ind), ((ind,),)) for ind in (self.hp, self.pi, self.omega3))
        layout = {"sigma_hp": (sig, hp, pi, om), "normal_hp": (nn, hp, pi, om),
                  "xy_pi": (xy, pi, om), "xy": (xy, om),
                  "sigma_div": (sig, div, pi, om), "normal_div": (nn, div, pi, om),
                  "sigma_div_hp": (sig, div, hp, pi, om),
                  "normal_div_hp": (nn, div, hp, pi, om)}
        return {name: RowShape(
            "*".join(text for text, _, _ in factors),
            math.prod(poly for _, poly, _ in factors),
            tuple(tuple(sorted((ind.id, 1) for atoms in pick for ind in atoms))
                  for pick in product(*(probes for _, _, probes in factors))))
            for name, factors in layout.items()}

    # -- numerators shared between jets (xn-polynomials, no poles) ---------

    @functools.cached_property
    def t_full_num(self) -> XiRational:
        return self.field(self.X) * self.field(self.Y)

    @functools.cached_property
    def collar_bracket(self) -> XiRational:
        """``3/2 hp xn``, the collar-rate term of the connection brackets."""
        return XiRational.build(self.registry, {1: self.hp_poly * Fraction(3, 2)})


@functools.lru_cache(maxsize=None)
def build_model() -> Model:
    return Model()


# ---------------------------------------------------------------------------
# jets


def compose(left: Jets, right: Jets, words: Container[Word]) -> Jets:
    """The top order, with its d_xn jet, and the next order of the product of
    two operators from the top two orders of each, by the Leibniz rule
    sigma(PQ) = sum_a<=1 (-i)^a/a! d_xi_n^a p d_xn^a q (tangential
    x-derivatives vanish at the base point).  A left top order without a
    d_xn jet is constant in xn; the next order is formed only when both
    tables carry one, and only on the Clifford ``words`` of the jets it
    meets (:func:`partner_words`): each product skips the word pairs that
    land elsewhere."""
    top, low = max(left), max(right)
    (p, *dp), (q, dq) = left[top], right[low]
    out = {top + low: (p * q, dp[0] * q + p * dq if dp else p * dq)}
    if top - 1 in left and low - 1 in right:
        (p1,), (q1,) = left[top - 1], right[low - 1]
        out[top + low - 1] = (p.mul_on_words(q1, words) + p1.mul_on_words(q, words)
                              + p.xi_derivative().mul_on_words(dq, words) * _MI,)
    return out


def partner_orders(others: Jets, order: int, n: int) -> tuple[int, ...]:
    """The orders of the ``others`` table that a jet of ``order`` on the
    other side meets in some case, highest first: left order r and right
    order l meet when r + l + n - 1 >= 0."""
    return tuple(o for o in sorted(others, reverse=True) if order + o + n - 1 >= 0)


def partner_words(others: Jets, orders: Iterable[int]) -> set[Word]:
    """Every Clifford word the ``others`` jets at ``orders`` carry, at any xn
    order.  The fiber trace of a product of two words is zero unless they
    agree, and pi+ and d/dxn act word by word and make no word, so a jet
    is built and used on its partners' words alone."""
    return {word for o in orders for jet in others[o]
            for elem in jet.num.values() for word in elem.terms}


def nabla_jets(model: Model) -> Jets:
    """sigma_2 = -X(xi)Y(xi) and sigma_1 of nabla_X nabla_Y, which carries the
    double-covariant connection contracted with each field."""
    conn = [model.connection(d, model.smix) for d in range(1, model.n + 1)]
    xblk, yblk = (sum(blk * model.var(ind) for blk, ind in zip(conn, atoms)) * GR_I
                  for atoms in (model.X, model.Y))
    return {2: (-model.t_full_num,),
            1: (model.field(model.dXY) * GR_I + model.field(model.X) * yblk
                + model.field(model.Y) * xblk,)}


def parametrix(sigma: Jets, top: Jets) -> Jets:
    """``top``, an inverse's top order q with its d_xn jet dq, and the next
    order -q (s_1 q + (-i) d_xi_n s_0 dq) from the operator's top two orders
    s_0, s_1: the order that ``compose(sigma, .)`` needs to vanish at -1."""
    k, low = max(sigma), max(top)
    (s0,), (s1,), (q, dq) = sigma[k], sigma[k - 1], top[low]
    return {**top, low - 1: ((-q) * (s1 * q + s0.xi_derivative() * _MI * dq),)}


def inverse_first(model: Model) -> Jets:
    """sigma_-1 = i c(xi)/|xi|^2 of the inverse first-order operator and its
    d_xn jet, and sigma_-2 by :func:`parametrix` of the operator's symbol."""
    reg, hp = model.registry, model.hp_poly
    icxi = model.c_xi_num * GR_I
    half = model.cxi * (hp * _HALF)
    inner = XiRational(reg, {0: half, 2: half}) + model.c_xi_num * -hp
    return parametrix({1: (icxi,), 0: (XiRational.build(reg, {0: model.sigma0_base}),)},
                      {-1: (XiRational(reg, icxi.num, 1, 1),
                            XiRational(reg, (inner * GR_I).num, 2, 2))})


def inverse_square_top(model: Model) -> Jets:
    """sigma_-2 = 1/|xi|^2 of the inverse square and its d_xn jet."""
    reg = model.registry
    return {-2: (XiRational.build(reg, {0: 1}, 1, 1),
                 XiRational.build(reg, {0: -model.hp_poly}, 2, 2))}


def inverse_square(model: Model) -> Jets:
    """:func:`inverse_square_top` and sigma_-3 by :func:`parametrix`; sigma_1 of
    the square is i(-2 times the base connection paired with xi + bracket)."""
    bracket = model.pair(lambda d: model.connection(d, model.nabtm)) * (-2) + model.collar_bracket
    square = {2: (XiRational.build(model.registry, {0: 1, 2: 1}),), 1: (bracket * GR_I,)}
    return parametrix(square, inverse_square_top(model))


def symbols_d2d2(model: Model) -> tuple[Jets, Jets]:
    """nabla_X nabla_Y D^-2 against D^-2, the left order -1 and the right
    order -3 on their partners' words (the top orders carry no other)."""
    inv2, n = inverse_square(model), model.n
    left = compose(nabla_jets(model), inv2, partner_words(inv2, partner_orders(inv2, -1, n)))
    sigma3 = inv2[-3][0].on_words(partner_words(left, partner_orders(left, -3, n)))
    return left, {-2: inv2[-2], -3: (sigma3,)}


def sigma2_cube_num(model: Model) -> XiRational:
    """Numerator of the second-order symbol of the cubed operator."""
    reg = model.registry
    conn, zero = model.pair(model.connection), ScalarPoly.zero(reg)
    mixed = model.pair(lambda d: model.spin_connection(
        lambda *_: zero, lambda *_: zero, lambda j, s: model.var(model.smix[j, s, d])))
    t1 = XiRational(reg, {0: model.cdxn * model.hp_poly})
    t2 = model.c_xi_num * ((conn + mixed) * 4 - model.collar_bracket * 2)
    t3 = conn * XiRational.build(reg, {0: 1, 2: 1})
    return t1 + t2 + t3


def sigma_m4_cube(model: Model, words: Container[Word]) -> XiRational:
    """Order ``-4`` symbol of the inverse cube at the base point, on the
    Clifford ``words`` of the jets it meets alone: its two outer products
    skip the word pairs that land elsewhere."""
    reg = model.registry
    hp = model.hp_poly
    cxin = model.c_xi_num
    first = (cxin * sigma2_cube_num(model)).mul_on_words(cxin, words)
    w = model.cdxn * model.cxi * (hp * _HALF)
    bracket = (XiRational(reg, {0: w, 2: w * 2, 4: w})
               + model.cdxn * cxin * (hp * (-2))
               + XiRational.build(reg, {1: 1}) * (cxin * model.cxi) * hp
               + XiRational.build(reg, {1: hp * 4}))
    second = cxin.mul_on_words(bracket, words) * GR_I
    return XiRational(reg, (first + second).num, 4, 4)


def symbols_d1d3(model: Model) -> tuple[Jets, Jets]:
    """nabla_X nabla_Y D^-1 against D^-3 = D^-1 D^-2, whose sigma_-4 is
    written out.  Each side's next order is built on the words of the jets
    it meets, so those come first: the right sigma_-3 before the left order
    0, and the left order 1 before sigma_-4 (the top orders carry no other
    word).  inverse_square_top has no sigma_-3, so the right sigma_-3 has
    no next order to build."""
    inv1, n = inverse_first(model), model.n
    right = {-3: compose(inv1, inverse_square_top(model), ())[-3]}
    left = compose(nabla_jets(model), inv1, partner_words(right, partner_orders(right, 0, n)))
    right[-4] = (sigma_m4_cube(model, partner_words(left, partner_orders(left, -4, n))),)
    return left, right


# ---------------------------------------------------------------------------
# case labels and expected rows

D2D2_LABELS: Mapping[tuple[int, int, int, int, int], str] = {
    (0, -2, 0, 0, 1): "a-I",
    (0, -2, 0, 1, 0): "a-II",
    (0, -2, 1, 0, 0): "a-III",
    (0, -3, 0, 0, 0): "b",
    (-1, -2, 0, 0, 0): "c",
}

D1D3_LABELS: Mapping[tuple[int, int, int, int, int], str] = {
    (1, -3, 0, 0, 1): "a-I",
    (1, -3, 0, 1, 0): "a-II",
    (1, -3, 1, 0, 0): "a-III",
    (0, -3, 0, 0, 0): "b",
    (1, -4, 0, 0, 0): "c",
}


def row(model: Model, **coefficients) -> ScalarPoly:
    """The sum of each coefficient times the row shape it is named after."""
    return sum((model.row_shapes[name].poly * co for name, co in coefficients.items()),
               ScalarPoly.zero(model.registry))


def expected_d2d2(model: Model) -> dict[str, ScalarPoly]:
    return {label: row(model, **co) for label, co in {
        "a-I": {},
        "a-II": {"sigma_hp": Fraction(5, 24), "normal_hp": Fraction(-1, 8)},
        "a-III": {"sigma_hp": Fraction(-5, 24), "normal_hp": Fraction(5, 8)},
        "b": {"sigma_hp": Fraction(11, 24), "normal_hp": Fraction(-11, 8)},
        "c": {"sigma_hp": Fraction(-2, 3), "normal_hp": Fraction(-5, 8)},
        "total": {"sigma_hp": Fraction(-5, 24), "normal_hp": Fraction(-3, 2)},
    }.items()}


def expected_d1d3(model: Model) -> dict[str, ScalarPoly]:
    b_parts = {"xy": GR(0, Fraction(3, 2)),
               "sigma_div_hp": Fraction(1, 3), "normal_div_hp": Fraction(1, 2)}
    return {label: row(model, **co) for label, co in {
        "a-I": {},
        "a-II": {"sigma_hp": Fraction(5, 16), "normal_hp": Fraction(1, 16)},
        "a-III": {"sigma_hp": Fraction(-25, 48), "normal_hp": Fraction(25, 16)},
        "b": {"sigma_hp": Fraction(-5, 16), "normal_hp": Fraction(3, 16), **b_parts},
        "c": {"sigma_hp": GR(Fraction(129, 320), Fraction(-44, 320)),
              "normal_hp": GR(Fraction(-245, 96), Fraction(26, 96))},
        "total": {"sigma_hp": GR(Fraction(-113, 960), Fraction(-132, 960)),
                  "normal_hp": GR(Fraction(-71, 96), Fraction(26, 96)), **b_parts},
    }.items()}


def derived_d2d2(model: Model) -> dict[str, ScalarPoly]:
    """Rows this engine re-derives for the second composition where the
    recorded table cannot be reproduced; frozen after independent checks.

    ``tests/test_acceptance.py::test_second_composition_rows_exact``
    corroborates them upstream of the engine's jets: a floating-point
    matrix twin (``tests/twin.py``) recomputes row ``c`` and must agree
    with the engine, and disagree with the recorded row, at two bindings
    before these rows are asserted exactly."""
    return {"c": row(model, sigma_hp=Fraction(-11, 24), normal_hp=Fraction(-1, 8), xy_pi=-1),
            "total": row(model, normal_hp=-1, xy_pi=-1)}


def derived_d1d3_structure(model: Model) -> dict[str, ScalarPoly]:
    """Legible part of the re-derived rows for the third composition.

    The full rows additionally carry connection-atom cross terms that the
    recorded table drops; those are pinned by :func:`derived_fingerprints`
    rather than expanded here.  The divergence terms come out *without*
    the collar-rate factor, and rows ``a-II`` and ``a-III`` are the
    recorded ones.
    """
    b_row = row(model, sigma_hp=Fraction(-5, 16), normal_hp=Fraction(3, 16),
                xy_pi=Fraction(-3, 2), sigma_div=Fraction(1, 3), normal_div=Fraction(1, 2))
    c_row = row(model, sigma_hp=GR(Fraction(-1, 6), Fraction(11, 16)),
                normal_hp=GR(Fraction(1, 2), Fraction(-33, 16)))
    recorded = expected_d1d3(model)
    return {"b": b_row, "c": c_row,
            "total": b_row + c_row + recorded["a-II"] + recorded["a-III"]}


# ---------------------------------------------------------------------------
# exact fingerprints
#
# Every boundary row, evaluated with all non-marker atoms bound to
# deterministic integers (sorted-name order), collapses to a single exact
# coefficient of pi*Omega3.  Two independent binding recipes pin each row.

FINGERPRINT_RECIPES: tuple[tuple[str, int, int], ...] = (
    ("fp1", 2, 1),
    ("fp2", 3, -1),
)


def atom_binding(model: Model, rule: Callable[[int], GR]) -> dict[Indeterminate, GR]:
    """``rule(k)`` for the k-th non-marker atom in sorted-name order, so the
    values do not depend on registry construction order."""
    names = sorted(ind.name for ind in model.registry if ind.kind != KIND_MARKER)
    return {model.registry.by_name(nm): rule(k) for k, nm in enumerate(names)}


def fingerprint_binding(model: Model, offset: int, mul: int) -> dict[Indeterminate, GR]:
    return atom_binding(model, lambda k: GR(mul * (k + offset)))


def row_fingerprint(model: Model, row: ScalarPoly, offset: int, mul: int) -> GR:
    sub = row.substitute(fingerprint_binding(model, offset, mul))
    allowed = tuple(sorted(((model.pi.id, 1), (model.omega3.id, 1))))
    for mono in sub.project((model.pi, model.omega3)):
        if tuple(sorted(mono)) != allowed:
            raise ValueError(f"unexpected marker monomial {mono!r} in fingerprint")
    return sub.coefficient_of({model.pi: 1, model.omega3: 1}).constant_part()


def derived_fingerprints() -> dict[str, dict[str, dict[str, GR]]]:
    """Exact fingerprints of every engine boundary row, frozen after the
    residue calculus was corroborated case-by-case by adaptive quadrature."""
    return {
        "boundary-d2d2": {
            "fp1": {
                "a-I": GR(0),
                "a-II": GR(Fraction(1085, 6)),
                "a-III": GR(Fraction(1645, 6)),
                "b": GR(Fraction(-3619, 6)),
                "c": GR(Fraction(-4625, 6)),
                "total": GR(-919),
            },
            "fp2": {
                "a-I": GR(0),
                "a-II": GR(Fraction(-1195, 4)),
                "a-III": GR(Fraction(-1325, 4)),
                "b": GR(Fraction(2915, 4)),
                "c": GR(Fraction(4685, 4)),
                "total": GR(1270),
            },
        },
        "boundary-d1d3": {
            "fp1": {
                "a-I": GR(0),
                "a-II": GR(Fraction(1995, 4)),
                "a-III": GR(Fraction(8225, 12)),
                "b": GR(Fraction(-7621, 12)),
                "c": GR(Fraction(5342, 3), Fraction(-3619, 4)),
                "total": GR(Fraction(9319, 4), Fraction(-3619, 4)),
            },
            "fp2": {
                "a-I": GR(0),
                "a-II": GR(Fraction(-6105, 8)),
                "a-III": GR(Fraction(-6625, 8)),
                "b": GR(Fraction(13387, 24)),
                "c": GR(Fraction(-9628, 3), Fraction(8745, 8)),
                "total": GR(Fraction(-101827, 24), Fraction(8745, 8)),
            },
        },
    }


# ---------------------------------------------------------------------------
# waivers


class Waiver(NamedTuple):
    suite: str
    label: str
    reason: str


def builtin_waivers() -> tuple[Waiver, ...]:
    corr = ("recomputation from the frozen jets disagrees with the recorded "
            "row; the engine value is corroborated by adaptive quadrature")
    return (
        Waiver("boundary-d2d2", "c", corr),
        Waiver("boundary-d2d2", "total", corr),
        Waiver("boundary-d1d3", "b", corr),
        Waiver("boundary-d1d3", "c", corr),
        Waiver("boundary-d1d3", "total", corr),
    )


# ---------------------------------------------------------------------------
# pinned intermediate displays


class DisplayCheck(NamedTuple):
    record_id: str
    engine: XiRational
    encoded: XiRational
    note: str = ""


def display_checks(suite: Suite) -> tuple[DisplayCheck, ...]:
    """The five pinned intermediate displays of one boundary suite, read off
    the suite's own factor table."""
    model = suite.model
    reg = model.registry
    hp = model.hp_poly
    t, c, nn = model.t_hat, model.c_hat, model.n_hat
    factor = suite.factor

    if suite.name == "boundary-d2d2":
        return (
            DisplayCheck("plus-part-base", factor(True, 0, 0, 0), XiRational.build(
                reg, {0: (t - nn) * GR(0, _HALF) - c * GR(_HALF)}, 1)),
            DisplayCheck("plus-part-normal-jet", factor(True, 0, 1, 0), XiRational.build(
                reg, {0: t * (hp * GR(Fraction(-1, 2))) + c * (hp * GR(0, Fraction(-1, 4))),
                      1: (t + nn) * (hp * GR(0, Fraction(-1, 4)))}, 2),
                note="source line omits the collar-rate factor on the two mixed terms"),
            DisplayCheck("plus-part-first-derivative", factor(True, 0, 0, 1), XiRational.build(
                reg, {0: (t - nn) * GR(0, Fraction(-1, 2)) + c * GR(_HALF)}, 2)),
            DisplayCheck("plus-part-second-derivative", factor(True, 0, 0, 2),
                         XiRational.build(reg, {0: (t - nn) * GR_I - c}, 3),
                         note="imaginary unit restored on the normal-normal coefficient"),
            DisplayCheck("right-second-derivative", factor(False, -2, 0, 2),
                         XiRational.build(reg, {0: -2, 2: 6}, 3, 3)),
        )

    xi_c = model.cxi + model.cdxn * GR_I          # c(xi') + i c(dxn)
    theta = model.cxi * _MI + model.cdxn          # -i c(xi') + c(dxn)
    return (
        DisplayCheck("plus-part-base", factor(True, 1, 0, 0), XiRational(
            reg, {0: xi_c * ((nn - t) * GR(_HALF)) + theta * (c * GR(_HALF))}, 1)),
        DisplayCheck("plus-part-first-derivative", factor(True, 1, 0, 1), XiRational(
            reg, {0: xi_c * ((t - nn) * GR(_HALF)) - theta * (c * GR(_HALF))}, 2)),
        DisplayCheck("plus-part-second-derivative", factor(True, 1, 0, 2),
                     XiRational(reg, {0: xi_c * (nn - t) + theta * c}, 3)),
        DisplayCheck("right-first-derivative", factor(False, -3, 0, 1), XiRational(
            reg, {0: model.cdxn * GR_I, 1: model.cxi * GR(0, -4),
                  2: model.cdxn * GR(0, -3)}, 3, 3)),
        DisplayCheck("right-second-derivative", factor(False, -3, 0, 2), XiRational(
            reg, {0: model.cxi * GR(0, -4), 1: model.cdxn * GR(0, -12),
                  2: model.cxi * GR(0, 20), 3: model.cdxn * GR(0, 12)}, 4, 4)),
    )


# ---------------------------------------------------------------------------
# suite containers


class Suite:
    """One boundary suite's jets, case labels, expected rows and table of
    boundary factors, built once per run by :func:`load_suite`."""

    __slots__ = ("name", "model", "left", "right", "labels", "expected", "_factors")

    def __init__(self, name: str, model: Model, left: Jets, right: Jets,
                 labels: Mapping[tuple[int, int, int, int, int], str],
                 expected: Mapping[str, ScalarPoly]):
        self.name, self.model, self.left, self.right = name, model, left, right
        self.labels, self.expected, self._factors = labels, expected, {}

    def __eq__(self, other):  # the factor table is derived, so not compared
        return isinstance(other, Suite) and all(
            getattr(self, key) == getattr(other, key) for key in self.__slots__[:-1])

    def factor(self, plus: bool, order: int, xn_order: int, nxi: int) -> XiRational:
        """``nxi`` xn-covariable derivatives of jet ``[order][xn_order]``: of
        the left factor after pi+ when ``plus`` holds, else of the right
        factor.  Each is built at most once per suite.

        No word is cut here: ``load_suite``'s jets are built on their
        partners' words (:func:`partner_words` of :func:`partner_orders`)
        already."""
        key = (plus, order, xn_order, nxi)
        got = self._factors.get(key)
        if got is None:
            if nxi:
                got = self.factor(plus, order, xn_order, nxi - 1).xi_derivative()
            else:
                got = (self.left if plus else self.right)[order][xn_order]
                if plus:
                    got = got.pi_plus()
            self._factors[key] = got
        return got


BOUNDARY_SUITES = ("boundary-d2d2", "boundary-d1d3")
ALL_SUITES = ("interior", "traces") + BOUNDARY_SUITES


def load_suite(name: str, model: Model | None = None) -> Suite:
    if name not in BOUNDARY_SUITES:
        raise KeyError(f"unknown boundary suite {name!r}; "
                       f"expected one of {BOUNDARY_SUITES}")
    model = model or build_model()
    if name == "boundary-d2d2":
        left, right = symbols_d2d2(model)
        labels, expected = D2D2_LABELS, expected_d2d2(model)
    else:
        left, right = symbols_d1d3(model)
        labels, expected = D1D3_LABELS, expected_d1d3(model)
    return Suite(name, model, left, right, labels, expected)


# ---------------------------------------------------------------------------
# interior expected data


INTERIOR_CASES: tuple[tuple[int, int], ...] = ((2, 2), (4, 0), (2, 4))


def interior_expected(p: int, q: int) -> dict[str, Fraction]:
    """Closed-form interior coefficients in dimension ``n = p + q``: the
    quadratic-form weight (as a multiple of pi**(n/2)), the metric
    scalar-curvature weight, and the curvature-two-form weight (identically
    zero)."""
    vol = Fraction(2 ** (p // 2 + q + 1), 6 * math.factorial((p + q) // 2 - 1))
    return {
        "einstein": vol,
        "scalar": Fraction(2) ** (p // 2 + q - 3),
        "two-form": Fraction(0),
        "endo-trace": Fraction(2) ** (p // 2 + q - 2),
    }
