import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from wresidue import clifford
from wresidue.clifford import (
    CF,
    CN,
    HC,
    CliffordElement,
    Frame,
    fiber_dimension,
    generator_square_sign,
    word_mul,
)
from wresidue.oracles import element_matrix, generator_matrices, word_matrix
from wresidue.scalars import (
    GR,
    GR_ONE,
    KIND_CONN,
    Registry,
    RegistryMismatchError,
    ScalarPoly,
)
from wresidue.verifier import run

LETTERS = ((CF, 1), (CF, 2), (CN, 1), (CN, 2), (HC, 1), (HC, 2))


@pytest.fixture()
def reg():
    return Registry()


def _gen(reg, kind, index):
    return CliffordElement.generator(reg, kind, index)


def test_generator_squares(reg):
    for kind, sign in ((CF, -1), (CN, -1), (HC, 1)):
        g = _gen(reg, kind, 1)
        assert generator_square_sign((kind, 1)) == sign
        assert g * g == CliffordElement.identity(reg, ScalarPoly.const(reg, GR(sign)))


def test_distinct_generators_anticommute(reg):
    gens = [_gen(reg, k, i) for k, i in LETTERS]
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            assert gens[a] * gens[b] + gens[b] * gens[a] == CliffordElement.zero(reg)


def test_identity_trace(reg):
    assert fiber_dimension(2, 2) == 8
    assert CliffordElement.identity(reg).trace(2, 2) == ScalarPoly.const(reg, GR(8))


def test_nonidentity_words_are_traceless(reg):
    for kind, index in LETTERS:
        assert _gen(reg, kind, index).trace(2, 2).is_zero()
    prod = _gen(reg, CF, 1) * _gen(reg, HC, 2)
    assert prod.trace(2, 2).is_zero()


def _word_element(reg, word, coeff=1):
    return CliffordElement(reg, {word: ScalarPoly.const(reg, coeff)})


def test_word_product_table_matches_word_mul(reg):
    """Every product of two of the 64 words over the six letters, through
    the table, equals the uncached normal ordering."""
    words = [w for r in range(len(LETTERS) + 1) for w in combinations(LETTERS, r)]
    assert len(words) == 64
    for w1 in words:
        for w2 in words:
            sign, word = word_mul(w1, w2)
            assert _word_element(reg, w1) * _word_element(reg, w2) == \
                _word_element(reg, word, sign)
            assert clifford._WORD_PRODUCTS[w1, w2] == (sign, word)


def test_one_word_constructors_keep_their_checks(reg):
    with pytest.raises(ValueError, match="unknown generator kind"):
        CliffordElement.generator(reg, 7, 1)
    with pytest.raises(ValueError, match="starts at 1"):
        CliffordElement.generator(reg, CF, 0)
    with pytest.raises(RegistryMismatchError):
        CliffordElement.identity(reg, ScalarPoly.const(Registry(), 2))
    for zero in (0, Fraction(0), GR(0), ScalarPoly.zero(reg)):
        assert CliffordElement.identity(reg, zero).terms == {}
    assert CliffordElement.generator(reg, HC, 2) == \
        CliffordElement(reg, {((HC, 2),): ScalarPoly.const(reg, 1)})
    assert CliffordElement.identity(reg, 3) == CliffordElement(reg, {(): ScalarPoly.const(reg, 3)})


def test_products_keep_registry_checks_and_prune_zero(reg):
    g, other = _gen(reg, CF, 1), Registry()
    for foreign in (_gen(other, CF, 1), CliffordElement.zero(other), ScalarPoly.const(other, 2)):
        with pytest.raises(RegistryMismatchError):
            g * foreign
    for zero in (0, Fraction(0), GR(0), ScalarPoly.zero(reg)):
        assert (g * zero).terms == {} and (zero * g).terms == {}


def test_square_sign_probe_reaches_a_warm_product_table(monkeypatch):
    """The product table records the square signs it was built from, so a
    patched sign reaches products made after the table is warm."""
    frame = Frame(2, 2)
    hc = frame.gen(HC, 1)

    def traces():
        _, text = run(("traces",), environ={})
        (suite,) = json.loads(text)["suites"]
        return {r["id"]: r["status"] for r in suite["records"]}

    clean = traces()
    assert hc * hc == frame.ident(1)
    monkeypatch.setitem(clifford._SQ_SIGN, HC, -1)
    assert hc * hc == frame.ident(-1)
    mutated = traces()
    assert {k for k in clean if mutated[k] != clean[k]} == {"perp-pair-difference"}
    monkeypatch.undo()
    assert hc * hc == frame.ident(1)
    assert traces() == clean


def _random_element(reg, rng, max_words=4):
    out = CliffordElement.zero(reg)
    for _ in range(rng.randint(1, max_words)):
        coeff = GR(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        term = CliffordElement.identity(reg, ScalarPoly.const(reg, coeff))
        for letter in rng.sample(LETTERS, rng.randint(0, len(LETTERS))):
            term = term * _gen(reg, *letter)
        out = out + term
    return out


def test_word_mul_confluence(sweep):
    """Normal ordering is associative however a product is parenthesised."""
    rng, reg = random.Random(11), Registry()
    for k in range(2000):
        assert sweep.word_confluence(rng, reg, None), k


def test_element_product_associativity(reg):
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (_random_element(reg, rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_trace_cyclicity(sweep):
    rng, reg = random.Random(23), Registry()
    for k in range(2000):
        assert sweep.trace_cyclicity(rng, reg, None), k


def test_product_trace_equals_full_product_trace(reg):
    rng = random.Random(31)
    for _ in range(400):
        a = _random_element(reg, rng)
        b = _random_element(reg, rng)
        assert a.product_trace(b, 2, 2) == (a * b).trace(2, 2)


def _layout(elem):
    """Words, monomials and values of an element, in their order."""
    return [(w, list(p.terms.items())) for w, p in elem.terms.items()]


def _poly_element(reg, rng, atoms):
    """Up to three words, each with up to three monomials in ``atoms``."""
    out = CliffordElement.zero(reg)
    for _ in range(rng.randint(1, 3)):
        word = CliffordElement.identity(reg)
        for letter in rng.sample(LETTERS, rng.randint(0, 2)):
            word = word * _gen(reg, *letter)
        for _ in range(rng.randint(1, 3)):
            coeff = GR(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(-2, 2))
            out = out + word * (ScalarPoly.const(reg, coeff) * rng.choice(atoms))
    return out


def _sum_by_addition(reg, pieces):
    out = CliffordElement.zero(reg)
    for elem, turn, scale in pieces:
        out = out + elem * (GR(0, 1) ** turn * scale)
    return out


def test_rotated_sum_is_repeated_addition(reg):
    """Same value, word order and monomial order as adding one piece at a
    time, including words and monomials that cancel and come back."""
    atoms = [ScalarPoly.var(reg, reg.add(name, KIND_CONN)) for name in ("w0", "w1", "w2")]
    rng = random.Random(41)
    for _ in range(300):
        pieces = []
        for _ in range(rng.randint(0, 5)):
            if pieces and rng.random() < 0.4:
                # undo part of an earlier piece: -i^t s x == i^(t+2) s x
                elem, turn, scale = rng.choice(pieces)
                kept = dict(list(elem.terms.items())[:rng.randint(1, len(elem.terms))])
                pieces.append((CliffordElement(reg, kept), turn + 2, scale))
            else:
                pieces.append((_poly_element(reg, rng, atoms), rng.randint(-6, 6),
                               rng.choice((1, -1, 3, Fraction(-2, 5)))))
        got, want = CliffordElement.rotated_sum(reg, pieces), _sum_by_addition(reg, pieces)
        assert got == want
        assert _layout(got) == _layout(want)


def test_rotated_sum_puts_a_returning_word_last(reg):
    w0, w1 = (ScalarPoly.var(reg, reg.add(name, KIND_CONN)) for name in ("w0", "w1"))
    e1, e2 = _gen(reg, CF, 1), _gen(reg, HC, 2)
    x = e1 * (w0 + w1)
    pieces = [(x, 0, 1), (e2 * w0, 1, 2), (e1 * w1, 2, 1),  # drops e1's w1
              (e1 * w0, 2, 1),  # drops e1
              (e1 * w1, 0, 1), (e1 * w0, 0, 3)]  # e1 comes back last, w1 before w0
    got = CliffordElement.rotated_sum(reg, pieces)
    assert _layout(got) == _layout(_sum_by_addition(reg, pieces))
    assert [w for w in got.terms] == [((HC, 2),), ((CF, 1),)]
    assert list(got.terms[((CF, 1),)].terms) == [((1, 1),), ((0, 1),)]


@pytest.mark.parametrize("coeff, turn, scale", [
    (GR(3, -2), 2, 5),  # integer coefficient, integer scale: the d == 1 shortcut
    (GR(-4, 6), 1, -1),
    (GR(Fraction(3, 4), Fraction(-5, 6)), 0, Fraction(-8, 9)),  # negative Fraction scale
    (GR(Fraction(6, 5), 2), 3, Fraction(-10, 3)),  # turn 3 and cancelling across
    (GR(7, 0), -1, Fraction(3, 14)),  # turn -1 is turn 3
    (GR(0, Fraction(1, 2)), 3, 4),
    (GR(3, -2), 1, 1),  # a pure quarter turn, as the pole test makes it, at d == 1
    (GR(Fraction(6, 5), Fraction(-1, 3)), 3, 1),  # and at d > 1
])
def test_rotated_sum_turns_and_scales_in_one_step(reg, coeff, turn, scale):
    w0, w1 = (ScalarPoly.var(reg, reg.add(name, KIND_CONN)) for name in ("w0", "w1"))
    e1 = _gen(reg, CF, 1)
    elem = e1 * (w0 * coeff + w1 * GR(Fraction(2, 3))) + CliffordElement.identity(reg, w1 * coeff)
    pieces = [(elem, turn, scale), (e1 * w1, turn + 1, scale)]
    got, want = CliffordElement.rotated_sum(reg, pieces), _sum_by_addition(reg, pieces)
    assert got == want
    assert _layout(got) == _layout(want)
    # == compares the stored triples, so this also checks the one value is canonical
    scale = Fraction(scale)
    assert coeff.turn_scale(turn % 4, scale.numerator, scale.denominator) == \
        coeff * GR(0, 1) ** turn * GR(scale)


def _product_trace_scaling_the_product(a, b, p, q):
    """The product trace as it was first written: each matching pair's
    product, scaled afterwards."""
    dim = fiber_dimension(p, q)
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    acc = ScalarPoly.zero(a.registry)
    for w, c1 in small.items():
        if w in big:
            acc = acc + c1 * big[w] * (word_mul(w, w)[0] * dim)
    return acc


def test_product_trace_scales_a_factor_and_keeps_the_order(reg):
    atoms = [ScalarPoly.var(reg, reg.add(name, KIND_CONN)) for name in ("w0", "w1", "w2")]
    rng = random.Random(43)
    for _ in range(300):
        a, b = _poly_element(reg, rng, atoms), _poly_element(reg, rng, atoms)
        got, want = a.product_trace(b, 2, 2), _product_trace_scaling_the_product(a, b, 2, 2)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())


# -- matrix realization oracle ----------------------------------------------


def test_matrix_relations():
    mats = generator_matrices()
    import numpy as np
    eye = np.eye(8)
    for gen, m in mats.items():
        sign = generator_square_sign(gen)
        assert np.allclose(m @ m, sign * eye)
    keys = list(mats)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            ma, mb = mats[keys[a]], mats[keys[b]]
            assert np.allclose(ma @ mb + mb @ ma, 0)
    # word matrices are built once and shared read-only; the generator
    # matrices stay fresh arrays, so writing into them reaches no cache
    cached = word_matrix(((CF, 1), (HC, 2)))
    assert word_matrix(((CF, 1), (HC, 2))) is cached
    with pytest.raises(ValueError):
        cached[0, 0] = 1
    fresh = generator_matrices()
    for gen, m in mats.items():
        assert m is not fresh[gen]
        m[0, 0] += 1
    assert np.array_equal(word_matrix(((CF, 1),)), fresh[(CF, 1)])


def test_matrix_oracle_trace(sweep):
    rng, reg = random.Random(41), Registry()
    for k in range(300):
        assert sweep.matrix_trace(rng, reg, None), k


def test_matrix_oracle_products(reg):
    import numpy as np
    rng = random.Random(43)
    for _ in range(300):
        a = _random_element(reg, rng, 3)
        b = _random_element(reg, rng, 3)
        lhs = element_matrix(a * b, {})
        rhs = element_matrix(a, {}) @ element_matrix(b, {})
        assert np.allclose(lhs, rhs, atol=1e-9)


# -- the split frame --------------------------------------------------------


def test_frame_letters_are_the_expected_generators():
    for p, q in ((2, 2), (4, 2), (2, 4)):
        frame = Frame(p, q)
        reg, n = frame.registry, p + q
        assert frame.n == n
        assert frame.c(1) == _gen(reg, CF, 1)
        assert frame.c(p) == _gen(reg, CF, p)
        assert frame.c(p + 1) == _gen(reg, CN, 1)
        assert frame.c(n) == _gen(reg, CN, q)
        assert frame.gen(HC, 2) == _gen(reg, HC, 2)
        assert frame.c(n) * frame.c(n) == frame.ident(-1)
        for a in (0, n + 1):
            with pytest.raises(ValueError, match="out of range"):
                frame.c(a)


def test_frame_needs_even_distinguished_rank():
    with pytest.raises(ValueError, match="even"):
        Frame(3, 2)


def test_substitute_and_map_coeffs(reg):
    from wresidue.scalars import KIND_CONN
    w = reg.add("w0F", KIND_CONN)
    elem = _gen(reg, CF, 1) * ScalarPoly.var(reg, w)
    bound = elem.substitute({w: GR(3)})
    assert bound == _gen(reg, CF, 1) * ScalarPoly.const(reg, GR(3))
