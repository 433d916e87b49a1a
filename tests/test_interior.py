import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from wresidue.clifford import CN, HC
from wresidue.interior import (
    InteriorSetting,
    curvature_form_traces,
    endomorphism_blocks,
    first_principles_coefficients,
    trace_endomorphism,
)
from wresidue.reference import INTERIOR_CASES, interior_expected
from wresidue.scalars import GR

RANKS = ((2, 2), (4, 2), (2, 4))


def test_registry_dump_pinned():
    """Atoms are added on first request, so the order in which the
    endomorphism blocks and the connection terms ask for their coefficients
    sets every atom id; this pins that order for all three rank splits."""
    dumps = []
    for p, q in RANKS:
        setting = InteriorSetting(p, q)
        endomorphism_blocks(setting)
        for tag in ("a", "b", "Da", "Db", "L"):
            setting.connection_term(tag)
        dumps.append([[i.id, i.name, i.kind] for i in setting.registry])
    assert hashlib.sha256(json.dumps(dumps).encode()).hexdigest() == (
        "277312a7b13cf4c77941e862264bf2feafcb4a8d55ff95e5754736ccec38b044")


def _trace_identity(p, q):
    return InteriorSetting(p, q).ident().trace(p, q).constant_part().re


def test_trace_identity_values():
    assert _trace_identity(2, 2) == 8
    assert _trace_identity(4, 2) == 16
    assert _trace_identity(2, 4) == 32


def test_endomorphism_scalar_coefficient():
    for p, q in RANKS:
        coeff, blocks = trace_endomorphism(InteriorSetting(p, q))
        assert coeff == Fraction(2) ** (p // 2 + q - 2)


def test_endomorphism_curvature_blocks_traceless():
    for p, q in RANKS:
        _, blocks = trace_endomorphism(InteriorSetting(p, q))
        for name, value in blocks.items():
            if name == "scalar":
                continue
            assert value.is_zero(), (p, q, name)


def test_endomorphism_block_structure():
    setting = InteriorSetting(2, 2)
    blocks = endomorphism_blocks(setting)
    assert set(blocks) == {"scalar", "mixed-pair", "leaf-pair", "perp-pair"}
    scalar = blocks["scalar"].trace(2, 2)
    assert scalar == setting.var(setting.scurv) * GR(2)


def _term_by_term_blocks(setting):
    """The curvature blocks one four-letter term at a time:
    ``curv(a, b, t, s) * first(a) second(b) hatc(h_s) hatc(h_t) / 4`` over
    (a, b, t, s) in that nesting order."""
    quarter = GR(Fraction(1, 4))
    ps, qs = range(1, setting.p + 1), range(1, setting.q + 1)
    hc, leaf, perp = (lambda s: setting.gen(HC, s)), setting.c, (lambda s: setting.gen(CN, s))

    def block(curv, first, firsts, second, seconds):
        return setting.family(product(firsts, seconds, qs, qs), curv,
                              lambda a, b, t, s: first(a) * second(b) * hc(s) * hc(t), quarter)

    return {"mixed-pair": block(setting.r_mixed, leaf, ps, perp, qs),
            "leaf-pair": block(setting.r_leaf, leaf, ps, leaf, ps),
            "perp-pair": block(setting.r_perp, perp, qs, perp, qs)}


def test_blocks_built_pair_by_pair_are_the_term_by_term_blocks():
    """Each curvature block, built pair by pair, equals the term-by-term sum
    in value, word order, monomial order per word and registry order."""
    for p, q in ((2, 2), (4, 2), (2, 4), (4, 0)):
        old, new = InteriorSetting(p, q), InteriorSetting(p, q)
        want, got = _term_by_term_blocks(old), endomorphism_blocks(new)
        assert [i.name for i in new.registry] == [i.name for i in old.registry], (p, q)
        for name, el in want.items():
            assert list(got[name].terms) == list(el.terms), (p, q, name)
            for word, coeff in el.terms.items():
                assert list(got[name].terms[word].terms.items()) == list(coeff.terms.items()), (
                    p, q, name, word)
        # with no perp directions every block is empty
        assert any(el.terms for el in want.values()) == bool(q), (p, q)


def test_derivative_and_commutator_traces_vanish():
    for p, q in RANKS:
        for name, value in curvature_form_traces(InteriorSetting(p, q)).items():
            assert value.is_zero(), (p, q, name)


def test_dual_route_agreement():
    for p, q in INTERIOR_CASES:
        closed = interior_expected(p, q)
        derived = first_principles_coefficients(p, q)
        assert set(derived) == set(closed), (p, q)
        assert derived["einstein"] == closed["einstein"], (p, q)
        assert derived["scalar"] == closed["scalar"], (p, q)
        assert derived["two-form"].is_zero() and closed["two-form"] == 0, (p, q)
        assert derived["endo-trace"] == closed["endo-trace"], (p, q)


def test_reference_rank_values():
    table = interior_expected(2, 2)
    assert table["einstein"] == Fraction(8, 3)
    assert table["scalar"] == 1
    assert table["two-form"] == 0
    assert table["endo-trace"] == 2


def test_parity_guards():
    with pytest.raises(ValueError):
        first_principles_coefficients(2, 1)
    with pytest.raises(ValueError):
        InteriorSetting(3, 2)


def test_commutator_trace_is_the_full_commutator_trace():
    """Each product of the commutator term, traced without its discarded
    words, is the trace of the whole product, and the term is the trace of
    the whole commutator."""
    for p, q in ((2, 2), (4, 0), (2, 4)):
        setting = InteriorSetting(p, q)
        a, b = setting.connection_term("a"), setting.connection_term("b")
        assert a.product_trace(b, p, q) == (a * b).trace(p, q) != 0
        assert b.product_trace(a, p, q) == (b * a).trace(p, q)
        assert curvature_form_traces(setting)["commutator"] == (a * b - b * a).trace(p, q)
