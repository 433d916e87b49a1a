"""Concrete matrix realization of the rank-(2, 2) generator algebra.

Three Pauli slots give an 8x8 representation in which the two square-(-1)
families pick up a factor of ``i`` and the square-(+1) family does not.
The formal fiber trace can then be cross-checked against honest matrix
traces on randomly generated elements.

Every Pauli factor, generator and word is a monomial matrix with entries in
the powers of ``i``, kept exactly as ``(cols, phases)``: row ``r`` holds
``i**phases[r]`` in column ``cols[r]`` and zeros elsewhere.
"""

from __future__ import annotations

import functools

from .clifford import CF, CN, HC, CliffordElement, Word

MonomialMatrix = tuple[tuple[int, ...], tuple[int, ...]]  # (cols, phases mod 4)

_S1: MonomialMatrix = ((1, 0), (0, 0))
_S2: MonomialMatrix = ((1, 0), (3, 1))  # [[0, -i], [i, 0]]
_S3: MonomialMatrix = ((0, 1), (0, 2))
_ID: MonomialMatrix = ((0, 1), (0, 0))
_EYE8: MonomialMatrix = (tuple(range(8)), (0,) * 8)
_POWERS_OF_I = (1, 1j, -1, -1j)


def _kron3(a: MonomialMatrix, b: MonomialMatrix, c: MonomialMatrix,
           phase: int = 0) -> MonomialMatrix:
    """``i**phase`` times the Kronecker product of three 2x2 factors."""
    cols, phases = [], []
    for ra in range(2):
        for rb in range(2):
            for rc in range(2):
                cols.append(4 * a[0][ra] + 2 * b[0][rb] + c[0][rc])
                phases.append((phase + a[1][ra] + b[1][rb] + c[1][rc]) % 4)
    return tuple(cols), tuple(phases)


def generator_matrices() -> dict[tuple[int, int], MonomialMatrix]:
    """Matrices for the six generators; distinct ones anticommute, squares
    are -1, -1, +1 by family."""
    return {
        (CF, 1): _kron3(_S1, _ID, _ID, 1),
        (CF, 2): _kron3(_S2, _ID, _ID, 1),
        (CN, 1): _kron3(_S3, _S1, _ID, 1),
        (CN, 2): _kron3(_S3, _S2, _ID, 1),
        (HC, 1): _kron3(_S3, _S3, _S1),
        (HC, 2): _kron3(_S3, _S3, _S2),
    }


def monomial_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """The exact product ``a @ b``: row r of ``a`` picks row ``a.cols[r]`` of ``b``."""
    (acols, aphases), (bcols, bphases) = a, b
    return (tuple(bcols[k] for k in acols),
            tuple((p + bphases[k]) % 4 for k, p in zip(acols, aphases)))


@functools.cache
def word_matrix(word: Word) -> MonomialMatrix:
    """The word's matrix, built on first use and then shared."""
    mats = generator_matrices()
    return functools.reduce(lambda out, g: monomial_mul(out, mats[g]), word, _EYE8)


def matrix_trace(element: CliffordElement, bindings: dict[int, complex]) -> complex:
    """Sum of each coefficient times its word matrix's trace, read exactly
    off the diagonal."""
    total = 0j
    for word, coeff in element.terms.items():
        cols, phases = word_matrix(word)
        trace = sum(_POWERS_OF_I[p] for r, (c, p) in enumerate(zip(cols, phases)) if c == r)
        total += coeff.eval_complex(bindings) * trace
    return total
