"""Concrete matrix realization of the rank-(2, 2) generator algebra.

Three Pauli slots give an 8x8 representation in which the two square-(-1)
families pick up a factor of ``i`` and the square-(+1) family does not.
The formal fiber trace can then be cross-checked against honest matrix
traces on randomly generated elements.
"""

from __future__ import annotations

import functools

import numpy as np

from .clifford import CF, CN, HC, CliffordElement, Word

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def generator_matrices() -> dict[tuple[int, int], np.ndarray]:
    """Matrices for the six generators; distinct ones anticommute, squares
    are -1, -1, +1 by family."""
    return {
        (CF, 1): 1j * _kron3(_S1, _ID, _ID),
        (CF, 2): 1j * _kron3(_S2, _ID, _ID),
        (CN, 1): 1j * _kron3(_S3, _S1, _ID),
        (CN, 2): 1j * _kron3(_S3, _S2, _ID),
        (HC, 1): _kron3(_S3, _S3, _S1),
        (HC, 2): _kron3(_S3, _S3, _S2),
    }


@functools.cache
def word_matrix(word: Word) -> np.ndarray:
    """The word's matrix, built on first use and then shared read-only."""
    out = np.eye(8, dtype=complex)
    mats = generator_matrices()
    for g in word:
        out = out @ mats[g]
    out.flags.writeable = False
    return out


def element_matrix(element: CliffordElement, bindings: dict[int, complex]) -> np.ndarray:
    out = np.zeros((8, 8), dtype=complex)
    for word, coeff in element.terms.items():
        out += coeff.eval_complex(bindings) * word_matrix(word)
    return out


def matrix_trace(element: CliffordElement, bindings: dict[int, complex]) -> complex:
    return complex(np.trace(element_matrix(element, bindings)))
