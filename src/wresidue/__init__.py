"""Exact symbolic audit of spectral functional coefficients.

The engine recomputes, in Gaussian-rational arithmetic over formal markers,
the interior and boundary coefficients of a second-order functional built
from two one-sided symbol compositions on a four-dimensional collar, and
compares them against frozen recorded tables.  Everything is exact; floats
appear only in corroborating oracles.
"""

__version__ = "0.1.0"
