"""Exact verification toolkit for the moduli space of 8 points on P^1."""

from .poly import (
    MultiPoly,
    discriminant_quartic,
    extract_exceptional,
    is_squarefree,
    poly_gcd,
    resultant,
    squarefree_part,
    variables,
)
from .stability import PointConfig, classify, luna_slice_basis, torus_monomial_weights
from .betti import BettiTable, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "discriminant_quartic",
    "extract_exceptional",
    "is_squarefree",
    "poly_gcd",
    "resultant",
    "squarefree_part",
    "variables",
    "PointConfig",
    "classify",
    "luna_slice_basis",
    "torus_monomial_weights",
    "BettiTable",
    "TruncatedSeries",
    "__version__",
]
