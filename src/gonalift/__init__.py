"""Exact lifting of low-genus curves from finite fields to number rings.

The package lifts a curve over F_q (odd characteristic) to a curve over
the order Z[t]/(m) of a number field in which p stays prime, preserving
both the genus and the F_q-gonality, and certifies the result through
Newton-polygon combinatorics and sampling.
"""

__version__ = "0.1.0"

from .ff import FqField, FqElement, chi2, sqrt

__all__ = [
    "FqField",
    "FqElement",
    "chi2",
    "sqrt",
    "__version__",
]
