"""Exact renormalised multiple (Hurwitz) zeta values at nonpositive integers.

Everything is computed in exact rational arithmetic: the package never
touches floating point. The main entry points are

* :func:`renzeta.mzv.zeta_renorm` / :func:`renzeta.mzv.zeta_weak_renorm` /
  :func:`renzeta.mzv.zeta_alt` -- renormalised values at nonpositive
  integer arguments with a rational Hurwitz shift,
* :func:`renzeta.mzv.hdim_zeta` -- the higher-dimensional (sup-norm) variant,
* :func:`renzeta.chenint.zeta_tilde_renorm` -- the continuous
  (iterated-integral) analog, and
* the verification suites in :mod:`renzeta.verify` and the ``renzeta`` CLI.
"""

from .exactnum import LaurentSeries, Poly, Rational, RationalFunction
from .emsum import NONRATIONAL, LaurentData, nested_fp_res
from .mzv import (
    hdim_zeta,
    zeta2_closed,
    zeta_alt,
    zeta_renorm,
    zeta_weak_renorm,
)
from .chenint import zeta_tilde_renorm

__version__ = "0.1.0"

__all__ = [
    "LaurentData",
    "LaurentSeries",
    "NONRATIONAL",
    "Poly",
    "Rational",
    "RationalFunction",
    "hdim_zeta",
    "nested_fp_res",
    "zeta2_closed",
    "zeta_alt",
    "zeta_renorm",
    "zeta_tilde_renorm",
    "zeta_weak_renorm",
]
