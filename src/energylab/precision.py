"""Working-precision policy shared by every norm and certificate pipeline.

Every function value is a float64 number (see discrete_core.DiscreteFunction),
so no input rounding enters any bound.  HP_SUPPORT_CAP decides only how
||f^||_4^4 is evaluated.  Up to the cap it is summed exactly (big-integer
autoconvolution) and rounded once to WORKING_PREC bits, so its relative
bound is hp_unit().  Beyond the cap it is one float64 FFT autoconvolution of
the values scaled by an exact power of two (max in [1, 2)), rescaled in mpf,
whose forward error is bounded by C. Percival, Math. Comp. 72 (2003),
Theorem 5.1 (see discrete_core._autoconvolve).  lq norms take one float64
path at every support: the same prescale, a correctly rounded sum
(math.fsum) and the root at WORKING_PREC bits, with a bound that does not
grow with the support (see discrete_core.lq_norm_with_error).
"""

from __future__ import annotations

from mpmath import mp

# >= 100-bit mantissa so certificate margins dominate rounding by a wide gap.
WORKING_PREC = 120

# Support length above which the exact autoconvolution of ||f^||_4^4 is
# replaced by a float64 FFT with a proved bound.
HP_SUPPORT_CAP = 2048

FLOAT64_EPS = 2.0 ** -52


def working():
    """Context manager pinning mpmath to the working precision."""
    return mp.workprec(WORKING_PREC)


def hp_unit() -> float:
    """Unit roundoff of the extended-precision regime."""
    return 2.0 ** (1 - WORKING_PREC)
