"""Closed-form Gaussian norms on the real line and quadrature oracles: composite
Simpson, and an endpoint-corrected trapezoid for the truncated Gaussian.

For g(x) = exp(-x^2/A):
    ||g^||_4^4 = (1/2) (pi A)^{3/2}
    ||g||_q^q  = (pi A / q)^{1/2}
    ||g^||_4 / ||g||_q = ((1/4) q^{4/q} pi^{3-4/q} A^{3-4/q})^{1/8}
The quadrature routines validate these independently by integrating the
autoconvolution, never using the Gaussian convolution closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete_core import InvalidExponentError

# Sharp constant of the L4 Fourier-norm inequality on R, attained by Gaussians.
BECKNER_L4_POW4 = 4.0 * math.sqrt(3.0) / 9.0
# Companion constant 3*sqrt(3)/4 = 1/BECKNER_L4_POW4; its base-n logarithm is
# the gap between 3 and the asymptotic energy exponent.
ASYMPTOTIC_LOG_BASE = 3.0 * math.sqrt(3.0) / 4.0

QUADRATURE_REL_TOL = 1e-9  # largest relative move of a Simpson oracle at half its step
TRUNCATED_SAMPLES = 4000  # trapezoid samples per side of [-M, M] for g_M
TRUNCATED_REL_TOL = 1e-6  # largest relative move of g_M's oracle at twice the samples


class QuadratureError(RuntimeError):
    """Successive quadrature refinements disagree beyond tolerance."""


@dataclass(frozen=True)
class GaussianSpec:
    """Width parameter A of g(x) = exp(-x^2/A)."""

    a_param: float

    def __post_init__(self):
        if not (self.a_param > 0 and math.isfinite(self.a_param)):
            raise ValueError(f"a_param must be positive and finite, got {self.a_param}")


def gaussian_l4hat(spec: GaussianSpec) -> float:
    """||g^||_4 = ((1/2)(pi A)^{3/2})^{1/4}."""
    return (0.5 * (math.pi * spec.a_param) ** 1.5) ** 0.25


def gaussian_lq(spec: GaussianSpec, q: float) -> float:
    """||g||_q = ((pi A / q)^{1/2})^{1/q}."""
    if q <= 1:
        raise InvalidExponentError(f"gaussian_lq needs q > 1, got {q}")
    return ((math.pi * spec.a_param / q) ** 0.5) ** (1.0 / q)


def gaussian_ratio(spec: GaussianSpec, q: float) -> float:
    """Closed form of gaussian_l4hat(spec) / gaussian_lq(spec, q)."""
    if q <= 1:
        raise InvalidExponentError(f"gaussian_ratio needs q > 1, got {q}")
    e = 3.0 - 4.0 / q
    return (0.25 * q ** (4.0 / q) * math.pi ** e * spec.a_param ** e) ** 0.125


def _simpson_weights(npoints: int) -> np.ndarray:
    # npoints must be odd (even interval count)
    w = np.ones(npoints)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _autoconvolution(x: np.ndarray) -> np.ndarray:
    """x*x by FFT at N, the least power of two >= 2m-1, where the cyclic
    convolution does not wrap; the refinement checks judge the quadrature,
    so no rounding bound is taken."""
    size = 1 << (2 * len(x) - 2).bit_length()
    spec = np.fft.rfft(x, size)
    spec *= spec
    return np.fft.irfft(spec, size)[:2 * len(x) - 1]


def _l4hat_pow4_simpson(a_param: float, truncation: float, step: float) -> float:
    half = int(math.ceil(truncation / step))
    half += half % 2
    x = np.arange(-half, half + 1) * step
    g = np.exp(-(x * x) / a_param)
    # (w g) * g by polarization, 4 a*b = (a+b)*(a+b) - (a-b)*(a-b), with the
    # Simpson weights w = (step/3) 2 h and h in {1/2, 2, 1}
    h = _simpson_weights(g.size) * 0.5
    conv = (step / 6.0) * (_autoconvolution((h + 1.0) * g) - _autoconvolution((h - 1.0) * g))
    wz = _simpson_weights(conv.size) * (step / 3.0)
    return float(np.sum(wz * (conv * conv)))


def quadrature_l4hat(spec: GaussianSpec) -> float:
    """Independent oracle for ||g^||_4^4 = ||g*g||_2^2 by composite Simpson.

    The grid scales with sqrt(A): truncation where the tail drops below
    1e-18 of the peak, step at sqrt(A)/800.  Raises QuadratureError when
    halving the step moves the result by more than QUADRATURE_REL_TOL.
    """
    a = spec.a_param
    truncation, step = math.sqrt(41.5 * a), math.sqrt(a) / 800.0
    coarse = _l4hat_pow4_simpson(a, truncation, step)
    fine = _l4hat_pow4_simpson(a, truncation, step / 2.0)
    if abs(coarse - fine) > QUADRATURE_REL_TOL * abs(fine):
        raise QuadratureError(
            f"l4hat quadrature did not converge: {coarse!r} vs {fine!r} at step {step}")
    return fine


def quadrature_lq_pow(spec: GaussianSpec, q: float) -> float:
    """Independent oracle for ||g||_q^q = integral of exp(-q x^2 / A), by
    composite Simpson to the tail where exp(-q x^2 / A) drops below 1e-18,
    step sqrt(A)/2000, checked as quadrature_l4hat is."""
    if q <= 1:
        raise InvalidExponentError(f"quadrature_lq_pow needs q > 1, got {q}")
    a = spec.a_param
    truncation, step = math.sqrt(41.5 * a / q), math.sqrt(a) / 2000.0

    def one(h: float) -> float:
        half = int(math.ceil(truncation / h))
        half += half % 2
        x = np.arange(-half, half + 1) * h
        y = np.exp(-q * x * x / a)
        return float(np.sum(_simpson_weights(y.size) * y) * (h / 3.0))

    coarse, fine = one(step), one(step / 2.0)
    if abs(coarse - fine) > QUADRATURE_REL_TOL * abs(fine):
        raise QuadratureError(
            f"lq quadrature did not converge: {coarse!r} vs {fine!r} at step {step}")
    return fine


def truncated_gaussian_l4hat_pow4(a_param: float, m_trunc: int) -> float:
    """||g_M^||_4^4 for the truncation of g to [-M, M], by quadrature.

    Trapezoid with explicit endpoint correction: the truncated integrand jumps
    at +-M, so grids are pinned to the truncation endpoints.  Raises
    QuadratureError when doubling TRUNCATED_SAMPLES moves the result
    by more than TRUNCATED_REL_TOL.
    """
    if m_trunc < 1:
        raise ValueError("m_trunc must be >= 1")
    coarse = _truncated_pow4_trapezoid(a_param, m_trunc, TRUNCATED_SAMPLES)
    fine = _truncated_pow4_trapezoid(a_param, m_trunc, 2 * TRUNCATED_SAMPLES)
    if abs(coarse - fine) > TRUNCATED_REL_TOL * abs(fine):
        raise QuadratureError(
            f"truncated l4hat quadrature did not converge: {coarse!r} vs {fine!r}")
    return fine


def _truncated_pow4_trapezoid(a_param: float, m_trunc: int, j: int) -> float:
    h = m_trunc / j
    x = np.arange(-j, j + 1) * h
    g = np.exp(-(x * x) / a_param)
    # the endpoint correction of (g_M * g_M)(z_k) is half its first and last
    # trapezoid terms, g_lo g_(k-lo) and g_hi g_(k-hi): equal products, so
    # together g_0 g_k for k <= 2j and g_k' g_2j (k' = k - 2j) past it
    ends = np.concatenate((g[0] * g, g[-1] * g[1:]))
    c = h * (_autoconvolution(g) - ends)  # (g_M * g_M)(z), z on the doubled grid
    s = c * c
    return float(h * (s.sum() - 0.5 * (s[0] + s[-1])))


def truncated_gaussian_lq(a_param: float, q: float, m_trunc: int) -> float:
    """||g_M||_q via the error function: ((pi A/q)^{1/2} erf(M sqrt(q/A)))^{1/q}."""
    if q <= 1:
        raise InvalidExponentError(f"truncated_gaussian_lq needs q > 1, got {q}")
    pw = math.sqrt(math.pi * a_param / q) * math.erf(m_trunc * math.sqrt(q / a_param))
    return pw ** (1.0 / q)
