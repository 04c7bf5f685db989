"""Complex log-gamma and log-beta functions via the Lanczos approximation.

Self-contained so that the closed-form Mellin transforms of the density
catalog do not pull in a heavy dependency.  Accuracy is better than 1e-12
relative on the strip Re(z) >= 0.5 and better than 1e-10 after reflection,
which covers every argument produced by the catalog.
"""

from __future__ import annotations

import numpy as np

# Lanczos coefficients for g = 7, n = 9 (Godfrey's table).
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)
_LOG_PI = np.log(np.pi)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log(sin(pi*z)), stable for arguments with large imaginary part.

    The imaginary part may differ from the principal branch by a multiple
    of 2*pi; every consumer exponentiates the result, so only the value of
    exp(log sin) matters.
    """
    upper = z.imag >= 0.0
    zz = np.where(upper, z, np.conj(z))
    # sin(pi z) = exp(-i pi z) * (exp(2 i pi z) - 1) / (2 i) with |exp(2 i pi z)| <= 1
    val = (
        -1j * np.pi * zz
        + np.log1p(-np.exp(2j * np.pi * zz))
        + 1j * np.pi
        - np.log(2j)
    )
    return np.where(upper, val, np.conj(val))


def log_gamma(z) -> np.ndarray:
    """Principal-branch-compatible log of the gamma function for complex z.

    On Re(z) < 0.5 the reflection formula is used; there the imaginary part
    is only defined modulo 2*pi (exp of the result is always correct).
    Poles at non-positive integers yield +inf/nan, matching exp -> inf.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    reflect = z.real < 0.5
    zr = np.where(reflect, 1.0 - z, z)

    w = zr - 1.0
    acc = np.full(zr.shape, _LANCZOS_COEF[0], dtype=np.complex128)
    for i in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    main = _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)

    out = np.where(reflect, _LOG_PI - _log_sin_pi(z) - main, main)
    return out[0] if scalar else out


def log_beta(a, b) -> np.ndarray:
    """log of the beta function B(a, b) for complex arguments, a log-gamma
    difference, so that exp of it stays finite even where the individual
    gamma values underflow."""
    return log_gamma(a) + log_gamma(b) - log_gamma(np.asarray(a) + np.asarray(b))
