"""Shared oracles for the test suite.

The brute-force Mellin oracle integrates x^(c-1+it) h(x) dx in log
coordinates with scipy's adaptive quadrature: only the plain x-domain
density formulas enter, so it is independent of the closed forms and of the
package's own grid quadrature.  The ridge risk oracle gives the exact
expected squared error of a fixed-level ridge estimate, independent of the
package's Monte-Carlo and risk-bound code.  The rotator oracle is the
package's former grid evaluation of the empirical transform, kept as the
reference for the type-1 NUFFT that replaced it.
"""

import numpy as np
import pytest
from scipy.integrate import quad

# log-coordinate density values: id -> (u_lo, u_hi, w) with w(u) = h(e^u),
# so that M_c[h](t) = int w(u) e^(c u) (cos(t u) + i sin(t u)) du
_LOG_DENSITIES = {
    "beta25": (-40.0, 0.0, lambda u: 30.0 * np.exp(u) * (1.0 - np.exp(u)) ** 4),
    "loggamma": (1e-12, 60.0, lambda u: (3125.0 / 24.0) * u**4 * np.exp(-6.0 * u)),
    "gamma5": (-40.0, 10.0, lambda u: np.exp(4.0 * u - np.exp(u)) / 24.0),
    "lognormal": (
        -8.0,
        8.0,
        lambda u: np.exp(-u * u / 0.08 - u) / np.sqrt(0.08 * np.pi),
    ),
    "noise_uniform": (np.log(0.5), np.log(1.5), lambda u: np.ones_like(np.asarray(u, dtype=float))),
    "noise_beta": (-40.0, 0.0, lambda u: 2.0 * np.exp(u)),
}


def mellin_quad_oracle(name: str, c: float, t: float) -> complex:
    """Brute-force Mellin transform of a catalog density by quadrature."""
    u_lo, u_hi, w = _LOG_DENSITIES[name]

    def re_part(u):
        return w(u) * np.exp(c * u) * np.cos(t * u)

    def im_part(u):
        return w(u) * np.exp(c * u) * np.sin(t * u)

    re, _ = quad(re_part, u_lo, u_hi, limit=800, epsabs=1e-10, epsrel=1e-10)
    im, _ = quad(im_part, u_lo, u_hi, limit=800, epsabs=1e-10, epsrel=1e-10)
    return complex(re, im)


def norm_sq_quad_oracle(name: str, c: float) -> float:
    """Brute-force weighted squared norm int h(x)^2 x^(2c-1) dx.

    In log coordinates the integrand is w(u)^2 e^(2cu) with w(u) = h(e^u).
    """
    u_lo, u_hi, w = _LOG_DENSITIES[name]

    def integrand(u):
        return w(u) ** 2 * np.exp(2.0 * c * u)

    val, _ = quad(integrand, u_lo, u_hi, limit=800, epsabs=1e-12, epsrel=1e-10)
    return val


def ridge_risk_oracle(
    target: str,
    error: str,
    c: float,
    n: int,
    k: float,
    t_step: float,
    t_max: float,
    xi: float,
    r: float,
) -> tuple:
    """Exact (bias^2, variance) of the fixed-level ridge estimate.

    The empirical transform n^-1 sum_j Y_j^(c-1+it) of Y = XU is unbiased for
    M_f M_g with variance (sigma_c - |M_f M_g|^2) / n, sigma_c = E[Y^(2(c-1))].
    By Plancherel the risk E||f_hat_k - f||^2 therefore splits in closed form
    into (2 pi)^-1 int |M_f|^2 |1 - M_g R_k|^2 and
    (2 pi n)^-1 int |R_k|^2 (sigma_c - |M_f M_g|^2).

    R_k is written out from its defining formula
    conj(M_g) |M_g|^r / max(|M_g|, (1+|t|)^xi / k)^(r+2); M_f and M_g are the
    catalog closed forms (checked against quadrature by acceptance criterion
    1) and sigma_c comes from the quadrature oracle.  Both integrals are
    trapezoid sums on the grid t = m * t_step, |t| <= t_max, which is the
    package's frequency grid, so the result compares directly with the risk
    terms the package computes there.
    """
    from mellin_deconv import catalog_mellin

    half = int(round(t_max / t_step))
    t = np.arange(-half, half + 1) * t_step
    mf = np.asarray(catalog_mellin(target, c)(t), dtype=np.complex128)
    mg = np.asarray(catalog_mellin(error, c)(t), dtype=np.complex128)
    amg = np.abs(mg)
    ridge = np.conj(mg) * amg**r / np.maximum(amg, (1.0 + np.abs(t)) ** xi / k) ** (r + 2.0)
    # E[Z^(2(c-1))] is the Mellin transform at development point 2c-1, t = 0
    sigma_c = (mellin_quad_oracle(target, 2.0 * c - 1.0, 0.0)
               * mellin_quad_oracle(error, 2.0 * c - 1.0, 0.0)).real
    bias_sq = np.trapezoid(np.abs(mf) ** 2 * np.abs(1.0 - mg * ridge) ** 2, t) / (2.0 * np.pi)
    variance = np.trapezoid(
        np.abs(ridge) ** 2 * (sigma_c - np.abs(mf * mg) ** 2), t
    ) / (2.0 * np.pi * n)
    return float(bias_sq), float(variance)


def rotator_mellin_on_grid(em, grid) -> np.ndarray:
    """Empirical Mellin transform on a symmetric uniform grid, blockwise.

    Exploits t_m = m * t_step: powers of the unit rotators exp(i*t_step*logY)
    are accumulated in blocks of 512 modes, and negative frequencies follow
    by conjugation (the weights Y^(c-1) are real).  Costs O(n * half_size)
    operations and an n x 512 complex block.
    """
    logy = np.log(em.sample)
    w = em.sample ** (em.c - 1.0) / em.n
    block = 512
    zb = np.exp(1j * grid.t_step * np.outer(logy, np.arange(block)))
    zstep = zb[:, -1] * zb[:, 1]  # exp(i*h*block*logy)
    half = np.empty(grid.half_size + 1, dtype=np.complex128)
    carry = w.astype(np.complex128)
    m0 = 0
    while m0 <= grid.half_size:
        nb = min(block, grid.half_size + 1 - m0)
        half[m0 : m0 + nb] = carry @ zb[:, :nb]
        carry = carry * zstep
        m0 += nb
    return grid.mirror(half)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
