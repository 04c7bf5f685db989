"""Shared oracles for the test suite.

The brute-force Mellin oracle integrates x^(c-1+it) h(x) dx in log
coordinates with scipy's adaptive quadrature: only the plain x-domain
density formulas enter, so it is independent of the closed forms and of the
package's own grid quadrature.  The ridge risk oracle gives the exact
expected squared error of a fixed-level ridge estimate, independent of the
package's Monte-Carlo and risk-bound code.  The two rotator oracles are the
package's former blockwise grid evaluations of the empirical transform and
of the inversion, kept as the references for the type-1 and type-2 NUFFTs
that replaced them; the bincount oracle is the type-1 NUFFT's former
one-shot spread, the bitwise reference for the blocked one.
`RowRidgeBank` is the package's former ridge bank, which tabulated every
level's multiplier and compared each pair of levels with a pass over all
nodes; it is the reference for the factored bank.  The direct-sum empirical
transform, the Plancherel norm, the weighted distance and the oracle error
are written out from their formulas, as references for the package's grid
transform, norms and Monte-Carlo errors.  `multiplier_norm_sq` is the
package's former norm of one multiplier, integrated from its values on the
grid, with its truncation warning; `ridge_tail_bound` is that warning's
analytic bound, the reference for `RidgeBank.tail_ratios`.  The three
full-grid forms, `all_node_contrasts`, `full_grid_cutoff_select` and
`full_grid_cutoff_estimate`, are the package's former passes over every
node, the bitwise references for the passes that read only the nodes
their outputs need.
"""

import itertools
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mellin_deconv import MellinError, RidgeSpec, density_eval, density_spec, risk

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


def mirror(half_values: np.ndarray) -> np.ndarray:
    """Values on the t >= 0 half of a symmetric grid, extended to the whole
    grid by conjugation."""
    return np.concatenate((np.conj(half_values[:0:-1]), half_values))


def empirical_mellin(em, t):
    """Empirical Mellin transform n^-1 sum_j Y_j^(c-1+it) of the sample at
    any points t, by the direct sum over the sample."""
    t = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.outer(np.log(em.sample), np.atleast_1d(t)))
    vals = (em.sample[:, None] ** (em.c - 1.0) * phases).sum(axis=0) / em.n
    return vals[0] if t.ndim == 0 else vals


def plancherel_norm_sq(transform, q) -> float:
    """(2 pi)^-1 times the trapezoid integral of |H|^2 over the grid of ``q``:
    by Plancherel, the squared weighted L^2 norm of the x-domain function
    whose transform is H, up to quadrature and truncation error."""
    values = np.abs(np.asarray(transform(q.t), dtype=np.complex128)) ** 2
    return float(np.trapezoid(values, dx=q.t_step)) / (2.0 * np.pi)


def weighted_l2_dist_sq(a, b) -> float:
    """Trapezoid integral of (a - b)^2 x^(2c-1) over the shared x-grid of two
    weighted functions; another grid or development point raises ValueError."""
    if a.c != b.c:
        raise ValueError("weighted functions have different development points")
    if not np.array_equal(a.x_grid, b.x_grid):
        raise ValueError("weighted functions live on different grids")
    return float(np.trapezoid((a.values - b.values) ** 2 * a.x_grid ** (2.0 * a.c - 1.0), a.x_grid))


def oracle_error(estimate, target: str, c: float) -> float:
    """Trapezoid integral of (f_hat - f)^2 x^(2c-1) on the estimate's own
    x-grid, f the catalog density ``target``; an estimate at another
    development point than ``c`` raises `MellinError`."""
    if estimate.c != c:
        raise MellinError(f"development point mismatch: estimate c={estimate.c}, metric c={c}")
    x = np.asarray(estimate.x_grid, dtype=float)
    truth = density_eval(density_spec(target), x)
    return float(np.trapezoid((estimate.values - truth) ** 2 * x ** (2.0 * c - 1.0), x))


def ridge_tail_bound(k: float, r: float, g, q) -> float:
    """Bound on the integral of |R_k|^2 past the last node of ``q``, from the
    decay certificate |M_g| <= C (1+t^2)^(-gamma/2) of ``g``: inf when
    2 gamma (r+1) <= 1."""
    # tail of |R|^2 <= (k^(r+2) C^(r+1))^2 (1+t^2)^(-gamma(r+1)) past the last node
    rate = 2.0 * g.decay_exponent * (r + 1.0)
    if rate <= 1.0:
        return np.inf
    const = (k ** (r + 2.0) * g.decay_upper ** (r + 1.0)) ** 2
    return 2.0 * const * (q.half_size * q.t_step) ** (1.0 - rate) / (rate - 1.0)


def multiplier_norm_sq(mult, q, rel_tail_tol: float = 1e-6) -> float:
    """Integral of |multiplier|^2 dt (no 2*pi normalisation).

    Cut-off multipliers are integrated exactly over their window [-k, k];
    ridge multipliers over the full quadrature window.  When the noise
    transform carries decay metadata, the analytic tail bound is checked
    against ``rel_tail_tol`` times the computed norm and a truncation
    warning is emitted if the window is too short.
    """
    vals = np.abs(mult(q.t)) ** 2
    if mult.support is not None:
        return float(q.window_integrate(vals, mult.support))
    norm = float(q.integrate(vals))
    g = mult.g_mellin
    spec = mult.spec
    if isinstance(spec, RidgeSpec) and g.decay_exponent is not None:
        tail = ridge_tail_bound(spec.k, spec.r, g, q)
        if np.isfinite(tail) and tail > rel_tail_tol * max(norm, np.finfo(float).tiny):
            warnings.warn(
                f"ridge norm truncated: analytic tail bound {tail:.3g} "
                f"exceeds rel_tail_tol of the computed value {norm:.6g}; "
                "increase t_max",
                RuntimeWarning,
                stacklevel=2,
            )
    return norm


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
    return mirror(half)


def bincount_mellin_on_grid(em, grid) -> np.ndarray:
    """Empirical Mellin transform on a symmetric uniform grid, spread in one shot.

    The package's former spread of the type-1 NUFFT: the 32 Gaussian
    weights of every point form one n x 32 array, summed per FFT node by one
    `np.bincount` for the real and one for the imaginary part, then one
    inverse FFT and the deconvolution.  Costs O(32 * n) memory; the blocked
    spread must reproduce it bit for bit.
    """
    from mellin_deconv.mellin import _NUFFT_OVERSAMPLING, _NUFFT_SPREAD

    w = em.sample ** (em.c - 1.0) / em.n
    k_modes = grid.half_size + 1
    x = grid.t_step * np.log(em.sample)
    x = x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    shift = k_modes // 2
    centred = w * np.exp(1j * shift * x)
    k = np.arange(k_modes) - shift
    size = 1 << (_NUFFT_OVERSAMPLING * k_modes - 1).bit_length()
    ratio = size / k_modes
    tau = np.pi * _NUFFT_SPREAD / (k_modes**2 * ratio * (ratio - 0.5))
    deconvolution = np.sqrt(np.pi / tau) * np.exp(k * k * tau)
    spacing = 2.0 * np.pi / size
    u = x / spacing
    base = np.floor(u)
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    dist = ((u - base)[:, None] - offsets) * spacing
    kernel = np.exp(-(dist * dist) / (4.0 * tau))
    nodes = ((base.astype(np.int64)[:, None] + offsets) % size).ravel()
    spread = np.bincount(nodes, (centred.real[:, None] * kernel).ravel(), size)
    spread = spread + 1j * np.bincount(nodes, (centred.imag[:, None] * kernel).ravel(), size)
    half = np.fft.ifft(spread)[k % size] * deconvolution
    half[0] = w.sum()
    return mirror(half)


def rotator_invert_grid_values(grid, values, c, x_grid, support=None) -> np.ndarray:
    """Complex quadrature sum (2pi)^-1 sum_m w_m x^(-c-i t_m) H(t_m), blockwise.

    ``values`` is one product on the grid, or a (K, len(grid)) stack of
    them; the result has shape (len(x),) or (K, len(x)).  With ``support``
    = k the sum runs over the sub-window [-k, k] with proper trapezoid end
    weights there (exact handling of window-truncated integrands).

    The two-sided sum runs in blocks of 512 nodes.  Inside a block the
    phases are powers of the unit rotator exp(-i*t_step*log x); each
    block's start phase exp(-i*t_start*log x) is evaluated directly, so
    rounding does not accumulate across blocks.  Any positive x-grid works.
    """
    x = np.asarray(x_grid, dtype=float)
    logx = np.log(x)
    j = grid.half_size if support is None else grid.window_index(support)
    lo = grid.center - j
    wh = np.asarray(values)[..., lo : grid.center + j + 1] * grid.t_step
    wh[..., 0] *= 0.5
    wh[..., -1] *= 0.5
    block = 512
    rotator_powers = np.exp(-1j * grid.t_step * np.outer(np.arange(block), logx))
    out = np.zeros(wh.shape[:-1] + logx.shape, dtype=np.complex128)
    for i in range(0, wh.shape[-1], block):
        nb = min(block, wh.shape[-1] - i)
        start = np.exp(-1j * grid.t[lo + i] * logx)
        out += (wh[..., i : i + nb] @ rotator_powers[:nb]) * start
    return out * x ** (-c) / (2.0 * np.pi)


def complex_fft_invert_grid_values(grid, values, c, x_grid, support=None) -> np.ndarray:
    """Complex quadrature sum (2pi)^-1 sum_m w_m x^(-c-i t_m) H(t_m) by one
    complex FFT of the whole two-sided spectrum.

    The package's former type-2 NUFFT: the trapezoid-weighted modes
    m = -j..j, divided by the Gaussian's Fourier coefficients, sit at node
    m mod size of a power-of-two grid of at least 2*(2j+1) nodes; one
    complex FFT per row, then each x interpolates the result over its 32
    nearest nodes with the Gaussian exp(-d^2/(4 tau)).  No symmetry of the
    product is assumed.
    """
    from mellin_deconv.mellin import _NUFFT_OVERSAMPLING, _NUFFT_SPREAD

    x = np.asarray(x_grid, dtype=float)
    j = grid.half_size if support is None else grid.window_index(support)
    k = np.arange(-j, j + 1)
    size = 1 << (_NUFFT_OVERSAMPLING * k.size - 1).bit_length()
    ratio = size / k.size
    tau = np.pi * _NUFFT_SPREAD / (k.size**2 * ratio * (ratio - 0.5))
    weights = grid.t_step * np.sqrt(np.pi / tau) * np.exp(k * k * tau)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    values = np.asarray(values)
    spectrum = np.zeros(values.shape[:-1] + (size,), dtype=np.complex128)
    spectrum[..., k % size] = values[..., grid.center - j : grid.center + j + 1] * weights
    spectrum = np.fft.fft(spectrum)
    spacing = 2.0 * np.pi / size
    phases = grid.t_step * np.log(x)
    u = (phases - 2.0 * np.pi * np.round(phases / (2.0 * np.pi))) / spacing
    base = np.floor(u)
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    dist = ((u - base)[:, None] - offsets) * spacing
    kernel = np.exp(-(dist * dist) / (4.0 * tau))
    nodes = (base.astype(np.int64)[:, None] + offsets) % size
    out = (spectrum[..., nodes] * kernel).sum(axis=-1) / size
    return out * x ** (-c) / (2.0 * np.pi)


def ridge_threshold(t: np.ndarray, k: float, xi: float) -> np.ndarray:
    """Ridge threshold (1+|t|)^xi / k; G_k is where |M_g| falls below it."""
    return (1.0 + np.abs(t)) ** xi / k


def ridge_values(
    mg: np.ndarray, mg_neg: np.ndarray, thresh: np.ndarray, r: float
) -> np.ndarray:
    """Ridge multiplier from M_g(t), M_g(-t) and the threshold at the same t.

    1/M_g(t) where |M_g(t)| >= thresh, otherwise the damped branch
    M_g(-t) |M_g(t)|^r / max(|M_g(t)|, thresh)^(r+2), which never divides
    by zero.  For real noise densities M_g(-t) = conj(M_g(t)).
    """
    amg = np.abs(mg)
    exact = amg >= thresh
    out = np.empty_like(mg)
    out[exact] = 1.0 / mg[exact]
    damped = ~exact
    out[damped] = (
        mg_neg[damped]
        * amg[damped] ** r
        / np.maximum(amg[damped], thresh[damped]) ** (r + 2.0)
    )
    return out


class RowRidgeBank:
    """Ridge multipliers tabulated on a shared grid for a prefix of levels.

    Levels are taken from ``cfg.k_grid`` (or 1, 2, ... when absent) as long
    as ||R_k||^2 <= n_cap.  Each level's row is built with `ridge_values`
    (M_g(-t) is the table reversed, the grid being symmetric) and its norm
    integrated directly; the consecutive scan ends at the first level whose
    threshold clears |M_g| wherever M_g != 0.
    """

    def __init__(self, g_mellin, cfg, q, n_cap):
        self.q = q
        self.cfg = cfg
        mg = np.asarray(g_mellin(q.t), dtype=np.complex128)
        amg = np.abs(mg)
        levels = []
        rows = []
        norms = []
        for k in cfg.k_grid or itertools.count(1):
            thresh = ridge_threshold(q.t, float(k), cfg.xi)
            row = ridge_values(mg, mg[::-1], thresh, cfg.r)
            norm = float(q.integrate(np.abs(row) ** 2))
            if norm > n_cap:
                break
            levels.append(int(k))
            rows.append(row)
            norms.append(norm)
            if cfg.k_grid is None and np.all((amg >= thresh) | (amg == 0.0)):
                break
        self.k_values = np.array(levels, dtype=int)
        self.rows = np.array(rows) if rows else np.empty((0, len(q)), complex)
        self.norms_sq = np.array(norms, dtype=float)

    def contrasts(self, mhat_abs_sq):
        """contrast[i, j] = ||f_hat_{k_j} - f_hat_{k_i}||^2 for i < j, via Plancherel."""
        m = self.k_values.size
        contrast = np.zeros((m, m))
        for j in range(1, m):
            diff_sq = np.abs(self.rows[j] - self.rows[:j]) ** 2
            contrast[:j, j] = self.q.integrate(mhat_abs_sq * diff_sq) / (2.0 * np.pi)
        return contrast

    def objectives(self, mhat_abs_sq, sig_hat, n):
        """Goldenshluger-Lepski (a_hat, v_hat, objective) per level."""
        cfg = self.cfg
        m = self.k_values.size
        v_hat = 2.0 * sig_hat * self.norms_sq / n
        contrast = self.contrasts(mhat_abs_sq)
        a_hat = np.zeros(m)
        for i in range(m - 1):
            terms = contrast[i, i + 1 :] - cfg.chi1 * v_hat[i + 1 :]
            a_hat[i] = np.max(terms, initial=0.0)
        return a_hat, v_hat, a_hat + cfg.chi2 * v_hat


def all_node_contrasts(bank, mhat_abs_sq, m) -> np.ndarray:
    """The package's former `RidgeBank.contrasts`: all three per-bucket
    moments are summed over every node, with excess 0 outside the inner
    buckets 0 < l < m."""
    powers = bank._powers[:m]
    bucket = np.searchsorted(bank.k_values[:m], bank.kappa)
    inner = (bucket > 0) & (bucket < m)
    excess = np.zeros(bank.kappa.size)
    excess[inner] = bank.kappa[inner] ** bank._p - bank._powers[bucket[inner] - 1]
    b = bank._scale_sq * mhat_abs_sq
    b0 = np.bincount(bucket, weights=b, minlength=m + 1)[1:]
    b *= excess
    b1 = np.bincount(bucket, weights=b, minlength=m + 1)[1:]
    b *= excess
    b2 = np.bincount(bucket, weights=b, minlength=m + 1)[1:]
    d = powers[None, :-1] - powers[:, None]
    between = np.where(d >= 0.0, b2[:-1] + d * (2.0 * b1[:-1] + d * b0[:-1]), 0.0)
    beyond = np.cumsum(b0[::-1])[::-1]
    out = np.zeros((m, m))
    out[:, 1:] = np.cumsum(between, axis=1) + (powers[1:] - powers[:, None]) ** 2 * beyond[1:]
    return np.triu(out, 1) / (2.0 * np.pi)


def full_grid_cutoff_select(bank, mhat_abs_sq, sig_hat, n) -> tuple:
    """The package's former cut-off (window norms, penalties, objectives) at
    n: |M_hat|^2 |1/M_g|^2 and its centred cumulative trapezoid sums are
    formed on the whole grid."""
    q, m = bank.q, bank.admissible(n)
    values = mhat_abs_sq * np.abs(bank.inv_mg) ** 2
    c = q.center
    folded = values[c + 1 :] + values[c - 1 :: -1][: q.half_size]
    inner = values[c] + np.concatenate(([0.0], np.cumsum(folded)))
    ends = np.concatenate(([values[c]], 0.5 * folded))
    cum = q.t_step * (inner - ends)
    cum[0] = 0.0
    window_norms = cum[bank.windows[:m]] / (2.0 * np.pi)
    pen = 2.0 * bank.cfg.chi * sig_hat * bank.norms_sq[:m] / (2.0 * np.pi * n)
    return window_norms, pen, pen - window_norms


def full_grid_cutoff_estimate(pipeline, em, k) -> tuple:
    """The package's former cut-off estimate of a sample at level k:
    (product, density values).  The product is 1/M_g on the window of k,
    zero elsewhere, times M_hat on every node of the grid, handed whole to
    the windowed plan."""
    from mellin_deconv.estimators import cutoff_row
    from mellin_deconv.mellin import InversionPlan, checked_real_part

    q = pipeline.q
    inv, _ = pipeline._noise_table
    product = cutoff_row(inv, q.t, float(q.t[q.center + q.window_index(k)]))
    product *= em.on_grid(q)
    plan = InversionPlan(q, em.c, pipeline.x_grid, float(k))
    return product, checked_real_part(plan(product))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def empty_scenario_cache():
    """Every test starts and ends with no cached scenario pipeline, so none
    sees a pipeline another test built (under a patched `catalog_mellin`,
    say)."""
    risk._pipelines.clear()
    yield
    risk._pipelines.clear()
