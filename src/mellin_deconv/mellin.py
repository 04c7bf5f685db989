"""Numerical Mellin-transform machinery on the positive half-line.

Provides the empirical transform of a positive sample, closed-form
transforms for the built-in density catalog, inversion back to x-space by
quadrature, and Plancherel-based norms in the weighted space
L^2(R_+, x^(2c-1)).  The development point c selects the weight; transforms
of real densities satisfy H(-t) = conj(H(t)), which inversion exploits and
verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import QuadratureConfig
from .special import log_beta, log_gamma


class MellinError(ValueError):
    """Invalid Mellin-domain data or parameters."""


class HermitianSymmetryError(MellinError):
    """Inversion input is not conjugate-symmetric: the x-domain result
    would have a non-negligible imaginary part."""


def check_same_c(what: str, c: float, other: str, c_other: float) -> None:
    """Raise `MellinError` when two development points differ."""
    if c != c_other:
        raise MellinError(f"development point mismatch: {what} c={c}, {other} c={c_other}")


#: ids of the built-in target densities
TARGET_IDS = ("beta25", "loggamma", "gamma5", "lognormal")
#: ids of the built-in multiplicative error densities
ERROR_IDS = ("noise_uniform", "noise_beta")
CATALOG_IDS = TARGET_IDS + ERROR_IDS

_DECAY_PROBE_MAX = 500.0
_DECAY_PROBE_STEP = 0.05

#: Gaussian gridding of the empirical transform: nodes spread on each side of
#: a point, and the least ratio of FFT grid size to the number of modes
_NUFFT_SPREAD = 16
_NUFFT_OVERSAMPLING = 2


@dataclass(frozen=True)
class MellinFunction:
    """A closed-form Mellin transform t -> H(t) at development point c.

    decay_exponent, when set, certifies two-sided polynomial decay: on the
    probed range |H(t)| * (1+t^2)^(g/2) stays between two positive
    constants, so H has no zeros there.  decay_upper is the upper constant,

        |H(t)| <= decay_upper * (1+t^2)^(-g/2);

    it is measured numerically at construction and drives tail-bound
    diagnostics.
    """

    c: float
    eval_fn: Callable[[np.ndarray], np.ndarray]
    decay_exponent: Optional[float] = None
    decay_upper: Optional[float] = None

    def __call__(self, t) -> np.ndarray:
        return self.eval_fn(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class EmpiricalMellin:
    """A positive sample together with the development point c."""

    c: float
    sample: np.ndarray

    def __post_init__(self):
        sample = np.asarray(self.sample, dtype=float)
        if sample.ndim != 1 or sample.size == 0:
            raise ValueError("sample must be a nonempty 1-D array")
        if not np.all(np.isfinite(sample)) or np.any(sample <= 0.0):
            raise ValueError("sample values must be finite and positive")
        object.__setattr__(self, "sample", sample)

    @property
    def n(self) -> int:
        return self.sample.size


@dataclass(frozen=True)
class WeightedFunction:
    """Real function tabulated on a positive grid, normed with weight x^(2c-1)."""

    x_grid: np.ndarray
    values: np.ndarray
    c: float

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or np.any(x <= 0.0) or np.any(np.diff(x) <= 0.0):
            raise ValueError("x_grid must be strictly increasing and positive")
        if v.shape != x.shape:
            raise ValueError("values must match x_grid in length")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)


def _sample_weights(em: EmpiricalMellin) -> np.ndarray:
    """Weights Y_j^(c-1) of the empirical transform; `MellinError` when one
    overflows (e.g. a sample scaled by 1e-309 at c = 0)."""
    with np.errstate(over="ignore"):
        w = em.sample ** (em.c - 1.0)
    if not np.all(np.isfinite(w)):
        raise MellinError(f"sample moment weights overflow at c={em.c}; rescale it")
    return w


def empirical_mellin(em: EmpiricalMellin, t) -> np.ndarray:
    """Empirical Mellin transform n^-1 sum_j Y_j^(c-1+it) of the sample.

    Unbiased for the transform of the sampled density; its modulus is
    bounded by the value at t = 0.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tt = np.atleast_1d(t)
    logy = np.log(em.sample)
    w = _sample_weights(em)
    vals = (w[:, None] * np.exp(1j * np.outer(logy, tt))).sum(axis=0) / em.n
    return vals[0] if scalar else vals


def empirical_mellin_on_grid(em: EmpiricalMellin, grid: QuadratureConfig) -> np.ndarray:
    """Empirical Mellin transform on a symmetric uniform grid.

    On t_m = m * t_step the transform is sum_j w_j exp(i m x_j) with
    w_j = Y_j^(c-1)/n and x_j = t_step*log Y_j: a type-1 non-uniform FFT of
    the K = half_size + 1 modes m = 0..M.  It is computed by Gaussian
    gridding (Greengard & Lee 2004, SIAM Review 46:443):

    - the phases x_j are reduced onto [-pi, pi) and the modes are centred
      by the factor exp(i*(K//2)*x_j) on the weights;
    - each point is spread with a periodised Gaussian over
      `_NUFFT_SPREAD` nodes on each side of a power-of-two grid of
      Mr >= `_NUFFT_OVERSAMPLING` * K nodes (32 768 for the default grid);
    - one inverse FFT, then division by the Gaussian's Fourier coefficients,
      with its width set from the actual ratio R = Mr/K.

    Working memory is O(32*n + Mr); no n x K array is formed.  The t = 0
    node is sum_j w_j, exactly real, and negative frequencies follow by
    conjugation (the weights are real).  It stays within 1e-11 * |M_hat(0)|
    of the direct sum over the sample for n up to 3 000, c in 0..1.5 and
    sample scales 1e-6..1e6 (tested).  Overflowing weights Y_j^(c-1) raise
    `MellinError`.
    """
    w = _sample_weights(em) / em.n
    k_modes = grid.half_size + 1
    size = 1 << (_NUFFT_OVERSAMPLING * k_modes - 1).bit_length()
    ratio = size / k_modes
    tau = np.pi * _NUFFT_SPREAD / (k_modes**2 * ratio * (ratio - 0.5))
    x = grid.t_step * np.log(em.sample)
    x -= 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    shift = k_modes // 2
    centred = w * np.exp(1j * shift * x)

    spacing = 2.0 * np.pi / size
    u = x / spacing
    base = np.floor(u)
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    dist = ((u - base)[:, None] - offsets) * spacing
    kernel = np.exp(-(dist * dist) / (4.0 * tau))
    nodes = ((base.astype(np.int64)[:, None] + offsets) % size).ravel()
    spread = np.bincount(nodes, (centred.real[:, None] * kernel).ravel(), size)
    spread = spread + 1j * np.bincount(nodes, (centred.imag[:, None] * kernel).ravel(), size)

    k = np.arange(k_modes) - shift
    half = np.fft.ifft(spread)[k % size] * (np.sqrt(np.pi / tau) * np.exp(k * k * tau))
    half[0] = w.sum()
    return grid.mirror(half)


def golden_section_min(fn, lo: float, hi: float, iters: int = 80) -> tuple:
    """(minimum value, its abscissa) of a scalar function over [lo, hi] by
    golden section."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fn(x2)
    return (f1, x1) if f1 <= f2 else (f2, x2)


def probe_minimum(fn, t: np.ndarray, values: np.ndarray, trigger: float) -> tuple:
    """(smallest value, abscissa) of a nonnegative vectorised ``fn`` on the
    probe grid ``t``, where ``values`` = fn(t).

    A grid minimum can straddle an exact zero between nodes, so every
    interior dip below ``trigger`` is polished by golden-section search over
    its two neighbouring cells.  The package's one zero-freeness probe.
    """
    i = int(np.argmin(values))
    best, at = float(values[i]), float(t[i])
    point = lambda x: float(fn(np.array([x]))[0])
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    for idx in np.where(interior & (values[1:-1] < trigger))[0] + 1:
        low, x = golden_section_min(point, t[idx - 1], t[idx + 1])
        if low < best:
            best, at = low, float(x)
    return best, at


def _certify_decay(
    eval_fn: Callable[[np.ndarray], np.ndarray], exponent: float
) -> Optional[float]:
    """Certify two-sided decay of |H(t)|*(1+t^2)^(g/2) over a probe grid.

    Returns its upper constant, or None when the lower one degenerates, i.e.
    the transform has a (near-)zero (see `probe_minimum`).
    """
    ratio = lambda t: np.abs(eval_fn(t)) * (1.0 + t**2) ** (exponent / 2.0)
    t = np.arange(0.0, _DECAY_PROBE_MAX + _DECAY_PROBE_STEP, _DECAY_PROBE_STEP)
    values = ratio(t)
    hi = float(values.max())
    if not np.isfinite(hi):
        return None
    return None if probe_minimum(ratio, t, values, 1e-2 * hi)[0] <= 1e-9 * hi else hi


def catalog_mellin(name: str, c: float) -> MellinFunction:
    """Closed-form Mellin transform of a catalog density at development point c.

    Raises on unknown ids and on (name, c) pairs for which the defining
    integral diverges.
    """
    c = float(c)
    if name == "beta25":
        if c <= -1.0:
            raise MellinError("beta25 transform requires c > -1")
        log_b25 = log_beta(2.0, 5.0)

        def eval_fn(t, c=c, log_b25=log_b25):
            a = (c + 1.0) + 1j * t
            return np.exp(log_beta(a, 5.0) - log_b25)

        decay = 5.0
    elif name == "loggamma":
        if c >= 6.0:
            raise MellinError("loggamma transform requires c < 6")

        def eval_fn(t, c=c):
            return (5.0 / ((6.0 - c) - 1j * t)) ** 5

        decay = 5.0
    elif name == "gamma5":
        if c <= -4.0:
            raise MellinError("gamma5 transform requires c > -4")
        log_24 = np.log(24.0)

        def eval_fn(t, c=c, log_24=log_24):
            return np.exp(log_gamma((c + 4.0) + 1j * t) - log_24)

        decay = None  # faster than polynomial
    elif name == "lognormal":

        def eval_fn(t, c=c):
            return np.exp(0.02 * ((c - 1.0) + 1j * t) ** 2)

        decay = None  # faster than polynomial
    elif name == "noise_uniform":

        def eval_fn(t, c=c):
            z = np.asarray(c + 1j * t, dtype=np.complex128)
            small = np.abs(z) < 1e-4
            zs = np.where(small, 1.0, z)
            exact = (1.5**zs - 0.5**zs) / zs
            a, b = np.log(1.5), np.log(0.5)
            series = np.log(3.0) * (
                1.0 + z * (a + b) / 2.0 + z**2 * (a * a + a * b + b * b) / 6.0
            )
            return np.where(small, series, exact)

        decay = 1.0
    elif name == "noise_beta":
        if c <= -1.0:
            raise MellinError("noise_beta transform requires c > -1")

        def eval_fn(t, c=c):
            return 2.0 / ((c + 1.0) + 1j * t)

        decay = 1.0
    else:
        raise MellinError(f"unknown density id {name!r}")

    upper = None
    if decay is not None:
        upper = _certify_decay(eval_fn, decay)
        if upper is None:
            # e.g. noise_uniform at c = 0 has zeros: polynomial decay holds
            # only one-sidedly, so no exponent is recorded.
            decay = None
    return MellinFunction(c=c, eval_fn=eval_fn, decay_exponent=decay, decay_upper=upper)


def _eval_on_grid(transform, q: QuadratureConfig) -> np.ndarray:
    vals = np.asarray(transform(q.t) if callable(transform) else transform)
    if vals.shape != q.t.shape:
        raise MellinError("transform values do not match the quadrature grid")
    vals = vals.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise MellinError("transform takes non-finite values on the grid")
    return vals


def invert_grid_values(
    grid: QuadratureConfig,
    values: np.ndarray,
    c: float,
    x_grid: np.ndarray,
    support: Optional[float] = None,
) -> np.ndarray:
    """Complex quadrature sum (2pi)^-1 sum_m w_m x^(-c-i t_m) H(t_m).

    ``values`` is one product on the grid, or a (K, len(grid)) stack of
    them; the result has shape (len(x),) or (K, len(x)).  With ``support``
    = k the sum runs over the sub-window [-k, k] with proper trapezoid end
    weights there (exact handling of window-truncated integrands).

    The two-sided sum runs in blocks of 512 nodes.  Inside a block the
    phases are powers of the unit rotator exp(-i*t_step*log x); each
    block's start phase exp(-i*t_start*log x) is evaluated directly, so
    rounding does not accumulate across blocks.  Any positive x-grid works.
    The only inversion routine of the package; it performs no symmetry
    checks (see `checked_real_part`).
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


def checked_real_part(values: np.ndarray) -> np.ndarray:
    """Real part of `invert_grid_values` output, after the Hermitian check.

    The imaginary residue of the two-sided sum is the inversion of the
    product's anti-Hermitian part.  For each row it must stay within
    1e-8 * (1 + max |Re|); a larger residue means the inverted transform
    was not conjugate-symmetric and raises `HermitianSymmetryError`.  A
    non-finite value, which no residue test can judge, raises `MellinError`.
    """
    if not np.all(np.isfinite(values)):
        raise MellinError("inversion output is not finite")
    re, im = values.real, values.imag
    if np.any(np.abs(im).max(axis=-1) > 1e-8 * (1.0 + np.abs(re).max(axis=-1))):
        raise HermitianSymmetryError(
            "imaginary residue of the inversion exceeds tolerance; "
            "the Mellin-domain input is not conjugate-symmetric"
        )
    return re


def inverse_mellin(
    transform, c: float, x_grid: np.ndarray, q: QuadratureConfig
) -> WeightedFunction:
    """Inverse Mellin transform by quadrature on the grid of ``q``.

    ``transform`` is a callable t -> complex (vectorised).  The input must be
    conjugate-symmetric, H(-t) = conj(H(t)); a violation raises
    `HermitianSymmetryError` (see `checked_real_part`).
    """
    vals = _eval_on_grid(transform, q)
    re = checked_real_part(invert_grid_values(q, vals, c, x_grid))
    return WeightedFunction(x_grid=np.asarray(x_grid, float), values=re, c=c)


def plancherel_norm_sq(transform, q: QuadratureConfig) -> float:
    """(2pi)^-1 integral of |H|^2 over the quadrature window.

    Equals the squared weighted L^2 norm of the x-domain function whose
    transform is H, up to quadrature and truncation error.
    """
    vals = _eval_on_grid(transform, q)
    return float(q.integrate(np.abs(vals) ** 2)) / (2.0 * np.pi)


def weighted_l2_dist_sq(a: WeightedFunction, b: WeightedFunction) -> float:
    """Squared distance integral of (a-b)^2 x^(2c-1) over the shared grid."""
    if a.c != b.c:
        raise ValueError("weighted functions have different development points")
    if a.x_grid.shape != b.x_grid.shape or not np.array_equal(a.x_grid, b.x_grid):
        raise ValueError("weighted functions live on different grids")
    diff = a.values - b.values
    weight = a.x_grid ** (2.0 * a.c - 1.0)
    return float(np.trapezoid(diff * diff * weight, a.x_grid))
