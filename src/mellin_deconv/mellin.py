"""Numerical Mellin-transform machinery on the positive half-line.

Provides the empirical transform of a positive sample, closed-form
transforms for the built-in density catalog, and inversion back to x-space
by quadrature in the weighted space L^2(R_+, x^(2c-1)).  The development
point c selects the weight; transforms of real densities satisfy
H(-t) = conj(H(t)), which inversion exploits and verifies.  On the uniform
frequency grid both directions are non-uniform FFTs sharing one
Gaussian-gridding kernel.  An `InversionPlan` holds the product-free part
of an inversion, inverts one product per call and reuses its FFT buffers
from call to call, so neither a plan nor a `selection.Pipeline`, which
keeps one, is for concurrent calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .grids import MAX_X_POINTS, QuadratureConfig
from .model import CATALOG


class MellinError(ValueError):
    """Invalid Mellin-domain data or parameters."""


class HermitianSymmetryError(MellinError):
    """Inversion input is not conjugate-symmetric: the x-domain result
    would have a non-negligible imaginary part."""


def check_same_c(what: str, c: float, other: str, c_other: float) -> None:
    """Raise `MellinError` when two development points differ."""
    if c != c_other:
        raise MellinError(f"development point mismatch: {what} c={c}, {other} c={c_other}")


_DECAY_PROBE_MAX = 500.0
_DECAY_PROBE_STEP = 0.05

#: Gaussian gridding of both NUFFTs: nodes spread on each side of a point,
#: and the least ratio of FFT grid size to the number of modes
_NUFFT_SPREAD = 16
_NUFFT_OVERSAMPLING = 2
#: points spread per block by the empirical transform
_SPREAD_BLOCK = 1024


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
    """A positive sample, kept as a read-only copy, and the development point c.

    What the estimators read of the sample is computed once and kept:
    its transform (`on_grid`) and |M_hat|^2 (`abs_sq_on_grid`) per grid,
    and the moment `sigma_hat`.
    """

    c: float
    sample: np.ndarray
    # (what, t_step, half_size) -> read-only array on that grid
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        sample = np.array(self.sample, dtype=float)
        if sample.ndim != 1 or sample.size == 0:
            raise ValueError("sample must be a nonempty 1-D array")
        if not np.all(np.isfinite(sample)) or np.any(sample <= 0.0):
            raise ValueError("sample values must be finite and positive")
        sample.flags.writeable = False
        object.__setattr__(self, "sample", sample)

    @property
    def n(self) -> int:
        return self.sample.size

    def on_grid(self, grid: QuadratureConfig) -> np.ndarray:
        """`empirical_mellin_on_grid`, computed once per grid (t_step,
        half_size) and kept read-only: the one place a sample's transform
        is shared, by both methods of a `selection.Pipeline` and by
        `estimate_density`."""
        return self._keep("transform", grid, lambda: empirical_mellin_on_grid(self, grid))

    def abs_sq_on_grid(self, grid: QuadratureConfig) -> np.ndarray:
        """|`on_grid`|^2, kept as `on_grid` is: the one |M_hat|^2 that both
        selection rules of a `selection.Pipeline` read."""
        return self._keep("abs_sq", grid, lambda: np.abs(self.on_grid(grid)) ** 2)

    def _keep(self, what: str, grid: QuadratureConfig, compute) -> np.ndarray:
        key = (what, grid.t_step, grid.half_size)
        if key not in self._kept:
            value = compute()
            value.flags.writeable = False
            self._kept[key] = value
        return self._kept[key]

    @cached_property
    def sigma_hat(self) -> float:
        """Moment estimator n^-1 sum_j Y_j^(2(c-1)), computed once; inf where
        the powers overflow, which `selection.Pipeline.select` refuses."""
        with np.errstate(over="ignore"):
            return float(np.mean(self.sample ** (2.0 * (self.c - 1.0))))


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


def _gaussian_gridding(k: np.ndarray) -> tuple:
    """Gaussian gridding of the modes ``k`` (Greengard & Lee 2004, SIAM
    Review 46:443): (size, tau, deconvolution).  The FFT grid has a power of
    two >= `_NUFFT_OVERSAMPLING` * len(k) nodes; tau, the Gaussian's width,
    is set from size/len(k); deconvolution = sqrt(pi/tau) * exp(k^2 tau)
    divides out the Gaussian's Fourier coefficients.
    """
    size = 1 << (_NUFFT_OVERSAMPLING * k.size - 1).bit_length()
    ratio = size / k.size
    tau = np.pi * _NUFFT_SPREAD / (k.size**2 * ratio * (ratio - 0.5))
    return size, tau, np.sqrt(np.pi / tau) * np.exp(k * k * tau)


def _gaussian_kernel(phases: np.ndarray, size: int, tau: float) -> tuple:
    """(nodes, kernel) of ``phases`` in [-pi, pi] on the FFT grid of
    `_gaussian_gridding`: each phase's 2 * `_NUFFT_SPREAD` nearest nodes and
    the Gaussian exp(-d^2/(4 tau)) at their distances d, along a new last
    axis."""
    spacing = 2.0 * np.pi / size
    u = phases / spacing
    base = np.floor(u)
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    kernel = ((u - base)[..., None] - offsets) * spacing  # distances d
    kernel *= kernel
    kernel /= -4.0 * tau
    # size is a power of two, so the mask reduces like % size, at a fraction of the cost
    return (base.astype(np.int64)[..., None] + offsets) & (size - 1), np.exp(kernel, out=kernel)


def _reduced_phases(log_points: np.ndarray, t_step: float) -> np.ndarray:
    """Phases t_step * log(point) reduced onto [-pi, pi]."""
    x = t_step * log_points
    return x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))


def empirical_mellin_on_grid(em: EmpiricalMellin, grid: QuadratureConfig) -> np.ndarray:
    """Empirical Mellin transform n^-1 sum_j Y_j^(c-1+it) on a symmetric
    uniform grid.  It is unbiased for the transform of the sampled density.

    On t_m = m * t_step the transform is sum_j w_j exp(i m x_j) with
    w_j = Y_j^(c-1)/n and x_j = t_step*log Y_j: a type-1 non-uniform FFT of
    the K = half_size + 1 modes m = 0..M, computed by Gaussian gridding
    (`_gaussian_gridding`):

    - the phases x_j are reduced onto [-pi, pi) and the modes are centred
      by the factor exp(i*(K//2)*x_j) on the weights;
    - each point is spread with a periodised Gaussian over
      `_NUFFT_SPREAD` nodes on each side of a power-of-two grid of
      Mr >= `_NUFFT_OVERSAMPLING` * K nodes (32 768 for the default grid),
      `_SPREAD_BLOCK` points at a time, in sample order;
    - one inverse FFT in place, then division by the Gaussian's Fourier
      coefficients, written with the mirrored half into the output.

    Working memory is O(32*`_SPREAD_BLOCK` + Mr) besides a few arrays of
    length n; no n x K array is formed.  The t = 0 node is sum_j w_j,
    exactly real, and negative frequencies follow by conjugation (the
    weights are real).  It stays within 1e-11 * |M_hat(0)| of the direct sum
    over the sample for n up to 3 000, c in 0..1.5 and sample scales
    1e-6..1e6 (tested).  Overflowing weights Y_j^(c-1) raise `MellinError`.
    """
    w = _sample_weights(em) / em.n
    k_modes = grid.half_size + 1
    x = _reduced_phases(np.log(em.sample), grid.t_step)
    shift = k_modes // 2
    size, tau, deconvolution = _gaussian_gridding(np.arange(k_modes) - shift)
    spread = np.zeros(size, dtype=np.complex128)
    parts = spread.view(np.float64)  # real and imaginary part of node m at 2m and 2m+1
    for lo in range(0, em.n, _SPREAD_BLOCK):
        block = slice(lo, lo + _SPREAD_BLOCK)
        centred = w[block] * np.exp(1j * shift * x[block])
        nodes, kernel = _gaussian_kernel(x[block], size, tau)
        nodes = 2 * nodes.ravel()  # ufunc.at is fast on flat indices
        np.add.at(parts, nodes, (centred.real[:, None] * kernel).ravel())
        nodes += 1
        np.add.at(parts, nodes, np.multiply(centred.imag[:, None], kernel, out=kernel).ravel())
    np.fft.ifft(spread, out=spread)
    # mode k = m - shift sits at node k mod size
    out = np.empty(len(grid), dtype=np.complex128)
    half = out[grid.center :]
    half[:shift] = spread[size - shift :]
    half[shift:] = spread[: k_modes - shift]
    half *= deconvolution
    half[0] = w.sum()
    np.conjugate(half[:0:-1], out=out[: grid.center])
    return out


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

    A grid minimum can straddle an exact zero between nodes, so every dip
    below ``trigger`` (a node lower than its neighbours, an end node lower
    than its one neighbour) is polished by golden-section search over its
    neighbouring cells.  The package's one zero-freeness probe.
    """
    i = int(np.argmin(values))
    best, at = float(values[i]), float(t[i])
    point = lambda x: float(fn(np.array([x]))[0])
    left = np.append(True, values[1:] < values[:-1])  # first, or below its left neighbour
    right = np.append(values[:-1] < values[1:], True)  # last, or below its right neighbour
    for idx in np.where(left & right & (values < trigger))[0]:
        low, x = golden_section_min(point, t[max(idx - 1, 0)], t[min(idx + 1, t.size - 1)])
        if low < best:
            best, at = low, float(x)
    return best, at


@lru_cache(maxsize=64)
def _decay_upper(name: str, c: float) -> Optional[float]:
    """Upper decay constant of a catalog transform at c, or None when its
    record has no decay order or the order fails to certify."""
    transform, decay = CATALOG[name].transform, CATALOG[name].decay
    if decay is None:
        return None
    ratio = lambda t: np.abs(transform(t, c)) * (1.0 + t**2) ** (decay / 2.0)
    t = np.arange(0.0, _DECAY_PROBE_MAX + _DECAY_PROBE_STEP, _DECAY_PROBE_STEP)
    values = ratio(t)
    top = float(values.max())
    certified = np.isfinite(top) and probe_minimum(ratio, t, values, 1e-2 * top)[0] > 1e-9 * top
    return top if certified else None


def catalog_mellin(name: str, c: float) -> MellinFunction:
    """Closed-form Mellin transform of a catalog density at development point
    c, built from its `model.CATALOG` record.

    An unknown id, or a c outside the record's open interval (where the
    defining integral diverges; NaN included), raises `MellinError`.  A
    record's decay order g is certified on a probe grid of [0, 500], once
    per (id, c): the maximum of |H(t)|*(1+t^2)^(g/2) is the upper constant,
    and a (near-)zero of H (see `probe_minimum`; e.g. noise_uniform at c = 0)
    drops the certificate, as two-sided polynomial decay then fails.
    Each call returns a new object.
    """
    if name not in CATALOG:
        raise MellinError(f"unknown density id {name!r}; the catalog holds {tuple(CATALOG)}")
    record, c = CATALOG[name], float(c)
    lo, hi = record.c_range
    if not lo < c < hi:
        raise MellinError(f"{name} transform requires c in ({lo}, {hi}), got c={c}")
    transform, upper = record.transform, _decay_upper(name, c)
    eval_fn = lambda t: transform(t, c)
    return MellinFunction(c, eval_fn, None if upper is None else record.decay, upper)


def checked_x_grid(x_grid) -> np.ndarray:
    """``x_grid`` as a float array of finite positive points; anything but a
    nonempty 1-D array of at most `MAX_X_POINTS` points, or a zero, negative
    or non-finite point, raises `MellinError`."""
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise MellinError(f"x_grid must be a nonempty 1-D array, got shape {x.shape}")
    if x.size > MAX_X_POINTS:
        raise MellinError(f"x_grid has points={x.size}, more than MAX_X_POINTS={MAX_X_POINTS}")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise MellinError("x_grid must hold finite positive points only")
    return x


def eval_on_grid(transform, q: QuadratureConfig) -> np.ndarray:
    """Complex values of a transform (callable, or values already on the
    grid) at the nodes of ``q``; a shape mismatch or a non-finite value
    raises `MellinError`."""
    vals = np.asarray(transform(q.t) if callable(transform) else transform)
    if vals.shape != q.t.shape:
        raise MellinError("transform values do not match the quadrature grid")
    vals = vals.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise MellinError("transform takes non-finite values on the grid")
    return vals


class InversionPlan:
    """Inversion on ``grid`` at the points ``x_grid``, with everything that
    does not depend on the product built once.

    Called on one product H on the grid, the plan returns the complex
    quadrature sum (2pi)^-1 sum_m w_m x^(-c-i t_m) H(t_m) of shape (len(x),).
    With ``support`` = k the sum runs over the sub-window [-k, k] of index
    offset j with proper trapezoid end weights there, and the product may
    hold just the window's 2j+1 nodes.  An x-grid refused by
    `checked_x_grid` raises `MellinError` at construction; a product of any
    shape but (len(grid),) or (2j+1,), a stack of products included, raises
    it before any work.

    The sum over m = -j..j is a Fourier series in the phase t_step*log x,
    evaluated as a type-2 non-uniform FFT (Dutt & Rokhlin 1993, SIAM J. Sci.
    Comput. 14:1368), the adjoint of `empirical_mellin_on_grid`: deconvolved
    modes on a grid of >= 2*(2j+1) nodes (65 536 for the default grid), then
    Gaussian interpolation at each x (`_gaussian_kernel`).  The values
    conj H(t_m) times the t >= 0 half of the weights go into a
    half-spectrum buffer and one real inverse FFT runs into a real buffer;
    for a conjugate-symmetric product that is the whole sum, and the
    imaginary part is exactly 0.  Where H(-t) differs from conj H(t) on the
    window, the product's Hermitian and anti-Hermitian parts take one real
    FFT each, the latter giving the imaginary part that `checked_real_part`
    judges.  Every call reuses both buffers, which the first call allocates
    and `release` drops, so a plan is not for concurrent calls.  The result
    stays within 1e-12 * (t_step/2pi) * sum_m |H(t_m)| * x^-c of the direct
    sum (tested).
    """

    def __init__(self, grid: QuadratureConfig, c: float, x_grid: np.ndarray,
                 support: Optional[float] = None):
        x = checked_x_grid(x_grid)
        self.grid = grid
        j = self.j = grid.half_size if support is None else grid.window_index(support)
        self.size, tau, weights = _gaussian_gridding(np.arange(-j, j + 1))
        self._weights = weights[j:] * grid.t_step  # modes m = 0..j
        del weights  # before the buffers, to keep it out of the memory peak
        self._weights[-1] *= 0.5  # the trapezoid end weights
        if j == 0:
            self._weights[0] *= 0.5  # both ends fall on t = 0
        phases = _reduced_phases(np.log(x), grid.t_step)
        self._nodes, self._kernel = _gaussian_kernel(phases, self.size, tau)
        self._x_c = x ** (-c)
        self._half = self._real = None  # the FFT buffers, allocated by the first call

    def release(self) -> None:
        """Drop the FFT buffers; the next call allocates them again."""
        self._half = self._real = None

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        n, j = len(self.grid), self.j
        if values.shape not in ((n,), (2 * j + 1,)):
            raise MellinError(
                f"product has shape {values.shape}; the plan inverts one product "
                f"of {n} values, one per grid node, or of the {2 * j + 1} on its window"
            )
        if self._half is None:
            self._half = np.zeros(self.size // 2 + 1, dtype=np.complex128)
            self._real = np.empty(self.size)
        out = np.empty(self._x_c.size, dtype=np.complex128)
        mid = values.size // 2  # the t = 0 node
        half = self._half[: j + 1]
        np.conjugate(values[mid : mid + j + 1], out=half)  # conj H(t_m), m = 0..j
        mirrored = values[mid - j : mid + 1][::-1]  # H(-t_m)
        if np.array_equal(half, mirrored):
            half *= self._weights
            out.real = self._interpolate()
            out.imag = 0.0
        else:
            # H = P + iQ with P and Q conjugate-symmetric: conj Q, then conj P
            odd = (half - mirrored) * 0.5j
            half += mirrored
            half *= 0.5
            half *= self._weights
            out.real = self._interpolate()
            np.multiply(odd, self._weights, out=half)
            out.imag = self._interpolate()
        out *= self._x_c
        out /= 2.0 * np.pi
        return out

    def _interpolate(self) -> np.ndarray:
        """The real FFT of the half-spectrum buffer, interpolated at each x."""
        np.fft.irfft(self._half, n=self.size, out=self._real)
        near = self._real[self._nodes]
        near *= self._kernel
        return near.sum(axis=-1)


def checked_real_part(values: np.ndarray) -> np.ndarray:
    """Real part of an `InversionPlan` output, after the Hermitian check.

    The imaginary residue of the two-sided sum is the inversion of the
    product's anti-Hermitian part.  It must stay within
    1e-8 * (1 + max |Re|); a larger residue means the inverted transform
    was not conjugate-symmetric and raises `HermitianSymmetryError`.  A
    non-finite value, which no residue test can judge, raises `MellinError`.
    The result is a copy, so it does not keep the complex input alive.
    """
    if not np.all(np.isfinite(values)):
        raise MellinError("inversion output is not finite")
    re, im = values.real, values.imag
    if np.abs(im).max() > 1e-8 * (1.0 + np.abs(re).max()):
        raise HermitianSymmetryError(
            "imaginary residue of the inversion exceeds tolerance; "
            "the Mellin-domain input is not conjugate-symmetric"
        )
    return re.copy()


def inverse_mellin(
    transform, c: float, x_grid: np.ndarray, q: QuadratureConfig
) -> WeightedFunction:
    """Inverse Mellin transform by quadrature on the grid of ``q``.

    ``transform`` is a callable t -> complex (vectorised).  The input must be
    conjugate-symmetric, H(-t) = conj(H(t)); a violation raises
    `HermitianSymmetryError` (see `checked_real_part`).
    """
    re = checked_real_part(InversionPlan(q, c, x_grid)(eval_on_grid(transform, q)))
    return WeightedFunction(x_grid=np.asarray(x_grid, float), values=re, c=c)

