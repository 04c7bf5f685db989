"""Ridge and spectral cut-off density estimators as Mellin-domain multipliers.

Both estimators multiply the empirical Mellin transform by a frequency
multiplier built from the known error transform M_g and invert the product:

* cut-off: 1/M_g on the window |t| <= k (to the nearest grid node), zero
  outside; requires M_g to be zero-free on the window.
* ridge:   conj(M_g(t)) |M_g(t)|^r / max(|M_g(t)|, (1+|t|)^xi / k)^(r+2),
  which equals 1/M_g wherever |M_g| clears the threshold and is damped to
  zero where it does not, so no zero-freeness is needed.

The ridge multiplier factors into k-free vectors: with
kappa = (1+|t|)^xi / |M_g| (infinite where M_g = 0),
R_k = (1/M_g) min(1, k/kappa)^(r+2) = a min(kappa, k)^(r+2), where
a = conj(M_g) |M_g|^r (1+|t|)^(-xi(r+2)).  `ridge_factors` is the one place
the factors are written, and `ridge_row` and `cutoff_row` the one place
each multiplier is formed from them, by the multipliers here and by
`selection.Pipeline.multiplier` alike.  The damped region
G_k = {kappa > k} shrinks as k grows; multiplier magnitudes grow
monotonically in k.

Every product is inverted on its own by a `mellin.InversionPlan`, a type-2
non-uniform FFT, and passes the Hermitian residue check of
`mellin.checked_real_part`, which returns an owned real copy.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .grids import QuadratureConfig
from .mellin import (
    EmpiricalMellin,
    InversionPlan,
    MellinError,
    MellinFunction,
    check_same_c,
    checked_real_part,
    probe_minimum,
)


class NoiseTransformZeroError(MellinError):
    """The error-density transform (numerically) vanishes inside a cut-off
    window, so division by it is ill-posed there."""


@dataclass(frozen=True)
class RidgeSpec:
    """Ridge configuration: level k, threshold exponent xi, power r, point c."""

    k: float
    c: float
    xi: float = 0.0
    r: float = 2.0

    def __post_init__(self):
        check_level(self.k)
        check_ridge_exponents(self.xi, self.r)


def check_level(k: float) -> None:
    """Raise `ValueError` unless the regularisation level k is positive and
    finite: the one level rule of both specs and `selection.Pipeline`."""
    if not 0.0 < k < np.inf:
        raise ValueError(f"level k must be positive and finite, got k={k!r}")


def check_ridge_exponents(xi: float, r: float) -> None:
    """Raise `ValueError` unless the ridge exponents are finite and nonnegative."""
    if not (0.0 <= xi < np.inf and 0.0 <= r < np.inf):
        raise ValueError(f"xi and r must be finite and nonnegative, got xi={xi}, r={r}")


@dataclass(frozen=True)
class CutoffSpec:
    """Spectral cut-off configuration: window bound k and development point c."""

    k: float
    c: float

    def __post_init__(self):
        check_level(self.k)


@dataclass(frozen=True)
class MellinMultiplier:
    """A frequency multiplier with its defining spec and error transform."""

    spec: Union[RidgeSpec, CutoffSpec]
    g_mellin: MellinFunction
    eval_fn: Callable[[np.ndarray], np.ndarray]
    support: Optional[float] = None  # window bound for cut-off, None for ridge

    def __call__(self, t) -> np.ndarray:
        return self.eval_fn(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class DensityEstimate:
    """Estimated density values on an x-grid at development point c."""

    x_grid: np.ndarray
    values: np.ndarray
    c: float


def _reciprocal(mg: np.ndarray) -> np.ndarray:
    """1/M_g, 0 where M_g = 0: the package's one reciprocal of M_g, shared by
    the ridge factors (so by both banks) and the cut-off multiplier."""
    return np.divide(1.0, mg, out=np.zeros_like(mg), where=np.abs(mg) > 0.0)


def ridge_factors(mg: np.ndarray, t: np.ndarray, xi: float, r: float) -> tuple:
    """Factors (inv, kappa) of the ridge multiplier at nodes ``t`` from M_g there.

    inv = 1/M_g (0 where M_g = 0) and kappa = (1+|t|)^xi / |M_g| (infinite
    where M_g = 0) give R_k = inv * min(1, k/kappa)^(r+2): exactly 1/M_g
    where kappa <= k, damped elsewhere.  This is the defining form
    M_g(-t) |M_g|^r / max(|M_g|, (1+|t|)^xi / k)^(r+2) with M_g(-t) taken
    as conj(M_g(t)), which holds for every real noise density (bitwise for
    the catalog noises on symmetric grids).  In the form a min(kappa, k)^(r+2)
    the k-free factor has |a| = |inv| kappa^-(r+2).
    """
    amg = np.abs(mg)
    inv = _reciprocal(mg)
    with np.errstate(divide="ignore"):
        kappa = (1.0 + np.abs(t)) ** xi / amg
    return inv, kappa


def ridge_row(inv: np.ndarray, kappa: np.ndarray, k: float, p: float) -> np.ndarray:
    """Ridge multiplier R_k = (1/M_g) min(1, k/kappa)^p, p = r + 2, from the
    `ridge_factors` (inv, kappa) at the same nodes."""
    return inv * np.minimum(1.0, k / kappa) ** p


def cutoff_row(inv: np.ndarray, t: np.ndarray, edge: float) -> np.ndarray:
    """Cut-off multiplier: ``inv`` = 1/M_g at the nodes ``t`` with
    |t| <= ``edge``, zero elsewhere."""
    return np.where(np.abs(t) <= edge, inv, 0.0)


def ridge_multiplier(spec: RidgeSpec, g_mellin: MellinFunction) -> MellinMultiplier:
    """Build the ridge multiplier for an error transform.

    Exactly 1/M_g(t) wherever |M_g(t)| >= (1+|t|)^xi / k; the damped form
    is used elsewhere and never divides by zero.  M_g is evaluated at t
    only: `ridge_factors` takes M_g(-t) as its conjugate.
    """
    check_same_c("multiplier", spec.c, "noise", g_mellin.c)
    if g_mellin.decay_exponent is not None:
        rate = g_mellin.decay_exponent * (spec.r + 1.0) + spec.xi * (spec.r + 2.0)
        if rate <= 1.0:
            warnings.warn(
                "ridge multiplier may not be integrable: decay rate "
                f"{rate:.3g} <= 1 for r={spec.r}, xi={spec.xi}; proceeding "
                "on the finite quadrature window",
                RuntimeWarning,
                stacklevel=2,
            )

    k, xi, r = spec.k, spec.xi, spec.r

    def eval_fn(t, k=k, xi=xi, r=r, g=g_mellin):
        t = np.asarray(t, dtype=float)
        inv, kappa = ridge_factors(np.asarray(g.eval_fn(t), dtype=np.complex128), t, xi, r)
        return ridge_row(inv, kappa, k, r + 2.0)

    return MellinMultiplier(spec=spec, g_mellin=g_mellin, eval_fn=eval_fn, support=None)


def check_nonvanishing(
    g_mellin: MellinFunction, k: float, t_step: float = 0.01
) -> None:
    """Verify |M_g| >= 1e-12 on [-k, k] by `probe_minimum` on a grid of step
    at most 0.01, polishing dips below 1e-3.

    Raises `NoiseTransformZeroError` on failure.
    """
    step = min(t_step, 0.01)
    t = np.arange(0.0, k + step, step)
    t[-1] = min(t[-1], k)
    abs_mg = lambda s: np.abs(g_mellin(s))
    low, at = probe_minimum(abs_mg, t, abs_mg(t), 1e-3)
    if low < 1e-12:
        raise NoiseTransformZeroError(
            f"noise transform vanishes near t={at:.4f} inside the window [-{k}, {k}]"
        )


def cutoff_multiplier(
    spec: CutoffSpec, g_mellin: MellinFunction, q: QuadratureConfig
) -> MellinMultiplier:
    """Build the cut-off multiplier 1/M_g on the window of level k, zero
    outside.  The window ends at the grid node nearest to k
    (`QuadratureConfig.window_index`), as in `selection.Pipeline.multiplier`
    and the windowed inversion."""
    check_same_c("multiplier", spec.c, "noise", g_mellin.c)
    edge = float(q.t[q.center + q.window_index(spec.k)])
    check_nonvanishing(g_mellin, edge, q.t_step)

    def eval_fn(t, edge=edge, g=g_mellin):
        t = np.asarray(t, dtype=float)
        return cutoff_row(_reciprocal(np.asarray(g.eval_fn(t), dtype=np.complex128)), t, edge)

    return MellinMultiplier(spec=spec, g_mellin=g_mellin, eval_fn=eval_fn, support=spec.k)


def multiplier_norm_sq(mult: MellinMultiplier, q: QuadratureConfig) -> float:
    """Integral of |multiplier|^2 dt (no 2*pi normalisation).

    Cut-off multipliers are integrated exactly over their window [-k, k];
    ridge multipliers over the full quadrature window.  When the noise
    transform carries decay metadata, the analytic tail bound is checked
    against ``q.rel_tail_tol`` and a truncation warning is emitted if the
    window is too short.
    """
    vals = np.abs(mult(q.t)) ** 2
    if mult.support is not None:
        return float(q.window_integrate(vals, mult.support))
    norm = float(q.integrate(vals))
    g = mult.g_mellin
    spec = mult.spec
    if isinstance(spec, RidgeSpec) and g.decay_exponent is not None:
        # tail of |R|^2 <= (k^(r+2) C^(r+1))^2 (1+t^2)^(-gamma(r+1)) past the last node
        rate = 2.0 * g.decay_exponent * (spec.r + 1.0)
        if rate > 1.0:
            const = (spec.k ** (spec.r + 2.0) * g.decay_upper ** (spec.r + 1.0)) ** 2
            tail = 2.0 * const * (q.half_size * q.t_step) ** (1.0 - rate) / (rate - 1.0)
            if tail > q.rel_tail_tol * max(norm, np.finfo(float).tiny):
                warnings.warn(
                    f"ridge norm truncated: analytic tail bound {tail:.3g} "
                    f"exceeds rel_tail_tol of the computed value {norm:.6g}; "
                    "increase t_max",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return norm


def estimate_density(
    mult: MellinMultiplier,
    em: EmpiricalMellin,
    x_grid: np.ndarray,
    q: QuadratureConfig,
) -> DensityEstimate:
    """Apply a multiplier to the empirical transform and invert to x-space.

    The result is real up to quadrature round-off (the product inherits
    conjugate symmetry from the real sample weights); the imaginary residue
    is checked as in `inverse_mellin`.
    """
    check_same_c("sample", em.c, "multiplier", mult.spec.c)
    product = em.on_grid(q).copy()
    product *= mult(q.t)  # in place: numpy rounds this a bit apart from a * b
    values = checked_real_part(InversionPlan(q, em.c, x_grid, mult.support)(product))
    return DensityEstimate(np.asarray(x_grid, dtype=float), values, em.c)


def write_estimate_csv(path, estimate: DensityEstimate) -> None:
    """Write an estimate as CSV with columns x, f_hat."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f_hat"])
        for x, v in zip(estimate.x_grid, estimate.values):
            writer.writerow([repr(float(x)), repr(float(v))])
