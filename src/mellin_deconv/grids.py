"""Quadrature configuration (the uniform symmetric frequency grid) and x-grids.

All frequency-domain integrals in the package are composite trapezoid sums
on a uniform grid t_m = m * t_step, m = -M..M.  `QuadratureConfig` is that
grid: it carries the nodes and helpers for trapezoid integration over the
whole grid and over symmetric sub-windows [-k, k], which the cut-off
estimator and the selection rules need for every candidate k in one
cumulative pass.  It keeps no weight vector; the ridge bank builds its own
(`selection.RidgeBank`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Largest node count a grid may have.  The largest grid the package needs,
#: t_step 0.01 on [-4e4, 4e4] for the 1/t tail of a jump density's
#: transform, has 8 000 001 nodes; at the bound the nodes take 80 MB and
#: the empirical transform's FFT grid 2^24 complex values (268 MB).
MAX_GRID_NODES = 10_000_001


@dataclass(frozen=True)
class QuadratureConfig:
    """Uniform symmetric grid on [-t_max, t_max] with trapezoid integration.

    Parameters
    ----------
    t_step : float
        Grid spacing; integrands must be resolved on this scale.
    t_max : float
        Truncation bound; the outermost node is the one nearest to it,
        ``half_size * t_step``.
    rel_tail_tol : float
        Acceptable relative mass of an integrand's truncated tail.  Only
        `selection.Pipeline.fixed_ridge_bank` reads it, warning when a
        level's `RidgeBank.tail_ratios` exceeds it; plain quadrature calls
        integrate the window as given.

    Construction only validates and refuses more than `MAX_GRID_NODES`
    nodes; the nodes ``t`` are built on first use and kept with the object.
    """

    t_step: float = 0.01
    t_max: float = 150.0
    rel_tail_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.t_step < np.inf:
            raise ValueError("t_step must be positive and finite")
        if not 10.0 * self.t_step <= self.t_max < np.inf:
            raise ValueError("t_max must be finite and at least 10 * t_step")
        if not 0.0 < self.rel_tail_tol <= 0.01:
            raise ValueError("rel_tail_tol must lie in (0, 0.01]")
        nodes = 2.0 * np.round(self.t_max / self.t_step) + 1.0
        if not nodes <= MAX_GRID_NODES:
            raise ValueError(
                f"t_step={self.t_step} and t_max={self.t_max} give a grid of "
                f"{nodes:.0f} nodes, more than {MAX_GRID_NODES}"
            )

    @property
    def half_size(self) -> int:
        return int(round(self.t_max / self.t_step))

    center = half_size  # index of t = 0

    @cached_property
    def t(self) -> np.ndarray:
        """The nodes, read-only because every user of this config shares them."""
        t = np.arange(-self.half_size, self.half_size + 1) * float(self.t_step)
        t.flags.writeable = False
        return t

    def __len__(self) -> int:
        return 2 * self.half_size + 1

    def window_index(self, k: float) -> int:
        """Grid index offset for the sub-window [-k, k] (nearest node); a
        negative or non-finite k raises `ValueError`."""
        if not 0.0 <= float(k) < np.inf:
            raise ValueError(f"window level k must be finite and nonnegative, got k={k!r}")
        j = int(round(float(k) / self.t_step))
        if j > self.half_size:
            raise ValueError(
                f"window k={k} exceeds the quadrature bound "
                f"t_max={self.half_size * self.t_step}"
            )
        return j

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid integral over the full window [-t_max, t_max], of one
        tabulated integrand or of each row of a stack."""
        inner = values[..., 1:-1].sum(axis=-1)
        return self.t_step * (inner + 0.5 * (values[..., 0] + values[..., -1]))

    def window_integrate(self, values: np.ndarray, k: float) -> float:
        """Trapezoid integral over the sub-window [-k, k] of `window_index`."""
        j = self.window_index(k)
        return self.integrate(values[self.center - j : self.center + j + 1]) if j else 0.0

    def centered_cumulative(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid integrals over [-t_j, t_j] for every j = 0..half_size.

        Returns an array S with S[j] equal to window_integrate(values, t_j);
        computed in one cumulative pass.
        """
        c = self.center
        folded = values[c + 1 :] + values[c - 1 :: -1][: self.half_size]
        inner = values[c] + np.concatenate(([0.0], np.cumsum(folded)))
        ends = np.concatenate(([values[c]], 0.5 * folded))
        s = self.t_step * (inner - ends)
        s[0] = 0.0
        return s


def default_x_grid(
    x_min: float = 1e-2, x_max: float = 30.0, points: int = 512
) -> np.ndarray:
    """Log-spaced evaluation grid covering the catalog densities' support."""
    if not 0.0 < x_min < x_max:
        raise ValueError("need 0 < x_min < x_max")
    if points < 2:
        raise ValueError("need at least two grid points")
    return np.geomspace(x_min, x_max, points)
