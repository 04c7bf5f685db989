"""Quadrature configuration, the uniform symmetric frequency grid, and x-grids.

All frequency-domain integrals in the package are composite trapezoid sums
on a uniform grid t_m = m * t_step, m = -M..M.  The grid object carries the
trapezoid weights and helpers for integrating over symmetric sub-windows
[-k, k], which the cut-off estimator and the selection rules need for every
candidate k in one cumulative pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureConfig:
    """Discretisation of integrals over the frequency line.

    Parameters
    ----------
    t_step : float
        Grid spacing; integrands must be resolved on this scale.
    t_max : float
        Truncation bound; integration runs over [-t_max, t_max].
    rel_tail_tol : float
        Acceptable relative mass of an integrand's truncated tail.  Used by
        diagnostics that hold an analytic tail bound; plain quadrature calls
        integrate the window as given.
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


class FrequencyGrid:
    """Uniform symmetric grid on [-t_max, t_max] with trapezoid weights."""

    def __init__(self, t_step: float, t_max: float):
        if t_step <= 0.0 or t_max <= 0.0:
            raise ValueError("t_step and t_max must be positive")
        self.t_step = float(t_step)
        self.half_size = int(round(t_max / t_step))
        if self.half_size < 1:
            raise ValueError("grid needs at least one positive node")
        self.t_max = self.half_size * self.t_step
        m = np.arange(-self.half_size, self.half_size + 1)
        self.t = m * self.t_step
        self.center = self.half_size  # index of t = 0

    @classmethod
    def from_config(cls, q: QuadratureConfig) -> "FrequencyGrid":
        return cls(q.t_step, q.t_max)

    def __len__(self) -> int:
        return self.t.size

    def window_index(self, k: float) -> int:
        """Grid index offset for the sub-window [-k, k] (nearest node)."""
        j = int(round(float(k) / self.t_step))
        if j > self.half_size:
            raise ValueError(
                f"window k={k} exceeds the quadrature bound t_max={self.t_max}"
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

    def mirror(self, half_values: np.ndarray) -> np.ndarray:
        """Extend values given on t >= 0 to the full grid by conjugation."""
        return np.concatenate((np.conj(half_values[:0:-1]), half_values))


def default_x_grid(
    x_min: float = 1e-2, x_max: float = 30.0, points: int = 512
) -> np.ndarray:
    """Log-spaced evaluation grid covering the catalog densities' support."""
    if not 0.0 < x_min < x_max:
        raise ValueError("need 0 < x_min < x_max")
    if points < 2:
        raise ValueError("need at least two grid points")
    return np.geomspace(x_min, x_max, points)
