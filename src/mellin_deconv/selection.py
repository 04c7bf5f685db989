"""Data-driven choice of the regularisation level k for both estimators.

Ridge: a Goldenshluger-Lepski rule.  For each admissible k the bias proxy

    A_hat(k) = max_{k'} ( ||f_hat_{k'} - f_hat_{min(k',k)}||^2 - chi1 * V_hat(.) )_+

is paired with the variance proxy V_hat(k) = 2 * sigma_hat * ||R_k||^2 / n,
and k_hat minimises A_hat(k) + chi2 * V_hat(k) over the admissible set
{k : ||R_k||^2 <= n}.  The penalty inside the supremum is evaluated at the
candidate k'.

Cut-off: k_tilde minimises -||f_tilde_k||^2 + pen(k) with
pen(k) = 2 * chi * sigma_hat * ||1_[-k,k] / M_g||^2 / (2 pi n) over
{k : ||1_[-k,k] / M_g||^2 <= 2 pi n}.

Contrast norms are computed in the Mellin domain via the Plancherel
identity, so the whole selection runs on one shared frequency grid.

`Pipeline` is the package's one chain of grid, banks, empirical transform,
selection and inversion; every data-driven estimate runs through it.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .estimators import (
    DensityEstimate,
    check_nonvanishing,
    check_ridge_exponents,
    ridge_threshold,
    ridge_values,
)
from .grids import QuadratureConfig, default_x_grid
from .mellin import (
    EmpiricalMellin,
    MellinError,
    MellinFunction,
    check_same_c,
    checked_real_part,
    empirical_mellin_on_grid,
    invert_grid_values,
)

TWO_PI = 2.0 * np.pi


class EmptyAdmissibleSetError(ValueError):
    """No candidate level passes the admissibility bound for this sample size."""


@dataclass(frozen=True)
class SelectionConfig:
    """Constants and candidate grid for the data-driven rules.

    chi1/chi2 scale the ridge penalties (chi2 >= chi1 > 0), chi the cut-off
    penalty, all finite; xi and r as in `RidgeSpec`.  ``k_grid`` of None
    means consecutive integers 1, 2, ... with the scan stopping at the first
    inadmissible level (for the ridge rule also after the first saturated
    level; see `RidgeBank`).
    """

    chi1: float
    chi2: float
    chi: float
    c: float = 1.0
    r: float = 2.0
    xi: float = 0.0
    k_grid: Optional[Sequence[int]] = None

    def __post_init__(self):
        if not (np.inf > self.chi2 >= self.chi1 > 0.0):
            raise ValueError("need finite chi2 >= chi1 > 0")
        if not np.inf > self.chi > 0.0:
            raise ValueError("need finite chi > 0")
        check_ridge_exponents(self.xi, self.r)
        if self.k_grid is not None:
            kg = tuple(int(k) for k in self.k_grid)
            if len(kg) == 0:
                raise ValueError("k_grid must be nonempty")
            if any(k <= 0 for k in kg) or any(b <= a for a, b in zip(kg, kg[1:])):
                raise ValueError("k_grid must be strictly increasing positive integers")
            object.__setattr__(self, "k_grid", kg)


@dataclass(frozen=True)
class LevelDiagnostics:
    """Per-candidate diagnostics; see `SelectionResult`."""

    k: int
    a_hat: float
    v_hat: float
    objective: float


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a data-driven level choice.

    For the ridge rule, ``a_hat``/``v_hat`` are the bias and variance
    proxies and objective = a_hat + chi2 * v_hat.  For the cut-off rule,
    ``a_hat`` holds the window norm ||f_tilde_k||^2, ``v_hat`` the penalty,
    and objective = v_hat - a_hat.  ``k_hat`` is the smallest admissible
    minimiser of the objective.
    """

    method: str
    k_hat: int
    sigma_hat: float
    diagnostics: tuple

    @property
    def admissible(self) -> tuple:
        return tuple(d.k for d in self.diagnostics)


def sigma_hat(em: EmpiricalMellin) -> float:
    """Moment estimator n^-1 sum_j Y_j^(2(c-1)) scaling the variance proxy."""
    return float(np.mean(em.sample ** (2.0 * (em.c - 1.0))))


class RidgeBank:
    """Ridge multipliers tabulated on a shared grid for a prefix of levels.

    Levels are taken from ``cfg.k_grid`` (or 1, 2, ... when absent) as long
    as ||R_k||^2 <= n_cap; by magnitude monotonicity in k the admissible set
    is always such a prefix.  M_g is tabulated once per build, and M_g(-t)
    is that table reversed (the grid is symmetric); |M_g| is kept as
    ``abs_mg``.  The consecutive scan also ends at the first saturated
    level, whose threshold clears |M_g| at every node where M_g != 0: every
    later level is the same estimator.
    """

    def __init__(
        self,
        g_mellin: MellinFunction,
        cfg: SelectionConfig,
        q: QuadratureConfig,
        n_cap: float,
    ):
        self.q = q
        self.cfg = cfg
        mg = np.asarray(g_mellin(q.t), dtype=np.complex128)
        amg = self.abs_mg = np.abs(mg)
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

    def __len__(self) -> int:
        return self.k_values.size

    def row(self, k: int) -> np.ndarray:
        """Tabulated multiplier of level ``k``."""
        return self.rows[int(np.nonzero(self.k_values == k)[0][0])]

    def select(
        self, mhat_abs_sq: np.ndarray, sig_hat: float, n: int
    ) -> SelectionResult:
        """Goldenshluger-Lepski selection given |M_hat|^2 on the bank's grid."""
        _require_levels(self, "ridge", n)
        cfg = self.cfg
        m = len(self)
        v_hat = 2.0 * sig_hat * self.norms_sq / n

        # contrast(i, j) = ||f_hat_{k_j} - f_hat_{k_i}||^2 for i < j, via Plancherel
        contrast = np.zeros((m, m))
        for j in range(1, m):
            diff_sq = np.abs(self.rows[j] - self.rows[:j]) ** 2
            contrast[:j, j] = self.q.integrate(mhat_abs_sq * diff_sq) / TWO_PI

        a_hat = np.zeros(m)
        for i in range(m - 1):
            terms = contrast[i, i + 1 :] - cfg.chi1 * v_hat[i + 1 :]
            a_hat[i] = np.max(terms, initial=0.0)

        objective = a_hat + cfg.chi2 * v_hat
        return _selection_result("ridge", self.k_values, a_hat, v_hat, objective, sig_hat)


class CutoffBank:
    """Cut-off window norms tabulated for a prefix of admissible levels.

    Each level's window, `QuadratureConfig.window_index` (nearest node), is
    worked out once as ``windows`` and serves the norms, the selection
    contrasts, `row` and the zero check of the largest window.
    """

    def __init__(
        self,
        g_mellin: MellinFunction,
        cfg: SelectionConfig,
        q: QuadratureConfig,
        n_cap: float,
    ):
        self.q = q
        self.cfg = cfg
        mg = np.asarray(g_mellin(q.t), dtype=np.complex128)
        amg = np.abs(mg)
        # guarded reciprocal; true zero-freeness is certified per window below
        safe = np.where(amg > 0.0, mg, 1.0)
        self.inv_mg = np.where(amg > 0.0, 1.0 / safe, 0.0)
        cum = q.centered_cumulative(np.abs(self.inv_mg) ** 2)

        levels = []
        windows = []
        for k in cfg.k_grid or itertools.count(1):
            try:
                j = q.window_index(k)
            except ValueError:  # the window passes the grid edge
                break
            if cum[j] > TWO_PI * n_cap:
                break
            levels.append(int(k))
            windows.append(j)
        self.k_values = np.array(levels, dtype=int)
        self.windows = np.array(windows, dtype=int)
        self.norms_sq = cum[self.windows]
        if len(levels) > 0:
            edge = float(q.t[q.center + windows[-1]])
            check_nonvanishing(g_mellin, edge, q.t_step)

    def __len__(self) -> int:
        return self.k_values.size

    def row(self, k: int) -> np.ndarray:
        """Cut-off multiplier of level ``k``: 1/M_g on its window, zero outside."""
        j = self.windows[int(np.nonzero(self.k_values == k)[0][0])]
        offsets = np.abs(np.arange(len(self.q)) - self.q.center)
        return np.where(offsets <= j, self.inv_mg, 0.0)

    def select(
        self, mhat_abs_sq: np.ndarray, sig_hat: float, n: int
    ) -> SelectionResult:
        """Penalised-contrast selection given |M_hat|^2 on the bank's grid."""
        _require_levels(self, "cut-off", n)
        cum = self.q.centered_cumulative(mhat_abs_sq * np.abs(self.inv_mg) ** 2)
        window_norms = cum[self.windows] / TWO_PI
        pen = 2.0 * self.cfg.chi * sig_hat * self.norms_sq / (TWO_PI * n)
        return _selection_result(
            "cutoff", self.k_values, window_norms, pen, pen - window_norms, sig_hat
        )


def _require_levels(bank, name: str, n: int) -> None:
    if len(bank) == 0:
        raise EmptyAdmissibleSetError(
            f"no {name} level on the candidate grid satisfies the "
            f"admissibility bound for n={n}"
        )


def _selection_result(method, k_values, a_hat, v_hat, objective, sig_hat):
    """Result with per-level diagnostics; k_hat is the first minimiser."""
    best = int(np.argmin(objective))  # first minimiser = smallest k
    diags = tuple(
        LevelDiagnostics(
            k=int(k_values[i]),
            a_hat=float(a_hat[i]),
            v_hat=float(v_hat[i]),
            objective=float(objective[i]),
        )
        for i in range(len(k_values))
    )
    return SelectionResult(
        method=method,
        k_hat=int(k_values[best]),
        sigma_hat=float(sig_hat),
        diagnostics=diags,
    )


@dataclass(frozen=True)
class SampleTransform:
    """A sample's empirical transform M_hat on a pipeline's grid, with
    |M_hat|^2 and sigma_hat."""

    mhat: np.ndarray
    abs_sq: np.ndarray
    sigma_hat: float


class Pipeline:
    """The estimation chain for one configuration and sample size ``n``.

    Holds the frequency grid ``q`` and the x-grid of the estimates.  The
    ridge and cut-off banks are built on first use, so the ridge rule works
    where the cut-off bank raises `NoiseTransformZeroError`.  The
    development points of ``g_mellin``, ``cfg`` and every sample must
    agree; a mismatch raises `MellinError`.
    """

    def __init__(
        self,
        g_mellin: MellinFunction,
        cfg: SelectionConfig,
        q: QuadratureConfig,
        n: int,
        x_grid: np.ndarray,
    ):
        check_same_c("selection", cfg.c, "noise", g_mellin.c)
        self.g_mellin, self.cfg, self.q, self.c, self.n = g_mellin, cfg, q, cfg.c, int(n)
        self.x_grid = np.asarray(x_grid, dtype=float)

    @cached_property
    def ridge_bank(self) -> RidgeBank:
        return RidgeBank(self.g_mellin, self.cfg, self.q, n_cap=float(self.n))

    @cached_property
    def cutoff_bank(self) -> CutoffBank:
        return CutoffBank(self.g_mellin, self.cfg, self.q, n_cap=float(self.n))

    def fixed_ridge_bank(self, levels: Sequence[int]) -> RidgeBank:
        """Ridge rows at fixed increasing levels, without the admissibility cap."""
        cfg = replace(self.cfg, k_grid=tuple(levels))
        return RidgeBank(self.g_mellin, cfg, self.q, n_cap=np.inf)

    def transform(self, em: EmpiricalMellin) -> SampleTransform:
        """Empirical transform of a sample; `MellinError` when c differs or
        sigma_hat or the moment weights Y^(c-1) overflow."""
        check_same_c("sample", em.c, "pipeline", self.c)
        if em.n != self.n:
            raise ValueError(f"sample size {em.n} differs from pipeline n={self.n}")
        with np.errstate(over="ignore"):
            sig = sigma_hat(em)
        if not np.isfinite(sig):
            raise MellinError(f"sigma_hat overflows at c={em.c}; rescale the sample")
        mhat = empirical_mellin_on_grid(em, self.q)
        return SampleTransform(mhat=mhat, abs_sq=np.abs(mhat) ** 2, sigma_hat=sig)

    def select(self, method: str, em) -> SelectionResult:
        """Data-driven level; ``em`` is an `EmpiricalMellin` or its `transform`."""
        if method not in ("ridge", "cutoff"):
            raise ValueError(f"method must be 'ridge' or 'cutoff', got {method!r}")
        tf = em if isinstance(em, SampleTransform) else self.transform(em)
        return getattr(self, f"{method}_bank").select(tf.abs_sq, tf.sigma_hat, self.n)

    def invert(self, product: np.ndarray, support: Optional[float] = None) -> np.ndarray:
        """Real x-grid values of a product, or of a stack of products."""
        return checked_real_part(
            invert_grid_values(self.q, product, self.c, self.x_grid, support=support)
        )

    def fit(self, method: str, em) -> tuple:
        """(SelectionResult, DensityEstimate) for a sample or its `transform`;
        passing the transform lets both methods share it."""
        tf = em if isinstance(em, SampleTransform) else self.transform(em)
        result = self.select(method, tf)
        product = tf.mhat * getattr(self, f"{method}_bank").row(result.k_hat)
        support = float(result.k_hat) if method == "cutoff" else None
        return result, DensityEstimate.from_product(
            self.q, product, self.c, self.x_grid, support
        )


def admissible_ridge(
    g_mellin: MellinFunction,
    cfg: SelectionConfig,
    n: int,
    q: QuadratureConfig,
) -> list:
    """Prefix of the candidate grid with ||R_k||^2 <= n.

    Raises `EmptyAdmissibleSetError` when even the first candidate fails
    (the grid starts too high for this sample size).
    """
    bank = Pipeline(g_mellin, cfg, q, n, default_x_grid()).ridge_bank
    _require_levels(bank, "ridge", n)
    return [int(k) for k in bank.k_values]


def select_ridge(
    em: EmpiricalMellin,
    g_mellin: MellinFunction,
    cfg: SelectionConfig,
    q: QuadratureConfig,
) -> SelectionResult:
    """Data-driven ridge level for a sample."""
    return Pipeline(g_mellin, cfg, q, em.n, default_x_grid()).select("ridge", em)


def select_cutoff(
    em: EmpiricalMellin,
    g_mellin: MellinFunction,
    cfg: SelectionConfig,
    q: QuadratureConfig,
) -> SelectionResult:
    """Data-driven cut-off level for a sample."""
    return Pipeline(g_mellin, cfg, q, em.n, default_x_grid()).select("cutoff", em)


def write_diagnostics_csv(path, result: SelectionResult) -> None:
    """Write per-level diagnostics: k, A_hat, V_hat, objective, admissible."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "A_hat", "V_hat", "objective", "admissible"])
        for d in result.diagnostics:
            writer.writerow(
                [d.k, repr(d.a_hat), repr(d.v_hat), repr(d.objective), 1]
            )
