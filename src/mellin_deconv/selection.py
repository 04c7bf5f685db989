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
identity, so the whole selection runs on one shared frequency grid.  The
ridge rows are k-free vectors times a real scale min(kappa, k)^(r+2), so
`RidgeBank` keeps no rows: ||R_k||^2 comes from cumulative sums over the
kappa-sorted nodes, and all pairwise contrasts of a sample from three
per-bucket moments, in O(N + m^2) for N nodes and m levels.

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
    ridge_factors,
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
    """Ridge multipliers of a prefix of levels, held as k-free factors.

    Levels are taken from ``cfg.k_grid`` (or 1, 2, ... when absent) as long
    as ||R_k||^2 <= n_cap; by magnitude monotonicity in k the admissible set
    is always such a prefix.  M_g is tabulated once per build and factored
    by `ridge_factors`: with p = r + 2,
    R_k = (1/M_g) min(1, k/kappa)^p = a min(kappa, k)^p, |a| = |1/M_g| kappa^-p.
    ``kappa`` is kept, so G_k = {kappa > k}.

    The norm of any level comes from cumulative sums over the kappa-sorted
    nodes: a node with kappa <= k adds w/|M_g|^2, the others w |a|^2 k^(2p)
    (w the trapezoid weight).  The consecutive scan also ends at the first
    saturated level, k >= every finite kappa, whose multiplier is 1/M_g
    wherever M_g != 0: every later level is the same estimator.

    Each node's bucket l, where k_(l-1) < kappa <= k_l (l = m past the
    last of the m levels), is fixed per bank, so `contrasts` reduces a
    sample to per-bucket moments in O(N) and combines them in O(m^2).  No
    (levels x nodes) table is kept: `row` and `rows` evaluate on demand.
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
        p = self._p = cfg.r + 2.0
        mg = np.asarray(g_mellin(q.t), dtype=np.complex128)
        self._inv, self.kappa = ridge_factors(mg, q.t, cfg.xi, cfg.r)
        w = np.full(len(q), q.t_step)
        w[[0, -1]] *= 0.5
        abs_inv = np.abs(self._inv)
        self._scale_sq = w * (abs_inv * self.kappa**-p) ** 2  # w |a|^2
        with np.errstate(over="ignore"):  # |M_g| < 1e-154: kappa is past every level
            exact_sq = w * abs_inv**2  # w |R_k|^2 where kappa <= k

        order = np.argsort(self.kappa)
        kappa_sorted = self.kappa[order]
        below = np.concatenate(([0.0], np.cumsum(exact_sq[order])))
        above = np.concatenate((np.cumsum(self._scale_sq[order][::-1])[::-1], [0.0]))
        saturation = np.max(self.kappa, where=np.isfinite(self.kappa), initial=0.0)

        levels = []
        norms = []
        for k in cfg.k_grid or itertools.count(1):
            i = np.searchsorted(kappa_sorted, k, side="right")  # nodes with kappa <= k
            norm = float(below[i] + float(k) ** (2.0 * p) * above[i])
            if norm > n_cap:
                break
            levels.append(int(k))
            norms.append(norm)
            if cfg.k_grid is None and k >= saturation:
                break
        self.k_values = np.array(levels, dtype=int)
        self.norms_sq = np.array(norms, dtype=float)

        m = len(levels)
        self._powers = self.k_values ** p
        self._bucket = np.searchsorted(self.k_values, self.kappa)
        # kappa^p above the bucket's lower level, where a later level holds kappa
        inner = (self._bucket > 0) & (self._bucket < m)
        self._excess = np.zeros(len(q))
        self._excess[inner] = self.kappa[inner] ** p - self._powers[self._bucket[inner] - 1]

    def __len__(self) -> int:
        return self.k_values.size

    def _multipliers(self, k) -> np.ndarray:
        return self._inv * np.minimum(1.0, k / self.kappa) ** self._p

    def row(self, k: int) -> np.ndarray:
        """Multiplier of the bank level ``k`` on the bank's grid."""
        return self._multipliers(float(self.k_values[_level_index(self, k)]))

    @property
    def rows(self) -> np.ndarray:
        """(levels x nodes) stack of every level's multiplier, built on each access."""
        return self._multipliers(self.k_values[:, None].astype(float))

    def contrasts(self, mhat_abs_sq: np.ndarray) -> np.ndarray:
        """C[i, j] = ||f_hat_{k_j} - f_hat_{k_i}||^2 for i < j, zero elsewhere.

        By Plancherel C[i, j] = (2 pi)^-1 sum_t w |a|^2 |M_hat|^2 (s_j - s_i)^2
        with s_k = min(kappa, k)^p.  A node of bucket l adds (u + d)^2, with
        u = kappa^p - k_(l-1)^p and d = k_(l-1)^p - k_i^p, when i < l <= j,
        and (k_j^p - k_i^p)^2 when l > j.  So three per-bucket moments of
        b = w |a|^2 |M_hat|^2, times 1, u and u^2, give every contrast as a
        sum of nonnegative terms.
        """
        m = len(self)
        b = self._scale_sq * mhat_abs_sq
        bu = b * self._excess
        b0, b1, b2 = (
            np.bincount(self._bucket, weights=x, minlength=m + 1)[1:]
            for x in (b, bu, bu * self._excess)
        )
        powers = self._powers
        # buckets 1..m-1 against levels i, kept where the bucket lies above k_i
        d = powers[None, :-1] - powers[:, None]
        between = np.where(d >= 0.0, b2[:-1] + d * (2.0 * b1[:-1] + d * b0[:-1]), 0.0)
        beyond = np.cumsum(b0[::-1])[::-1]  # beyond[j] = sum of b0 over buckets past k_j
        out = np.zeros((m, m))
        out[:, 1:] = np.cumsum(between, axis=1) + (powers[1:] - powers[:, None]) ** 2 * beyond[1:]
        return np.triu(out, 1) / TWO_PI

    def select(
        self, mhat_abs_sq: np.ndarray, sig_hat: float, n: int
    ) -> SelectionResult:
        """Goldenshluger-Lepski selection given |M_hat|^2 on the bank's grid."""
        _require_levels(self, "ridge", n)
        v_hat = 2.0 * sig_hat * self.norms_sq / n
        excess = self.contrasts(mhat_abs_sq) - self.cfg.chi1 * v_hat
        a_hat = np.triu(excess, 1).max(axis=1, initial=0.0)
        objective = a_hat + self.cfg.chi2 * v_hat
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
        """Cut-off multiplier of the bank level ``k``: 1/M_g on its window,
        zero outside."""
        j = self.windows[_level_index(self, k)]
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


def _level_index(bank, k) -> int:
    hits = np.flatnonzero(bank.k_values == k)
    if hits.size == 0:
        raise ValueError(
            f"level k={k!r} is not in this bank; its levels are {bank.k_values.tolist()}"
        )
    return int(hits[0])


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
        """Ridge bank of fixed increasing levels, without the admissibility cap."""
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
