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

`Pipeline` is the package's one chain of grid, noise-transform table,
banks, empirical transform, selection and inversion for a configuration;
every estimate runs through it.  `RidgeBank` is the one place ||R_k||^2
is computed, with its truncation bound, which only `fixed_ridge_bank`
holds to `REL_TAIL_TOL`.  A pipeline builds one bank per method, holding
every candidate level; a sample size only picks the admissible prefix
(`admissible`).  It keeps the ridge bank's node arrays for the last prefix
and an inversion plan with reused buffers, so it is not for concurrent
calls; `Pipeline.release` trims it to its tables.
`select_ridge` and `select_cutoff` build a pipeline per call.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .estimators import (
    DensityEstimate,
    check_level,
    check_nonvanishing,
    check_ridge_exponents,
    cutoff_row,
    ridge_factors,
    ridge_row,
)
from .grids import QuadratureConfig, default_x_grid
from .mellin import (
    EmpiricalMellin,
    InversionPlan,
    MellinError,
    MellinFunction,
    check_same_c,
    checked_real_part,
    checked_x_grid,
    eval_on_grid,
)

TWO_PI = 2.0 * np.pi
#: most levels a `RidgeBank` holds: its contrasts take six (m x m) arrays, 48 MB
MAX_RIDGE_LEVELS = 1000
#: tail ratio past which `Pipeline.fixed_ridge_bank` warns of a truncated norm
REL_TAIL_TOL = 1e-6


class EmptyAdmissibleSetError(ValueError):
    """No candidate level passes the admissibility bound for this sample size."""


class TooManyLevelsError(ValueError):
    """A ridge bank would hold more than `MAX_RIDGE_LEVELS` levels."""


class RidgePowerOverflowError(ValueError):
    """A level's k^(2(r+2)) in a ridge norm passes the float range."""


@dataclass(frozen=True)
class SelectionConfig:
    """Constants and candidate grid for the data-driven rules.

    chi1/chi2 scale the ridge penalties (chi2 >= chi1 > 0), chi the cut-off
    penalty, all finite; xi and r as in `RidgeSpec`.  ``k_grid`` holds whole
    numbers (a bool or a fraction raises `ValueError`); None means 1, 2, ...,
    to saturation in `RidgeBank`; `CutoffBank` keeps one level per window.
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
            bad = [k for k in self.k_grid if isinstance(k, (bool, np.bool_))
                   or not float(k).is_integer()]
            if bad:
                raise ValueError(f"k_grid entries must be whole numbers, got {bad[0]!r}")
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


def _trapezoid_weights(q: QuadratureConfig) -> np.ndarray:
    w = np.full(len(q), q.t_step)
    w[[0, -1]] *= 0.5
    return w


def _prefix_length(stop: np.ndarray) -> int:
    """Number of entries before the first True in ``stop``."""
    return int(np.argmax(np.append(stop, True)))


class _LevelBank:
    """What both banks share: every candidate level with its norm, of which a
    sample size admits a prefix, and node-sized arrays (named in
    ``_NODE_ARRAYS``) built on first use."""

    _NODE_ARRAYS = ()

    def release(self) -> None:
        """Drop the node-sized arrays; the next use builds them again,
        bitwise the same."""
        for name in self._NODE_ARRAYS:
            self.__dict__.pop(name, None)


class RidgeBank(_LevelBank):
    """Ridge multipliers of every candidate level, held as k-free factors.

    The levels are ``cfg.k_grid``, or 1, 2, ... through the first saturated
    level, k >= every finite kappa, whose multiplier is 1/M_g wherever
    M_g != 0 (every later level is the same estimator); at most
    `MAX_RIDGE_LEVELS` + 1.  A sample size n admits a prefix of them,
    ||R_k||^2 <= n, by magnitude monotonicity in k (`admissible`).
    ``inv`` = 1/M_g and ``kappa`` are the `ridge_factors` of the pipeline's
    noise-transform table: with p = r + 2, R_k = (1/M_g) min(1, k/kappa)^p
    = a min(kappa, k)^p, |a| = |1/M_g| kappa^-p; G_k = {kappa > k}.

    The norms of all levels come from cumulative sums over the kappa-sorted
    nodes in one pass: a node with kappa <= k adds w/|M_g|^2, the others
    w |a|^2 k^(2p) (w the trapezoid weight).  A level whose k^(2p) passes
    the float range is held with an infinite power; a prefix reaching it
    raises `RidgePowerOverflowError`.

    ``tail_ratios`` (read-only) holds, per level, 2 (k^p C^(r+1))^2 T^(1-rho)
    / (rho-1), rho = 2 gamma (r+1), over ``norms_sq``: the bound on the part
    of ||R_k||^2 past the grid edge T from ``g_mellin``'s decay certificate
    |M_g| <= C (1+t^2)^(-gamma/2); inf where rho <= 1, None without one.

    For a prefix of m levels, each node's bucket l, where
    k_(l-1) < kappa <= k_l (l = m past k_m), is fixed, so `contrasts`
    reduces a sample to per-bucket moments in O(N) and combines them in
    O(m^2), and no level's multiplier is formed.  The node-sized scales,
    and the buckets and excesses of the last prefix contrasted, are built
    on first use and dropped by `release`.
    """

    _NODE_ARRAYS = ("_scale_sq", "_prefix")
    _prefix = None  # (m, bucket, excess) of the last prefix contrasted

    def __init__(self, inv, kappa, cfg: SelectionConfig, q: QuadratureConfig,
                 g_mellin: MellinFunction):
        self.q, self.cfg, self._inv, self.kappa = q, cfg, inv, kappa
        p = self._p = cfg.r + 2.0
        scale_sq = self._scale_sq  # w |a|^2, before the scan's buffers
        exact_sq = _trapezoid_weights(q)
        with np.errstate(over="ignore"):  # |M_g| < 1e-154: kappa is past every level
            exact_sq *= np.abs(self._inv) ** 2  # w |R_k|^2 where kappa <= k

        # cumulative sums over the kappa-sorted nodes, from below and from
        # above; mode "clip" spares take's copy (every index is in range)
        order = np.argsort(self.kappa)
        below = np.zeros(len(q) + 1)
        np.cumsum(np.take(exact_sq, order, out=below[1:], mode="clip"), out=below[1:])
        above = np.zeros(len(q) + 1)
        np.take(scale_sq, order, out=above[:-1], mode="clip")
        np.cumsum(above[-2::-1], out=above[-2::-1])
        kappa_sorted = np.take(self.kappa, order, out=exact_sq, mode="clip")

        if cfg.k_grid is None:
            saturation = np.max(self.kappa, where=np.isfinite(self.kappa), initial=0.0)
            levels = np.arange(1, min(max(1, int(np.ceil(saturation))), MAX_RIDGE_LEVELS + 1) + 1)
        else:
            levels = np.array(cfg.k_grid[:MAX_RIDGE_LEVELS + 1])
        i = np.searchsorted(kappa_sorted, levels, side="right")  # nodes with kappa <= k
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite power marks overflow
            # libm's pow per level: numpy's vectorised power rounds apart from it on some hosts
            power = np.array([np.float64(k) ** (2.0 * p) for k in levels.tolist()])
            self.norms_sq = below[i] + power * above[i]
            self._powers = levels ** p
        self.k_values = levels
        self._overflow = _prefix_length(np.isinf(power))  # index of the first overflowing level
        self.tail_ratios = None if g_mellin.decay_exponent is None else self._tail_ratios(g_mellin)

    def admissible(self, n: float) -> int:
        """Number of leading levels admissible at sample size ``n``.  More
        than `MAX_RIDGE_LEVELS` of them, or a longer ``k_grid``, raise
        `TooManyLevelsError`; reaching a level whose k^(2p) passes the
        float range raises `RidgePowerOverflowError`."""
        m = _prefix_length(self.norms_sq[: self._overflow] > n)
        if m > MAX_RIDGE_LEVELS or len(self.cfg.k_grid or ()) > MAX_RIDGE_LEVELS:
            raise TooManyLevelsError(
                f"a ridge bank at xi={self.cfg.xi:g}, n={n:g} would hold more than "
                f"{MAX_RIDGE_LEVELS} levels; pass an explicit k_grid of at most that many")
        if m == self._overflow < self.k_values.size:
            raise RidgePowerOverflowError(
                f"k^(2(r+2)) passes the float range at r={self.cfg.r:g}, level k={self.k_values[m]}")
        return m

    def _tail_ratios(self, g: MellinFunction) -> np.ndarray:
        rate = 2.0 * g.decay_exponent * (self.cfg.r + 1.0)
        ratios = np.full(self.k_values.size, np.inf)
        if rate > 1.0:
            with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range
                const = (self._powers * np.float64(g.decay_upper) ** (self.cfg.r + 1.0)) ** 2
                tail = 2.0 * const * (self.q.half_size * self.q.t_step) ** (1.0 - rate)
                ratios = tail / (rate - 1.0) / np.maximum(self.norms_sq, np.finfo(float).tiny)
        ratios.flags.writeable = False
        return ratios

    @cached_property
    def _scale_sq(self) -> np.ndarray:
        """w |a|^2 per node, w the trapezoid weight."""
        return _trapezoid_weights(self.q) * (np.abs(self._inv) * self.kappa**-self._p) ** 2

    def _buckets(self, m: int) -> tuple:
        """(bucket, excess) per node for the first m levels: the bucket, and
        kappa^p above the bucket's lower level where a later level holds
        kappa; kept for the last m."""
        if self._prefix is None or self._prefix[0] != m:
            self._prefix = None  # the last prefix's arrays go before the new ones are built
            bucket = np.searchsorted(self.k_values[:m], self.kappa)
            inner = (bucket > 0) & (bucket < m)
            excess = np.zeros(len(self.q))
            excess[inner] = self.kappa[inner] ** self._p - self._powers[bucket[inner] - 1]
            self._prefix = (m, bucket, excess)
        return self._prefix[1:]

    def contrasts(self, mhat_abs_sq: np.ndarray, m: int) -> np.ndarray:
        """C[i, j] = ||f_hat_{k_j} - f_hat_{k_i}||^2 for i < j < m, zero elsewhere.

        By Plancherel C[i, j] = (2 pi)^-1 sum_t w |a|^2 |M_hat|^2 (s_j - s_i)^2
        with s_k = min(kappa, k)^p.  A node of bucket l adds (u + d)^2, with
        u = kappa^p - k_(l-1)^p and d = k_(l-1)^p - k_i^p, when i < l <= j,
        and (k_j^p - k_i^p)^2 when l > j.  So three per-bucket moments of
        b = w |a|^2 |M_hat|^2, times 1, u and u^2, give every contrast as a
        sum of nonnegative terms.
        """
        bucket, excess = self._buckets(m)
        b = self._scale_sq * mhat_abs_sq
        b0 = np.bincount(bucket, weights=b, minlength=m + 1)[1:]
        b *= excess  # b u
        b1 = np.bincount(bucket, weights=b, minlength=m + 1)[1:]
        b *= excess  # b u^2
        b2 = np.bincount(bucket, weights=b, minlength=m + 1)[1:]
        powers = self._powers[:m]
        # buckets 1..m-1 against levels i, kept where the bucket lies above k_i
        d = powers[None, :-1] - powers[:, None]
        between = np.where(d >= 0.0, b2[:-1] + d * (2.0 * b1[:-1] + d * b0[:-1]), 0.0)
        beyond = np.cumsum(b0[::-1])[::-1]  # beyond[j] = sum of b0 over buckets past k_j
        out = np.zeros((m, m))
        out[:, 1:] = np.cumsum(between, axis=1) + (powers[1:] - powers[:, None]) ** 2 * beyond[1:]
        return np.triu(out, 1) / TWO_PI

    def select(self, mhat_abs_sq: np.ndarray, sig_hat: float, n: int) -> SelectionResult:
        """Goldenshluger-Lepski selection over the levels admissible at ``n``,
        given |M_hat|^2 on the bank's grid."""
        m = self.admissible(n)
        _require_levels(m, "ridge", n)
        v_hat = 2.0 * sig_hat * self.norms_sq[:m] / n
        excess = self.contrasts(mhat_abs_sq, m) - self.cfg.chi1 * v_hat
        a_hat = np.triu(excess, 1).max(axis=1, initial=0.0)
        objective = a_hat + self.cfg.chi2 * v_hat
        return _selection_result("ridge", self.k_values[:m], a_hat, v_hat, objective, sig_hat)


class CutoffBank(_LevelBank):
    """Cut-off window norms of one level per grid window j = 0..half_size
    (`QuadratureConfig.window_index`, nearest node): its smallest whole k >= 1,
    or its first ``cfg.k_grid`` entry.  So at most half_size + 1 levels, and 1,
    2, ... where t_step <= 1; a grid edge past 2**53 raises `ValueError`.  A
    sample size admits a prefix, ||1_[-k,k] / M_g||^2 <= 2 pi n (`admissible`).
    ``windows`` serves the norms and contrasts with ``inv_mg`` = 1/M_g; zeros are
    `Pipeline.select`'s to probe, and `release` drops the node-sized |1/M_g|^2.
    """

    _NODE_ARRAYS = ("_inv_sq",)

    def __init__(self, inv_mg, cfg: SelectionConfig, q: QuadratureConfig):
        self.q, self.cfg, self.inv_mg = q, cfg, inv_mg
        if (q.half_size + 1) * q.t_step > 2.0**53:
            raise ValueError(f"whole levels up to t_max={q.half_size * q.t_step:g} are not all floats")
        window = lambda k: np.rint(k / q.t_step)  # `QuadratureConfig.window_index` of each k
        if cfg.k_grid is None:  # from a guess a few off, step to each window's smallest level
            j = np.arange(q.half_size + 1.0)
            k = np.maximum(np.ceil((j - 0.5) * q.t_step), 1.0)
            while (step := 1.0 * (window(k) < j) - ((k > 1.0) & (window(k - 1.0) >= j))).any():
                k += step
        else:  # each window's first k_grid entry
            j, first = np.unique(window(np.array(cfg.k_grid, dtype=float)), return_index=True)
            k = np.array(cfg.k_grid, dtype=float)[first]
        keep = (window(k) == j) & (j <= q.half_size)
        self.k_values, self.windows = k[keep].astype(int), j[keep].astype(int)
        self.norms_sq = q.centered_cumulative(self._inv_sq)[self.windows]

    def admissible(self, n: float) -> int:
        """Number of leading levels admissible at sample size ``n``."""
        return _prefix_length(self.norms_sq > TWO_PI * n)

    @cached_property
    def _inv_sq(self) -> np.ndarray:
        return np.abs(self.inv_mg) ** 2

    def select(self, mhat_abs_sq: np.ndarray, sig_hat: float, n: int) -> SelectionResult:
        """Penalised-contrast selection over the levels admissible at ``n``,
        given |M_hat|^2 on the bank's grid."""
        m = self.admissible(n)
        _require_levels(m, "cut-off", n)
        cum = self.q.centered_cumulative(mhat_abs_sq * self._inv_sq)
        window_norms = cum[self.windows[:m]] / TWO_PI
        pen = 2.0 * self.cfg.chi * sig_hat * self.norms_sq[:m] / (TWO_PI * n)
        return _selection_result(
            "cutoff", self.k_values[:m], window_norms, pen, pen - window_norms, sig_hat
        )


def _check_method(method: str) -> None:
    if method not in ("ridge", "cutoff"):
        raise ValueError(f"method must be 'ridge' or 'cutoff', got {method!r}")


def _require_levels(m: int, name: str, n: int) -> None:
    if m == 0:
        raise EmptyAdmissibleSetError(
            f"no {name} level on the candidate grid satisfies the "
            f"admissibility bound for n={n}"
        )


def _selection_result(method, k_values, a_hat, v_hat, objective, sig_hat):
    """Result with per-level diagnostics; k_hat is the first minimiser."""
    best = int(np.argmin(objective))  # first minimiser = smallest k
    diags = tuple(
        LevelDiagnostics(int(k), float(a), float(v), float(o))
        for k, a, v, o in zip(k_values, a_hat, v_hat, objective)
    )
    return SelectionResult(method, int(k_values[best]), float(sig_hat), diags)


class Pipeline:
    """The estimation chain for one configuration.

    Holds the frequency grid ``q`` and the x-grid of the estimates; the
    sample size comes from each sample and only picks the admissible prefix
    of a bank's levels.  M_g is tabulated on the grid once, on first bank
    use, and each method's one bank is built from that table on first use,
    so the ridge rule works where a cut-off window raises
    `NoiseTransformZeroError`.  Every cut-off window is checked zero-free
    (`check_nonvanishing`) before use: `select` probes the largest
    admissible one, and the widest window probed is kept, so only a wider
    one is probed again.  The development points of ``g_mellin``, ``cfg``
    and every sample must agree; a mismatch raises `MellinError`, and so
    does an x-grid refused by `checked_x_grid`.

    `multiplier` forms a level's multiplier from the noise table,
    `estimate` inverts the sample's transform times it, and `fit` is
    `select` followed by `estimate`.  A sample's transform on the grid is
    its own memo, `EmpiricalMellin.on_grid`, so both methods fitted to one
    sample share one transform.

    `invert` inverts one product.  It keeps the full grid's
    `InversionPlan`, built on first use, for the ridge rule; a cut-off
    window gets a new plan per call.  The plan owns reused buffers, so a
    pipeline is not for concurrent calls.
    `release` drops every node-sized bank array and the plan's buffers, all
    rebuilt bitwise the same on next use.
    """

    def __init__(
        self,
        g_mellin: MellinFunction,
        cfg: SelectionConfig,
        q: QuadratureConfig,
        x_grid: np.ndarray,
    ):
        check_same_c("selection", cfg.c, "noise", g_mellin.c)
        self.g_mellin, self.cfg, self.q, self.c = g_mellin, cfg, q, cfg.c
        self.x_grid = checked_x_grid(x_grid)
        self._banks = {}  # method -> bank, built on first use
        self._probed = -1  # index offset of the widest window checked zero-free

    @cached_property
    def _noise_table(self) -> tuple:
        """(1/M_g, kappa) on the grid from the one evaluation of M_g, shared
        read-only by every bank and multiplier of this pipeline; `MellinError`
        if not finite."""
        mg = eval_on_grid(self.g_mellin, self.q)
        inv, kappa = ridge_factors(mg, self.q.t, self.cfg.xi, self.cfg.r)
        inv.flags.writeable = kappa.flags.writeable = False
        return inv, kappa

    def bank(self, method: str):
        """The ``method`` bank of every candidate level, built on first use."""
        _check_method(method)
        if method not in self._banks:
            inv, kappa = self._noise_table
            self._banks[method] = (RidgeBank(inv, kappa, self.cfg, self.q, self.g_mellin)
                                   if method == "ridge" else CutoffBank(inv, self.cfg, self.q))
        return self._banks[method]

    def _check_window(self, j: int) -> None:
        """Probe M_g for zeros on the window of index offset ``j``, unless a
        window at least as wide has passed; `NoiseTransformZeroError` if so."""
        if j > self._probed:
            check_nonvanishing(self.g_mellin, float(self.q.t[self.q.center + j]), self.q.t_step)
            self._probed = j

    def fixed_ridge_bank(self, levels: Sequence[int]) -> RidgeBank:
        """Ridge bank of fixed increasing levels, without the admissibility cap;
        warns once, naming the worst level, if a tail ratio passes `REL_TAIL_TOL`."""
        cfg = replace(self.cfg, k_grid=tuple(levels))
        bank = RidgeBank(*self._noise_table, cfg, self.q, self.g_mellin)
        bank.admissible(np.inf)  # too many levels, or an overflowing power, raise
        ratios = bank.tail_ratios
        if ratios is not None and np.any(ratios > REL_TAIL_TOL):
            i = int(np.argmax(ratios))
            warnings.warn(f"ridge norm truncated: analytic tail bound at k={bank.k_values[i]} is "
                          f"{ratios[i]:.3g} of ||R_k||^2, above the tolerance {REL_TAIL_TOL:g}; "
                          f"increase t_max={self.q.half_size * self.q.t_step:g}",
                          RuntimeWarning, stacklevel=2)
        return bank

    def transform(self, em: EmpiricalMellin) -> np.ndarray:
        """The sample's read-only M_hat on the grid (`EmpiricalMellin.on_grid`);
        `MellinError` when c differs or the moment weights Y^(c-1) overflow."""
        check_same_c("sample", em.c, "pipeline", self.c)
        return em.on_grid(self.q)

    def select(self, method: str, em: EmpiricalMellin) -> SelectionResult:
        """Data-driven level for a sample; `MellinError` when c differs or
        sigma_hat or the moment weights Y^(c-1) overflow."""
        check_same_c("sample", em.c, "pipeline", self.c)
        with np.errstate(over="ignore"):
            sig = sigma_hat(em)
        if not np.isfinite(sig):
            raise MellinError(f"sigma_hat overflows at c={em.c}; rescale the sample")
        mhat_abs_sq = np.abs(em.on_grid(self.q)) ** 2
        bank = self.bank(method)
        m = bank.admissible(em.n)
        if method == "cutoff" and m > 0:
            self._check_window(int(bank.windows[m - 1]))
        return bank.select(mhat_abs_sq, sig, em.n)

    def invert(self, product: np.ndarray, support: Optional[float] = None) -> np.ndarray:
        """Real x-grid values of one product over the whole grid or the
        cut-off window [-support, support]."""
        if support is None:
            plan = self._full_plan
        else:
            plan = InversionPlan(self.q, self.c, self.x_grid, support)
        return checked_real_part(plan(product))

    @cached_property
    def _full_plan(self) -> InversionPlan:
        return InversionPlan(self.q, self.c, self.x_grid)

    def release(self) -> None:
        """Trim the pipeline to its tables between uses: 1/M_g, kappa, the
        banks' level data and the full-grid plan's constants."""
        for b in self._banks.values():
            b.release()
        if "_full_plan" in self.__dict__:
            self._full_plan.release()

    def multiplier(self, method: str, k: float) -> np.ndarray:
        """The ``method`` multiplier at the fixed level ``k`` on the grid,
        without the admissibility cap: the ridge row R_k from the noise
        table, or 1/M_g on the window of k (`QuadratureConfig.window_index`),
        checked zero-free first.  A level that is not positive and finite
        raises `ValueError`, as in the specs (`check_level`)."""
        _check_method(method)
        check_level(k)
        inv, kappa = self._noise_table
        if method == "ridge":
            return ridge_row(inv, kappa, float(k), self.cfg.r + 2.0)
        j = self.q.window_index(k)
        self._check_window(j)
        return cutoff_row(inv, self.q.t, float(self.q.t[self.q.center + j]))

    def estimate(self, method: str, em: EmpiricalMellin, k: float) -> DensityEstimate:
        """The ``method`` estimate of a sample at the fixed level ``k``: its
        transform times `multiplier`, inverted over the whole grid (ridge)
        or the window of k (cut-off)."""
        product = self.multiplier(method, k)
        product *= self.transform(em)  # R * M_hat: numpy rounds M_hat * R apart
        support = float(k) if method == "cutoff" else None
        return DensityEstimate(self.x_grid, self.invert(product, support), self.c)

    def fit(self, method: str, em: EmpiricalMellin) -> tuple:
        """(SelectionResult, DensityEstimate) for a sample: `select`, then
        `estimate` at the chosen level."""
        result = self.select(method, em)
        return result, self.estimate(method, em, result.k_hat)


def select_ridge(
    em: EmpiricalMellin,
    g_mellin: MellinFunction,
    cfg: SelectionConfig,
    q: QuadratureConfig,
) -> SelectionResult:
    """Data-driven ridge level for a sample."""
    return Pipeline(g_mellin, cfg, q, default_x_grid()).select("ridge", em)


def select_cutoff(
    em: EmpiricalMellin,
    g_mellin: MellinFunction,
    cfg: SelectionConfig,
    q: QuadratureConfig,
) -> SelectionResult:
    """Data-driven cut-off level for a sample."""
    return Pipeline(g_mellin, cfg, q, default_x_grid()).select("cutoff", em)


def write_diagnostics_csv(path, result: SelectionResult) -> None:
    """Write per-level diagnostics: k, A_hat, V_hat, objective, admissible."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "A_hat", "V_hat", "objective", "admissible"])
        for d in result.diagnostics:
            writer.writerow(
                [d.k, repr(d.a_hat), repr(d.v_hat), repr(d.objective), 1]
            )
