"""Risk evaluation and reproducible Monte-Carlo experiments.

Per-replication work is keyed by content-hashed RNG streams, so results do
not depend on execution order, and the same draws feed both estimation
methods within a scenario (paired comparison).  Every experiment estimates
only through the `select`, `fit`, `estimate` and `multiplier` of one
`selection.Pipeline` per scenario, so a replication's empirical transform
is computed once (`EmpiricalMellin.on_grid`).  This module adds only the
truth tabulation and the error integrals, in the weighted space
L^2(R_+, x^(2c-1)) on a log-spaced x-window.  The rate experiment's fixed
level is an argument of `run_oracle_rate`, not a scenario field.

A scenario's pipeline depends only on the noise configuration (error id,
c, `SelectionConfig`, `QuadratureConfig`, `XGridSpec`), so the experiments
share one per configuration through a cache of at most
`_SCENARIO_PIPELINES`, least recently returned dropped first.  A scenario
checks its pipeline out, so concurrent scenarios never share one, returns
it released on completion and drops it after an exception.  Results are
bitwise those of a fresh pipeline.  `select_ridge`, `select_cutoff` and
`cli estimate` build their own pipeline and leave the cache alone.
"""

from __future__ import annotations

import csv
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import QuadratureConfig, check_x_points, default_x_grid
from .mellin import EmpiricalMellin, MellinError, catalog_mellin
from .model import (
    RngStream,
    contaminate,
    density_eval,
    density_spec,
    sample,
    stream_id_for,
    whole_count,
)
from .selection import Pipeline, SelectionConfig

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class XGridSpec:
    """Log-spaced x-window for error integrals of a whole number of ``points``,
    2 to `MAX_X_POINTS` of them."""

    x_min: float = 1e-2
    x_max: float = 30.0
    points: int = 512

    def __post_init__(self):
        object.__setattr__(self, "points", whole_count(self.points, "points"))
        check_x_points(self.points)

    def build(self) -> np.ndarray:
        return default_x_grid(self.x_min, self.x_max, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario descriptor for a Monte-Carlo run; ``n`` and ``replications``
    are whole numbers of at least 1."""

    target: str
    error: str
    n: int
    c: float
    method: str
    selection: SelectionConfig
    replications: int
    seed: int
    x_grid: XGridSpec = XGridSpec()
    quadrature: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        if self.method not in ("ridge", "cutoff"):
            raise ValueError("method must be 'ridge' or 'cutoff'")
        for name in ("n", "replications"):
            object.__setattr__(self, name, whole_count(getattr(self, name), name))


@dataclass(frozen=True)
class MiseReport:
    """Per-replication squared errors and their aggregates."""

    errors: np.ndarray
    mise: float
    mise_se: float
    scaled_mise: float

    @classmethod
    def from_errors(cls, errors: np.ndarray) -> "MiseReport":
        errors = np.asarray(errors, dtype=float)
        mise = float(errors.mean())
        se = float(errors.std(ddof=1) / np.sqrt(errors.size)) if errors.size > 1 else 0.0
        return cls(errors=errors, mise=mise, mise_se=se, scaled_mise=100.0 * mise)


def weighted_moment(name: str, power: float) -> float:
    """E[X^power] for a catalog density, via its closed-form transform at t=0."""
    return float(np.real(catalog_mellin(name, power + 1.0)(0.0)))


def sigma_c_true(target: str, error: str, c: float) -> float:
    """Population second weighted moment E[(XU)^(2(c-1))] under independence."""
    p = 2.0 * (c - 1.0)
    return weighted_moment(target, p) * weighted_moment(error, p)


def _error_integral(target: str, c: float, x: np.ndarray):
    """Weighted squared error of an estimate against the truth on ``x``."""
    truth = density_eval(density_spec(target), x)
    weight = x ** (2.0 * c - 1.0)
    return lambda values: np.trapezoid((values - truth) ** 2 * weight, x)


def _replication_sample(cfg: ExperimentConfig, rep: int) -> EmpiricalMellin:
    """Draw the contaminated sample of replication ``rep`` (method-independent)."""
    key = (cfg.target, cfg.error, cfg.n, cfg.c)
    x_rng = RngStream(cfg.seed, stream_id_for("x", *key, rep))
    u_rng = RngStream(cfg.seed, stream_id_for("u", *key, rep))
    x = sample(density_spec(cfg.target), cfg.n, x_rng)
    return EmpiricalMellin(cfg.c, contaminate(x, density_spec(cfg.error), u_rng))


#: pipelines kept between scenarios, one per paper noise
_SCENARIO_PIPELINES = 2
_pipelines = {}  # configuration key -> released Pipeline, least recently returned first
_pipelines_lock = threading.Lock()


@contextmanager
def _scenario_pipeline(cfg: ExperimentConfig):
    """Check out the pipeline of ``cfg``'s noise configuration, or build
    one; it goes back to the cache, released, only if the block completes."""
    key = (cfg.error, cfg.c, cfg.selection, cfg.quadrature, cfg.x_grid)
    with _pipelines_lock:
        pipeline = _pipelines.pop(key, None)
    if pipeline is None:
        g_mellin = catalog_mellin(cfg.error, cfg.c)
        pipeline = Pipeline(g_mellin, cfg.selection, cfg.quadrature, cfg.x_grid.build())
    yield pipeline
    pipeline.release()
    with _pipelines_lock:
        _pipelines.pop(key, None)  # a concurrent scenario's copy, if it returned first
        _pipelines[key] = pipeline
        while len(_pipelines) > _SCENARIO_PIPELINES:
            del _pipelines[next(iter(_pipelines))]


def _mise_reports(cfg: ExperimentConfig, methods: Sequence[str],
                  level: Optional[float] = None) -> dict:
    """MiseReport per method, all on the same draws; with ``level`` every
    method estimates at that fixed level, uncapped, in every replication."""
    errors = {m: np.empty(cfg.replications) for m in methods}
    with _scenario_pipeline(cfg) as pipeline:
        error = _error_integral(cfg.target, cfg.c, pipeline.x_grid)
        for rep in range(cfg.replications):
            em = _replication_sample(cfg, rep)
            for m in methods:
                if level is None:
                    estimate = pipeline.fit(m, em)[1]
                else:
                    estimate = pipeline.estimate(m, em, level)
                errors[m][rep] = error(estimate.values)
    return {m: MiseReport.from_errors(errors[m]) for m in methods}


def run_mise(cfg: ExperimentConfig) -> MiseReport:
    """Monte-Carlo MISE of a scenario: sample, select, estimate, integrate.

    Deterministic given the config (seed included); the draws of replication
    r depend only on (target, error, n, c, seed, r), never on the method, so
    ridge and cut-off runs of the same scenario are paired.
    """
    return _mise_reports(cfg, (cfg.method,))[cfg.method]


def run_mise_pair(cfg: ExperimentConfig) -> dict:
    """Both methods on shared draws; equals two `run_mise` calls but faster."""
    return _mise_reports(cfg, ("ridge", "cutoff"))


def run_oracle_rate(
    target: str,
    error: str,
    c: float,
    n_list: Sequence[int],
    s: float,
    gamma: float,
    reps: int,
    seed: int,
    selection: Optional[SelectionConfig] = None,
    quadrature: QuadratureConfig = QuadratureConfig(),
    x_grid: XGridSpec = XGridSpec(),
) -> list:
    """MISE along n_list with the rate-optimal fixed level k = n^(g/(2s+2g+1)).

    Returns [(n, mise), ...]; no data-driven selection is involved.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    if not (np.inf > s >= 0.0 and np.inf > gamma > 0.0):
        raise ValueError(f"need finite s >= 0 and gamma > 0, got s={s!r}, gamma={gamma!r}")
    if selection is None:
        selection = table1_selection_config(error, c)
    out = []
    for n in n_list:
        n = whole_count(n, "n")
        k_o = max(1, int(round(n ** (gamma / (2.0 * s + 2.0 * gamma + 1.0)))))
        cfg = ExperimentConfig(
            target=target,
            error=error,
            n=n,
            c=c,
            method="ridge",
            selection=selection,
            replications=reps,
            seed=seed,
            x_grid=x_grid,
            quadrature=quadrature,
        )
        out.append((n, _mise_reports(cfg, ("ridge",), level=float(k_o))["ridge"].mise))
    return out


@dataclass(frozen=True)
class ProfileRow:
    """Bias/variance decomposition at one level k, with the matching bound."""

    k: int
    bias_sq: float
    variance: float
    bound_bias: float
    bound_var: float


def bias_variance_profile(
    target: str,
    error: str,
    c: float,
    n: int,
    k_grid: Sequence[int],
    reps: int,
    seed: int,
    quadrature: QuadratureConfig = QuadratureConfig(),
    selection: Optional[SelectionConfig] = None,
) -> list:
    """Empirical bias^2/variance of fixed-k ridge estimates vs the risk bound.

    Empirical parts use the Mellin-domain identity: the estimate's transform
    is M_hat * R_k, with R_k from `Pipeline.multiplier`, so across
    replications only the running mean of M_hat and of |M_hat|^2 are
    needed.  Bound terms come from the catalog transforms by quadrature:
    (2 pi)^-1 * int_{G_k} |M_f|^2 for the bias and
    sigma_c ||R_k||^2 / (2 pi n) for the variance, with G_k and ||R_k||^2
    from the uncapped ridge bank of ``k_grid``, which warns when a level's
    norm is truncated (`Pipeline.fixed_ridge_bank`).  A non-finite M_f on
    the grid or sigma_c (as at a large c) raises `MellinError` naming them.
    """
    if selection is None:
        selection = table1_selection_config(error, c)
    cfg = ExperimentConfig(
        target=target,
        error=error,
        n=n,
        c=c,
        method="ridge",
        selection=selection,
        replications=reps,
        seed=seed,
        quadrature=quadrature,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # both refused by name below
        mf = catalog_mellin(target, c)(quadrature.t)
        sig_c = sigma_c_true(target, error, c)
    if not np.all(np.isfinite(mf)):
        raise MellinError(f"{target} transform takes non-finite values on the grid at c={c:g}")
    if not np.isfinite(sig_c):
        raise MellinError(f"sigma_c of {target} * {error} is not finite at c={c}")
    sum_mhat = np.zeros(len(quadrature), dtype=np.complex128)
    sum_sq = np.zeros(len(quadrature))
    out = []
    with _scenario_pipeline(cfg) as pipeline:
        bank = pipeline.fixed_ridge_bank(k_grid)
        for rep in range(reps):
            mhat = pipeline.transform(_replication_sample(cfg, rep))
            sum_mhat += mhat
            sum_sq += np.abs(mhat) ** 2
        mean_mhat = sum_mhat / reps
        var_mhat = np.maximum(sum_sq / reps - np.abs(mean_mhat) ** 2, 0.0)
        for k, norm in zip(bank.k_values, bank.norms_sq):
            row = pipeline.multiplier("ridge", k)
            bias_sq = float(quadrature.integrate(np.abs(mf - mean_mhat * row) ** 2)) / TWO_PI
            variance = float(quadrature.integrate(var_mhat * np.abs(row) ** 2)) / TWO_PI
            in_gk = bank.kappa > k
            bound_bias = float(quadrature.integrate(np.abs(mf) ** 2 * in_gk)) / TWO_PI
            bound_var = float(sig_c * norm / (TWO_PI * cfg.n))
            out.append(ProfileRow(k=int(k), bias_sq=bias_sq, variance=variance,
                                  bound_bias=bound_bias, bound_var=bound_var))
    return out


def run_selection_oracle_comparison(cfg: ExperimentConfig) -> dict:
    """Per-replication selected-k error and best fixed-k error (ridge).

    Returns dict with arrays ``selected`` and ``oracle`` plus the admissible
    levels; used to check that the data-driven rule tracks the oracle.
    Each replication is estimated by `Pipeline.estimate` at every level of
    its selection's admissible set, which depends on n only.  Only the
    data-driven ridge rule is compared; another method raises `ValueError`.
    """
    if cfg.method != "ridge":
        raise ValueError("the oracle comparison runs the data-driven ridge rule only")
    selected = np.empty(cfg.replications)
    oracle = np.empty(cfg.replications)
    with _scenario_pipeline(cfg) as pipeline:
        error = _error_integral(cfg.target, cfg.c, pipeline.x_grid)
        for rep in range(cfg.replications):
            em = _replication_sample(cfg, rep)
            result = pipeline.select("ridge", em)
            errs = [error(pipeline.estimate("ridge", em, k).values) for k in result.admissible]
            selected[rep] = errs[result.admissible.index(result.k_hat)]
            oracle[rep] = min(errs)
    return {
        "selected": selected,
        "oracle": oracle,
        "k_values": np.array(result.admissible),
    }


# ---------------------------------------------------------------------------
# Benchmark-scenario defaults
# ---------------------------------------------------------------------------

#: selection constants per error density for the benchmark table runs.
#: The ridge constants are calibrated against the variance proxy
#: V_hat = 2*sigma_hat*||R_k||^2/n implemented here (an effective penalty
#: of about pi/2 times the exact variance functional
#: sigma_c*||R_k||^2/(2*pi*n)); much larger values freeze the selection at
#: k = 1 and the selected risk stops tracking the best fixed-k risk.
TABLE1_CHI = {
    "noise_uniform": {"chi1": 0.125, "chi2": 0.125, "chi": 5.0},
    "noise_beta": {"chi1": 0.125, "chi2": 0.125, "chi": 3.0},
}


def table1_selection_config(error: str, c: float = 1.0) -> SelectionConfig:
    """Benchmark selection constants for an error density (r=2, xi=0)."""
    if error not in TABLE1_CHI:
        raise ValueError(f"no benchmark constants for error {error!r}")
    chis = TABLE1_CHI[error]
    return SelectionConfig(
        chi1=chis["chi1"], chi2=chis["chi2"], chi=chis["chi"], c=c, r=2.0, xi=0.0
    )


#: published benchmark values, scaled by 100: (error, method, target, n) -> MISE
TABLE1_REFERENCE = {
    ("noise_uniform", "ridge", "beta25", 500): 0.94,
    ("noise_uniform", "ridge", "beta25", 2000): 0.31,
    ("noise_uniform", "ridge", "loggamma", 500): 2.17,
    ("noise_uniform", "ridge", "loggamma", 2000): 1.54,
    ("noise_uniform", "ridge", "gamma5", 500): 0.63,
    ("noise_uniform", "ridge", "gamma5", 2000): 0.17,
    ("noise_uniform", "ridge", "lognormal", 500): 7.13,
    ("noise_uniform", "ridge", "lognormal", 2000): 2.38,
    ("noise_uniform", "cutoff", "beta25", 500): 1.10,
    ("noise_uniform", "cutoff", "beta25", 2000): 0.38,
    ("noise_uniform", "cutoff", "loggamma", 500): 2.03,
    ("noise_uniform", "cutoff", "loggamma", 2000): 1.26,
    ("noise_uniform", "cutoff", "gamma5", 500): 0.52,
    ("noise_uniform", "cutoff", "gamma5", 2000): 0.16,
    ("noise_uniform", "cutoff", "lognormal", 500): 15.07,
    ("noise_uniform", "cutoff", "lognormal", 2000): 2.34,
    ("noise_beta", "ridge", "beta25", 500): 2.32,
    ("noise_beta", "ridge", "beta25", 2000): 1.43,
    ("noise_beta", "ridge", "loggamma", 500): 5.90,
    ("noise_beta", "ridge", "loggamma", 2000): 3.81,
    ("noise_beta", "ridge", "gamma5", 500): 1.19,
    ("noise_beta", "ridge", "gamma5", 2000): 0.47,
    ("noise_beta", "ridge", "lognormal", 500): 25.84,
    ("noise_beta", "ridge", "lognormal", 2000): 11.03,
    ("noise_beta", "cutoff", "beta25", 500): 3.95,
    ("noise_beta", "cutoff", "beta25", 2000): 1.56,
    ("noise_beta", "cutoff", "loggamma", 500): 10.63,
    ("noise_beta", "cutoff", "loggamma", 2000): 7.12,
    ("noise_beta", "cutoff", "gamma5", 500): 1.52,
    ("noise_beta", "cutoff", "gamma5", 2000): 0.84,
    ("noise_beta", "cutoff", "lognormal", 500): 33.95,
    ("noise_beta", "cutoff", "lognormal", 2000): 13.45,
}

TABLE1_TARGETS = ("beta25", "loggamma", "gamma5", "lognormal")
TABLE1_ERRORS = ("noise_uniform", "noise_beta")
TABLE1_SIZES = (500, 2000)


@dataclass(frozen=True)
class MiseRow:
    """One line of the benchmark-table CSV."""

    target: str
    error: str
    method: str
    n: int
    c: float
    reps: int
    mise_x100: float
    se_x100: float


def run_table_grid(
    reps: int,
    seed: int,
    targets: Sequence[str] = TABLE1_TARGETS,
    errors: Sequence[str] = TABLE1_ERRORS,
    sizes: Sequence[int] = TABLE1_SIZES,
    methods: Sequence[str] = ("ridge", "cutoff"),
    c: float = 1.0,
    quadrature: QuadratureConfig = QuadratureConfig(),
    x_grid: XGridSpec = XGridSpec(),
    chi_overrides: Optional[dict] = None,
) -> list:
    """Run the full benchmark grid and return MiseRow records.

    Within a (target, error, n) scenario all methods consume identical
    draws and share each replication's empirical transform.
    """
    rows = []
    for error in errors:
        sel = table1_selection_config(error, c)
        if chi_overrides and error in chi_overrides:
            sel = replace(sel, **chi_overrides[error])
        for target in targets:
            for n in sizes:
                cfg = ExperimentConfig(
                    target=target,
                    error=error,
                    n=n,
                    c=c,
                    method="ridge",
                    selection=sel,
                    replications=reps,
                    seed=seed,
                    x_grid=x_grid,
                    quadrature=quadrature,
                )
                reports = _mise_reports(cfg, methods)
                for m in methods:
                    rep = reports[m]
                    rows.append(
                        MiseRow(
                            target=target,
                            error=error,
                            method=m,
                            n=cfg.n,
                            c=c,
                            reps=reps,
                            mise_x100=rep.scaled_mise,
                            se_x100=100.0 * rep.mise_se,
                        )
                    )
    return rows


def write_mise_csv(path, rows: Sequence[MiseRow]) -> None:
    """Write benchmark rows: scenario, method, n, c, reps, mise_x100, se_x100."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "method", "n", "c", "reps", "mise_x100", "se_x100"]
        )
        for r in rows:
            writer.writerow(
                [
                    f"{r.target}*{r.error}",
                    r.method,
                    r.n,
                    r.c,
                    r.reps,
                    f"{r.mise_x100:.6f}",
                    f"{r.se_x100:.6f}",
                ]
            )


def write_profile_csv(path, rows: Sequence[ProfileRow]) -> None:
    """Write a bias/variance profile: k, bias_sq, variance, bound_bias, bound_var."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "bias_sq", "variance", "bound_bias", "bound_var"])
        for r in rows:
            writer.writerow(
                [
                    r.k,
                    repr(r.bias_sq),
                    repr(r.variance),
                    repr(r.bound_bias),
                    repr(r.bound_var),
                ]
            )
