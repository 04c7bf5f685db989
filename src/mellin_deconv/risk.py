"""Risk evaluation and reproducible Monte-Carlo experiments.

Per-replication work is keyed by content-hashed RNG streams, so results do
not depend on execution order, and the same draws feed both estimation
methods within a scenario (paired comparison).  Every experiment runs
through one `selection.Pipeline` per scenario: each replication's
empirical transform is computed once and shared by both methods, and every
estimate is inverted by the pipeline, which checks the Hermitian residue of
each product.  This module adds only the truth tabulation and the error
integrals, taken in the weighted space L^2(R_+, x^(2c-1)) on a log-spaced
x-window covering the catalog targets' effective support.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import QuadratureConfig, default_x_grid
from .mellin import EmpiricalMellin, WeightedFunction, catalog_mellin
from .model import (
    RngStream,
    contaminate,
    density_eval,
    density_spec,
    sample,
    stream_id_for,
)
from .selection import Pipeline, SelectionConfig

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class XGridSpec:
    """Log-spaced x-window for error integrals."""

    x_min: float = 1e-2
    x_max: float = 30.0
    points: int = 512

    def build(self) -> np.ndarray:
        return default_x_grid(self.x_min, self.x_max, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario descriptor for a Monte-Carlo run.

    ``fixed_k`` bypasses the data-driven selection and estimates with the
    given whole-number ridge level in every replication (used by rate
    experiments); running the cut-off method with it raises `ValueError`.
    """

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
    fixed_k: Optional[float] = None

    def __post_init__(self):
        if self.method not in ("ridge", "cutoff"):
            raise ValueError("method must be 'ridge' or 'cutoff'")
        if self.n < 1 or self.replications < 1:
            raise ValueError("n and replications must be at least 1")
        if self.fixed_k is not None and not (
            self.fixed_k >= 1 and float(self.fixed_k).is_integer()
        ):
            raise ValueError("fixed_k must be a whole number of at least 1")


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


def oracle_error(estimate, target: str, c: float) -> float:
    """Squared weighted L^2 distance between an estimate and a catalog truth.

    ``estimate`` provides ``x_grid``/``values``/``c`` (a DensityEstimate or
    WeightedFunction); the truth is evaluated on the estimate's own grid.
    """
    est = WeightedFunction(estimate.x_grid, estimate.values, c)  # checks the grid
    return float(_error_integral(target, c, est.x_grid)(est.values))


def _error_integral(target: str, c: float, x: np.ndarray):
    """Weighted squared error against the truth on ``x``, of one estimate
    or of each row of a stack."""
    truth = density_eval(density_spec(target), x)
    weight = x ** (2.0 * c - 1.0)
    return lambda values: np.trapezoid((values - truth) ** 2 * weight, x, axis=-1)


def _replication_sample(cfg: ExperimentConfig, rep: int) -> EmpiricalMellin:
    """Draw the contaminated sample of replication ``rep`` (method-independent)."""
    key = (cfg.target, cfg.error, cfg.n, cfg.c)
    x_rng = RngStream(cfg.seed, stream_id_for("x", *key, rep))
    u_rng = RngStream(cfg.seed, stream_id_for("u", *key, rep))
    x = sample(density_spec(cfg.target), cfg.n, x_rng)
    return EmpiricalMellin(cfg.c, contaminate(x, density_spec(cfg.error), u_rng))


def _scenario_pipeline(cfg: ExperimentConfig) -> Pipeline:
    g_mellin = catalog_mellin(cfg.error, cfg.c)
    return Pipeline(g_mellin, cfg.selection, cfg.quadrature, cfg.n, cfg.x_grid.build())


def _mise_reports(cfg: ExperimentConfig, methods: Sequence[str]) -> dict:
    """MiseReport per method, all on the same draws; with ``cfg.fixed_k``
    the ridge method estimates at that level, uncapped, in every replication."""
    if cfg.fixed_k is not None and "cutoff" in methods:
        raise ValueError("fixed_k applies to the ridge method only, not to cutoff")
    pipeline = _scenario_pipeline(cfg)
    error = _error_integral(cfg.target, cfg.c, pipeline.x_grid)
    fixed_row = None
    if cfg.fixed_k is not None:
        k = int(cfg.fixed_k)
        fixed_row = pipeline.fixed_ridge_bank((k,)).row(k)
    errors = {m: np.empty(cfg.replications) for m in methods}
    for rep in range(cfg.replications):
        tf = pipeline.transform(_replication_sample(cfg, rep))
        for m in methods:
            if m == "ridge" and fixed_row is not None:
                values = pipeline.invert(tf.mhat * fixed_row)
            else:
                values = pipeline.fit(m, tf)[1].values
            errors[m][rep] = error(values)
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
    if selection is None:
        selection = table1_selection_config(error, c)
    out = []
    for n in n_list:
        k_o = max(1, int(round(n ** (gamma / (2.0 * s + 2.0 * gamma + 1.0)))))
        cfg = ExperimentConfig(
            target=target,
            error=error,
            n=int(n),
            c=c,
            method="ridge",
            selection=selection,
            replications=reps,
            seed=seed,
            x_grid=x_grid,
            quadrature=quadrature,
            fixed_k=float(k_o),
        )
        out.append((int(n), run_mise(cfg).mise))
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
    is M_hat * R_k, so across replications only the running mean of M_hat
    and of |M_hat|^2 are needed.  Bound terms come from the catalog
    transforms by quadrature: (2 pi)^-1 * int_{G_k} |M_f|^2 for the bias and
    sigma_c ||R_k||^2 / (2 pi n) for the variance.
    """
    if selection is None:
        selection = table1_selection_config(error, c)
    cfg = ExperimentConfig(
        target=target,
        error=error,
        n=int(n),
        c=c,
        method="ridge",
        selection=selection,
        replications=reps,
        seed=seed,
        quadrature=quadrature,
    )
    pipeline = _scenario_pipeline(cfg)
    bank = pipeline.fixed_ridge_bank(k_grid)
    mf = np.asarray(catalog_mellin(target, c)(quadrature.t), dtype=np.complex128)

    sum_mhat = np.zeros(len(quadrature), dtype=np.complex128)
    sum_sq = np.zeros(len(quadrature))
    for rep in range(reps):
        tf = pipeline.transform(_replication_sample(cfg, rep))
        sum_mhat += tf.mhat
        sum_sq += tf.abs_sq
    mean_mhat = sum_mhat / reps
    var_mhat = np.maximum(sum_sq / reps - np.abs(mean_mhat) ** 2, 0.0)

    sig_c = sigma_c_true(target, error, c)
    out = []
    for k, norm in zip(bank.k_values, bank.norms_sq):
        row = bank.row(k)
        bias_sq = float(quadrature.integrate(np.abs(mf - mean_mhat * row) ** 2)) / TWO_PI
        variance = float(quadrature.integrate(var_mhat * np.abs(row) ** 2)) / TWO_PI
        in_gk = bank.kappa > k
        bound_bias = float(quadrature.integrate(np.abs(mf) ** 2 * in_gk)) / TWO_PI
        bound_var = float(sig_c * norm / (TWO_PI * n))
        out.append(
            ProfileRow(
                k=int(k),
                bias_sq=bias_sq,
                variance=variance,
                bound_bias=bound_bias,
                bound_var=bound_var,
            )
        )
    return out


def run_selection_oracle_comparison(cfg: ExperimentConfig) -> dict:
    """Per-replication selected-k error and best fixed-k error (ridge).

    Returns dict with arrays ``selected`` and ``oracle`` plus the admissible
    levels; used to check that the data-driven rule tracks the oracle.
    Only the data-driven ridge rule is compared: another ``cfg.method`` or
    a ``cfg.fixed_k`` raises `ValueError`.
    """
    if cfg.method != "ridge" or cfg.fixed_k is not None:
        raise ValueError("the oracle comparison runs the data-driven ridge rule only")
    pipeline = _scenario_pipeline(cfg)
    error = _error_integral(cfg.target, cfg.c, pipeline.x_grid)
    bank = pipeline.ridge_bank
    rows = bank.rows
    selected = np.empty(cfg.replications)
    oracle = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        tf = pipeline.transform(_replication_sample(cfg, rep))
        k_hat = pipeline.select("ridge", tf).k_hat
        errs = error(pipeline.invert(tf.mhat[None, :] * rows))
        selected[rep] = errs[list(bank.k_values).index(k_hat)]
        oracle[rep] = errs.min()
    return {
        "selected": selected,
        "oracle": oracle,
        "k_values": bank.k_values.copy(),
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
                    n=int(n),
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
                            n=int(n),
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
