"""Print one sha256 per estimation path, to show that a change keeps the
estimator's outputs bitwise.

Run from the repository root, on two checkouts, and compare the lines:

    python tools/fit_digest.py

Each line is a digest and the section it covers:

- ``fits``: ``k_hat`` and the density bytes of `Pipeline.fit`, both
  methods, for 2 noises x 4 targets x n in {500, 2000, 10 000} x 6
  replications (seed 7), on the default frequency grid and x-grid; one
  pipeline serves each noise, as in the Monte-Carlo experiments;
- ``three-step``: the same samples at n = 500 and 2000 through
  `select_ridge`/`select_cutoff`, `ridge_multiplier`/`cutoff_multiplier`
  and `estimate_density`;
- ``table rows``: the `run_table_grid` rows at n = 500, 3 replications;
- ``profile rows``: `bias_variance_profile` for two scenarios;
- ``rate points``: `run_oracle_rate` along n = 500, 2000;
- ``oracle comparisons``: the admissible levels and per-replication errors
  of `run_selection_oracle_comparison` for two scenarios;
- ``banks``: the levels and ``norms_sq`` of `Pipeline.bank("ridge", n)`
  for both noises and n in {500, 2000, 10 000}, on the default grid;
- ``tails``: the same banks' ``tail_ratios``, on commits whose ridge bank
  records them.

Only the package's public names and numpy are used, so the script runs on
any commit that has `Pipeline.fit(method, sample)`.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mellin_deconv as md  # noqa: E402

NOISES = ("noise_uniform", "noise_beta")
TARGETS = ("beta25", "loggamma", "gamma5", "lognormal")
SIZES = (500, 2000, 10_000)
REPLICATIONS = 6
SEED = 7
C = 1.0
#: (target, noise) scenarios of the profile and oracle-comparison sections
SCENARIOS = (("gamma5", "noise_beta"), ("lognormal", "noise_uniform"))


def _samples():
    """((noise, n), sample) of the fit sections, in a fixed order."""
    for noise in NOISES:
        for target in TARGETS:
            for n in SIZES:
                for rep in range(REPLICATIONS):
                    key = ("fit_digest", target, noise, n, rep)
                    x = md.sample(md.density_spec(target), n,
                                  md.RngStream(SEED, md.stream_id_for("x", *key)))
                    u = md.RngStream(SEED, md.stream_id_for("u", *key))
                    yield (noise, n), md.EmpiricalMellin(C, md.contaminate(x, md.density_spec(noise), u))


def fits() -> tuple:
    digest = hashlib.sha256()
    pipelines = {
        noise: md.Pipeline(md.catalog_mellin(noise, C), md.table1_selection_config(noise, C),
                           md.QuadratureConfig(), md.default_x_grid())
        for noise in NOISES
    }
    count = 0
    for (noise, _), em in _samples():
        for method in ("ridge", "cutoff"):
            result, estimate = pipelines[noise].fit(method, em)
            digest.update(f"{method} {result.k_hat};".encode())
            digest.update(estimate.values.tobytes())
            count += 1
    return digest, f"{count} fits"


def three_step() -> tuple:
    digest = hashlib.sha256()
    q, x = md.QuadratureConfig(), md.default_x_grid()
    count = 0
    for (noise, n), em in _samples():
        if n > 2000:
            continue
        g, sel = md.catalog_mellin(noise, C), md.table1_selection_config(noise, C)
        ridge = md.select_ridge(em, g, sel, q)
        cutoff = md.select_cutoff(em, g, sel, q)
        for result, mult in (
            (ridge, md.ridge_multiplier(md.RidgeSpec(float(ridge.k_hat), C, sel.xi, sel.r), g)),
            (cutoff, md.cutoff_multiplier(md.CutoffSpec(float(cutoff.k_hat), C), g, q)),
        ):
            digest.update(f"{result.method} {result.k_hat};".encode())
            digest.update(md.estimate_density(mult, em, x, q).values.tobytes())
            count += 1
    return digest, f"{count} three-step estimates"


def table_rows() -> tuple:
    digest = hashlib.sha256()
    rows = md.run_table_grid(reps=3, seed=SEED, sizes=(500,))
    for r in rows:
        digest.update(f"{r.target} {r.error} {r.method} {r.n};".encode())
        digest.update(np.array([r.mise_x100, r.se_x100]).tobytes())
    return digest, f"{len(rows)} table rows"


def profile_rows() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for target, noise in SCENARIOS:
        for r in md.bias_variance_profile(target, noise, C, 2000, range(1, 13), reps=5, seed=SEED):
            digest.update(f"{r.k};".encode())
            digest.update(np.array([r.bias_sq, r.variance, r.bound_bias, r.bound_var]).tobytes())
            count += 1
    return digest, f"{count} profile rows"


def rate_points() -> tuple:
    digest = hashlib.sha256()
    points = md.run_oracle_rate("lognormal", "noise_uniform", C, [500, 2000],
                                s=2.0, gamma=1.0, reps=4, seed=SEED)
    for n, mise in points:
        digest.update(f"{n};".encode())
        digest.update(np.array([mise]).tobytes())
    return digest, f"{len(points)} rate points"


def oracle_comparisons() -> tuple:
    digest = hashlib.sha256()
    for target, noise in SCENARIOS:
        cfg = md.ExperimentConfig(target=target, error=noise, n=2000, c=C, method="ridge",
                                  selection=md.table1_selection_config(noise, C),
                                  replications=3, seed=SEED)
        out = md.run_selection_oracle_comparison(cfg)
        digest.update(np.asarray(out["k_values"], dtype=np.int64).tobytes())
        digest.update(out["selected"].tobytes())
        digest.update(out["oracle"].tobytes())
    return digest, f"{len(SCENARIOS)} oracle comparisons"


def _ridge_banks():
    for noise in NOISES:
        pipeline = md.Pipeline(md.catalog_mellin(noise, C), md.table1_selection_config(noise, C),
                               md.QuadratureConfig(), md.default_x_grid())
        for n in SIZES:
            yield pipeline.bank("ridge", n)


def banks() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for bank in _ridge_banks():
        digest.update(np.asarray(bank.k_values, dtype=np.int64).tobytes())
        digest.update(bank.norms_sq.tobytes())
        count += 1
    return digest, f"{count} ridge banks"


def tails() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for bank in _ridge_banks():
        if not hasattr(bank, "tail_ratios"):
            return digest, "tails: not recorded by this commit"
        digest.update(bank.tail_ratios.tobytes())
        count += 1
    return digest, f"{count} ridge banks' tail ratios"


def main() -> None:
    for section in (fits, three_step, table_rows, profile_rows, rate_points, oracle_comparisons,
                    banks, tails):
        digest, what = section()
        print(f"{digest.hexdigest()}  {what}", flush=True)


if __name__ == "__main__":
    main()
