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
- ``banks``: the levels and ``norms_sq`` of the ridge bank's prefix
  admissible at n, for both noises and n in {500, 2000, 10 000}, on the
  default grid; read through `RidgeBank.admissible` where the bank has it,
  else from `Pipeline.bank("ridge", n)`, so that both APIs print
  comparable lines;
- ``tails``: the same prefixes' ``tail_ratios``, on commits whose ridge
  bank records them;
- ``cutoff banks``: the ``repr`` of the cut-off bank's ``k_values``,
  ``windows`` and ``norms_sq`` (as lists, so every float is exact) over the
  prefix admissible at each n in ``SIZES``, for both noises, on the default
  grid and on `QuadratureConfig(0.3, 20.0)`;
- ``fixed levels``: the density bytes of `Pipeline.estimate` at
  k in {1, 3, 10, 40}, both methods, for the n = 500 samples of ``fits``,
  on commits whose pipeline has it.  `run_oracle_rate` estimates through
  it at its fixed level; the cut-off levels are covered by no other section;
- ``selections``: `Pipeline.select` for both noises and both methods, one
  pipeline per noise serving n = 500, 2000, 10 000, 500, 777, 2000, 10 000,
  123, 500 in turn, released after every third size: ``k_hat``,
  ``sigma_hat`` and every level's ``a_hat``, ``v_hat`` and objective, as
  ``repr``.  ``fits`` covers only ``k_hat`` and the densities;
- ``contrasts``: the bytes of `RidgeBank.contrasts` over the prefix
  admissible at n, for the samples, pipelines and releases of
  ``selections``, with |M_hat|^2 from `Pipeline.transform`.

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
#: levels of the fixed-level section
FIXED_LEVELS = (1, 3, 10, 40)
#: sample sizes one pipeline serves in turn in the selections section
SELECTION_SIZES = (500, 2000, 10_000, 500, 777, 2000, 10_000, 123, 500)


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


def _pipelines() -> dict:
    """One pipeline per noise on the default grids, as in the Monte-Carlo experiments."""
    return {
        noise: md.Pipeline(md.catalog_mellin(noise, C), md.table1_selection_config(noise, C),
                           md.QuadratureConfig(), md.default_x_grid())
        for noise in NOISES
    }


def fits() -> tuple:
    digest = hashlib.sha256()
    pipelines = _pipelines()
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
    """(bank, m) per noise and size: the ridge bank whose first m levels are
    admissible at n, through whichever bank API the commit has."""
    one_bank = hasattr(md.selection.RidgeBank, "admissible")
    for pipeline in _pipelines().values():
        for n in SIZES:
            if one_bank:
                bank = pipeline.bank("ridge")
                yield bank, bank.admissible(n)
            else:
                bank = pipeline.bank("ridge", n)
                yield bank, len(bank.k_values)


def banks() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for bank, m in _ridge_banks():
        digest.update(np.asarray(bank.k_values[:m], dtype=np.int64).tobytes())
        digest.update(bank.norms_sq[:m].tobytes())
        count += 1
    return digest, f"{count} ridge banks"


def tails() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for bank, m in _ridge_banks():
        if not hasattr(bank, "tail_ratios"):
            return digest, "tails: not recorded by this commit"
        digest.update(bank.tail_ratios[:m].tobytes())
        count += 1
    return digest, f"{count} ridge banks' tail ratios"


def cutoff_banks() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for q in (md.QuadratureConfig(), md.QuadratureConfig(0.3, 20.0)):
        for noise in NOISES:
            pipeline = md.Pipeline(md.catalog_mellin(noise, C), md.table1_selection_config(noise, C),
                                   q, md.default_x_grid())
            bank = pipeline.bank("cutoff")
            for n in SIZES:
                m = bank.admissible(n)
                for values in (bank.k_values, bank.windows, bank.norms_sq):
                    digest.update(f"{values[:m].tolist()!r};".encode())
                count += 1
    return digest, f"{count} cut-off banks"


def fixed_levels() -> tuple:
    digest = hashlib.sha256()
    if not hasattr(md.Pipeline, "estimate"):
        return digest, "fixed levels: no Pipeline.estimate in this commit"
    pipelines = _pipelines()
    count = 0
    for (noise, n), em in _samples():
        if n != 500:
            continue
        for method in ("ridge", "cutoff"):
            for k in FIXED_LEVELS:
                digest.update(f"{method} {k};".encode())
                digest.update(pipelines[noise].estimate(method, em, k).values.tobytes())
                count += 1
    return digest, f"{count} fixed-level estimates"


def _selection_samples():
    """(pipeline, sample) of the selections section, one pipeline per noise
    serving ``SELECTION_SIZES`` in turn, released after every third size."""
    for noise, pipeline in _pipelines().items():
        for i, n in enumerate(SELECTION_SIZES):
            key = ("fit_digest selections", TARGETS[i % len(TARGETS)], noise, n, i)
            x = md.sample(md.density_spec(key[1]), n, md.RngStream(SEED, md.stream_id_for("x", *key)))
            u = md.RngStream(SEED, md.stream_id_for("u", *key))
            yield pipeline, md.EmpiricalMellin(C, md.contaminate(x, md.density_spec(noise), u))
            if i % 3 == 2:
                pipeline.release()


def selections() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for pipeline, em in _selection_samples():
        for method in ("ridge", "cutoff"):
            result = pipeline.select(method, em)
            digest.update(f"{method} {result.k_hat} {result.sigma_hat!r};".encode())
            for d in result.diagnostics:
                digest.update(f"{d.k} {d.a_hat!r} {d.v_hat!r} {d.objective!r};".encode())
            count += 1
    return digest, f"{count} selections"


def contrasts() -> tuple:
    digest = hashlib.sha256()
    count = 0
    for pipeline, em in _selection_samples():
        bank = pipeline.bank("ridge")
        m = bank.admissible(em.n)
        digest.update(f"{m};".encode())
        digest.update(bank.contrasts(np.abs(pipeline.transform(em)) ** 2, m).tobytes())
        count += 1
    return digest, f"{count} contrast tables"


SECTIONS = (fits, three_step, table_rows, profile_rows, rate_points, oracle_comparisons,
            banks, tails, cutoff_banks, fixed_levels, selections, contrasts)


def main() -> None:
    for section in SECTIONS:
        digest, what = section()
        print(f"{digest.hexdigest()}  {what}", flush=True)


if __name__ == "__main__":
    main()
