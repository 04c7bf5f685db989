import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mellin_deconv import (
    CutoffSpec,
    EmpiricalMellin,
    EmptyAdmissibleSetError,
    MellinFunction,
    QuadratureConfig,
    RidgeSpec,
    RngStream,
    SelectionConfig,
    catalog_mellin,
    cutoff_multiplier,
    density_spec,
    sample,
    select_cutoff,
    select_ridge,
    sigma_hat,
    stream_id_for,
    write_diagnostics_csv,
)
from mellin_deconv.risk import run_selection_oracle_comparison
from mellin_deconv.selection import (
    MAX_RIDGE_LEVELS,
    REL_TAIL_TOL,
    Pipeline,
    RidgePowerOverflowError,
    TooManyLevelsError,
)
from mellin_deconv import ExperimentConfig, default_x_grid, table1_selection_config

from conftest import RowRidgeBank, empirical_mellin, multiplier_norm_sq, ridge_tail_bound

Q = QuadratureConfig(0.01, 150.0)
G_BETA = catalog_mellin("noise_beta", 1.0)
G_UNIF = catalog_mellin("noise_uniform", 1.0)
TWO_PI = 2.0 * np.pi


def _simulated_sample(n, rep=0, target="beta25", error="noise_uniform"):
    x = sample(density_spec(target), n, RngStream(313, stream_id_for("sx", target, error, n, rep)))
    u = sample(density_spec(error), n, RngStream(313, stream_id_for("su", target, error, n, rep)))
    return x * u


# ---------------------------------------------------------------------- #
# moment estimator
# ---------------------------------------------------------------------- #


def test_sigma_hat_examples():
    assert sigma_hat(EmpiricalMellin(1.0, np.array([3.0, 9.0]))) == 1.0
    assert sigma_hat(EmpiricalMellin(2.0, np.array([1.0, 2.0, 4.0]))) == pytest.approx(7.0)
    assert sigma_hat(EmpiricalMellin(0.0, np.array([0.5]))) == pytest.approx(4.0)


# ---------------------------------------------------------------------- #
# admissible sets
# ---------------------------------------------------------------------- #


def _admissible_ridge(g, cfg, n, q) -> list:
    """Levels of the ridge bank admissible at sample size n."""
    bank = Pipeline(g, cfg, q, default_x_grid()).bank("ridge")
    return bank.k_values[: bank.admissible(n)].tolist()


def test_admissible_ridge_examples():
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, r=2.0)
    # ||R_1||^2 = 3 pi / 4 ~ 2.36 exceeds n = 1
    assert _admissible_ridge(G_BETA, cfg, 1, Q) == []
    with pytest.raises(EmptyAdmissibleSetError):
        Pipeline(G_BETA, cfg, Q, default_x_grid()).select("ridge", EmpiricalMellin(1.0, [2.0]))
    assert _admissible_ridge(G_BETA, cfg, 3, Q) == [1]


@pytest.mark.filterwarnings("ignore:ridge norm truncated")
def test_admissible_ridge_explicit_grid_is_prefix():
    from mellin_deconv import RidgeSpec, ridge_multiplier

    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, r=2.0, k_grid=(1, 2, 3, 5, 8))
    ks = _admissible_ridge(G_BETA, cfg, 300, Q)
    assert ks == [1, 2, 3, 5]  # ||R_8||^2 > 300 stops the scan
    norms = [
        multiplier_norm_sq(
            ridge_multiplier(RidgeSpec(k=float(k), c=1.0, r=2.0), G_BETA), Q
        )
        for k in (1, 2, 3, 5, 8)
    ]
    assert all(v <= 300 for v in norms[:4]) and norms[4] > 300


def test_admissible_ridge_full_grid_for_large_n():
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, r=2.0, k_grid=(1, 2, 3))
    assert _admissible_ridge(G_BETA, cfg, 10**9, Q) == [1, 2, 3]


def test_admissible_ridge_scan_stops_at_saturation():
    # from k = 76 on the threshold clears |M_g| on the whole window, so every
    # level is the same estimator with norm 562 800.00125 < n; the
    # consecutive scan must end there instead of running forever
    cfg = table1_selection_config("noise_beta")
    ks = _admissible_ridge(catalog_mellin("noise_beta", 1.0), cfg, 600_000, QuadratureConfig())
    assert ks == list(range(1, 77))


@pytest.mark.parametrize("noise", ["noise_uniform", "noise_beta"])
def test_bank_tail_ratios_match_the_oracle_bound(noise):
    # every level's ratio is the former truncation check's bound over the
    # bank's own norm, on the prefixes admissible at three sizes and on the
    # uncapped bank
    g, cfg = catalog_mellin(noise, 1.0), table1_selection_config(noise)
    pipeline = Pipeline(g, cfg, QuadratureConfig(), default_x_grid(points=8))
    bank = pipeline.bank("ridge")
    prefixes = [(bank, bank.admissible(n)) for n in (500, 2000, 10_000)]
    with pytest.warns(RuntimeWarning, match="truncated"):
        fixed = pipeline.fixed_ridge_bank(range(1, 21))
    prefixes.append((fixed, fixed.k_values.size))
    for bank, m in prefixes:
        ref = [ridge_tail_bound(k, cfg.r, g, QuadratureConfig()) for k in bank.k_values[:m]]
        np.testing.assert_allclose(bank.tail_ratios[:m], np.array(ref) / bank.norms_sq[:m],
                                   rtol=1e-12)
        assert not bank.tail_ratios.flags.writeable


def test_bank_tail_ratio_is_infinite_without_a_bound_and_absent_without_a_certificate():
    # 2 gamma (r+1) <= 1 leaves the tail unbounded; a noise without a decay
    # certificate (noise_uniform at c = 0 has zeros) records no ratio
    slow = MellinFunction(1.0, G_BETA.eval_fn, decay_exponent=0.25, decay_upper=1.0)
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, r=0.5)
    bank = Pipeline(slow, cfg, Q, default_x_grid(points=8)).bank("ridge")
    m = bank.admissible(500)
    assert m > 0 and np.all(bank.tail_ratios[:m] == np.inf)
    assert ridge_tail_bound(1.0, cfg.r, slow, Q) == np.inf
    g0 = catalog_mellin("noise_uniform", 0.0)
    assert g0.decay_exponent is None
    cfg0 = SelectionConfig(chi1=0.125, chi2=0.125, chi=5.0, c=0.0, r=2.0)
    pipeline = Pipeline(g0, cfg0, Q, default_x_grid(points=8))
    assert pipeline.bank("ridge").admissible(2000) > 0
    assert pipeline.bank("ridge").tail_ratios is None
    assert pipeline.fixed_ridge_bank((1, 2, 3)).tail_ratios is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise", ["noise_uniform", "noise_beta"])
def test_fits_on_the_default_grid_raise_no_warning(noise):
    # admissible banks record their tail ratios (above REL_TAIL_TOL at large
    # n) but only the uncapped fixed-level bank warns
    g, cfg = catalog_mellin(noise, 1.0), table1_selection_config(noise)
    pipeline = Pipeline(g, cfg, QuadratureConfig(), default_x_grid())
    for n in (500, 2000, 10_000):
        em = EmpiricalMellin(1.0, _simulated_sample(n, error=noise))
        for method in ("ridge", "cutoff"):
            result, est = pipeline.fit(method, em)
            assert np.all(np.isfinite(est.values))
    bank = pipeline.bank("ridge")
    assert bank.tail_ratios[: bank.admissible(10_000)].max() > REL_TAIL_TOL


def test_unbounded_ridge_scan_fails_fast_with_a_typed_error():
    # at xi = 2 noise_uniform admits 195 600 levels at n = 10^5, whose
    # contrasts would need about 300 GB: the scan stops at the bound instead
    cfg = replace(table1_selection_config("noise_uniform"), xi=2.0)
    pipeline = Pipeline(G_UNIF, cfg, Q, default_x_grid(points=8))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(TooManyLevelsError, match="xi=2, n=100000") as exc:
            pipeline.bank("ridge").admissible(100_000)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value, ValueError)
    assert f"more than {MAX_RIDGE_LEVELS} levels" in str(exc.value) and "k_grid" in str(exc.value)
    assert elapsed < 10.0 and peak < 20e6
    # the select of a sample reaches the same error, and so does a longer k_grid
    em = EmpiricalMellin(1.0, _simulated_sample(2000))
    with pytest.raises(TooManyLevelsError, match="xi=2, n=2000"):
        pipeline.select("ridge", em)
    long_grid = replace(cfg, k_grid=range(1, MAX_RIDGE_LEVELS + 2))
    with pytest.raises(TooManyLevelsError):
        Pipeline(G_UNIF, long_grid, Q, default_x_grid(points=8)).bank("ridge").admissible(10)
    fits = replace(cfg, k_grid=range(1, MAX_RIDGE_LEVELS + 1))
    bank = Pipeline(G_UNIF, fits, Q, default_x_grid(points=8)).bank("ridge")
    assert bank.admissible(10**9) == MAX_RIDGE_LEVELS


@pytest.mark.parametrize("r", [200.0, 1e300])
@pytest.mark.parametrize("noise", ["noise_uniform", "noise_beta"])
def test_a_ridge_power_past_the_float_range_is_refused_by_name(noise, r):
    # k^(2(r+2)) leaves the float range within the first levels: the bank
    # names r and the level instead of raising a bare OverflowError
    em = EmpiricalMellin(1.0, _simulated_sample(500, error=noise))
    cfg = replace(table1_selection_config(noise), r=r)
    pipeline = Pipeline(catalog_mellin(noise, 1.0), cfg, Q, default_x_grid(points=8))
    named = re.escape(f"r={r:g}, level k=")
    with pytest.raises(RidgePowerOverflowError, match=named):
        pipeline.fit("ridge", em)
    with pytest.raises(RidgePowerOverflowError, match=named):
        pipeline.fixed_ridge_bank(range(1, 13))
    assert pipeline.fit("cutoff", em)[0].k_hat >= 1  # the cut-off rule has no power
    assert Pipeline(catalog_mellin(noise, 1.0), replace(cfg, r=100.0), Q,
                    default_x_grid(points=8)).fit("ridge", em)[0].k_hat >= 1


@pytest.mark.parametrize("noise", ["noise_uniform", "noise_beta"])
def test_admissible_refuses_only_a_prefix_that_reaches_the_overflowing_level(noise):
    # at r = 200, k^(2(r+2)) first passes the float range at k = 6: the one
    # bank holds that level, and only a size whose prefix reaches it raises
    cfg = replace(table1_selection_config(noise), r=200.0)
    bank = Pipeline(catalog_mellin(noise, 1.0), cfg, Q, default_x_grid(points=8)).bank("ridge")
    assert [bank.admissible(n) for n in (1, 10, 100)] == [1, 1, 4]
    for n in (500, 10**5, 1e300):
        with pytest.raises(RidgePowerOverflowError, match=re.escape("r=200, level k=6") + "$"):
            bank.admissible(n)
    assert bank.admissible(100) == 4  # a refused size leaves the bank usable


def test_cutoff_admissibility_closed_form():
    # window norm for the linear-beta noise is 2k + k^3/6; admissible iff
    # that is at most 2 pi n
    for n in (10, 100, 1000):
        cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0)
        bank = Pipeline(G_BETA, cfg, Q, default_x_grid()).bank("cutoff")
        k_max = bank.k_values[bank.admissible(n) - 1]
        assert 2 * k_max + k_max**3 / 6.0 <= TWO_PI * n
        k_next = k_max + 1
        assert 2 * k_next + k_next**3 / 6.0 > TWO_PI * n


# ---------------------------------------------------------------------- #
# ridge selection
# ---------------------------------------------------------------------- #


def test_bias_proxy_zero_at_largest_level():
    y = _simulated_sample(500)
    cfg = table1_selection_config("noise_uniform")
    res = select_ridge(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
    assert res.diagnostics[-1].a_hat == 0.0
    assert res.k_hat in res.admissible
    objectives = [d.objective for d in res.diagnostics]
    assert res.diagnostics[objectives.index(min(objectives))].k == res.k_hat


def test_singleton_admissible_set():
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, r=2.0, k_grid=(1,))
    y = _simulated_sample(500, error="noise_beta")
    res = select_ridge(EmpiricalMellin(1.0, y), G_BETA, cfg, Q)
    assert res.k_hat == 1
    assert res.diagnostics[0].a_hat == 0.0


def test_bias_proxy_nonincreasing_candidate_mode():
    cfg = table1_selection_config("noise_uniform")
    for rep in range(5):
        y = _simulated_sample(1000, rep=rep)
        res = select_ridge(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
        a = [d.a_hat for d in res.diagnostics]
        assert all(b <= a_prev + 1e-12 for a_prev, b in zip(a, a[1:]))


def test_penalty_scale_never_increases_level():
    base = table1_selection_config("noise_uniform")
    for rep in range(20):
        y = _simulated_sample(500, rep=rep)
        em = EmpiricalMellin(1.0, y)
        ks = []
        for lam in (1.0, 2.0, 4.0):
            cfg = SelectionConfig(
                chi1=lam * base.chi1, chi2=lam * base.chi2, chi=base.chi,
                c=1.0, r=2.0,
            )
            ks.append(select_ridge(em, G_UNIF, cfg, Q).k_hat)
        assert ks[0] >= ks[1] >= ks[2]


def test_population_level_selection_is_sane():
    # true transform of Y in place of the empirical one: the chosen level
    # must track the best achievable error up to a small floor
    cfg = table1_selection_config("noise_beta")
    n = 2000
    pipeline = Pipeline(G_BETA, cfg, Q, default_x_grid())
    bank = pipeline.bank("ridge")
    levels = bank.k_values[: bank.admissible(n)]
    mf = catalog_mellin("gamma5", 1.0)
    my = mf(Q.t) * G_BETA(Q.t)
    res = bank.select(np.abs(my) ** 2, 1.0, n)
    assert res.k_hat in set(levels)
    # population errors per level are pure smoothing biases
    errs = np.array(
        [
            float(Q.integrate(np.abs(mf(Q.t) - my * pipeline.multiplier("ridge", k)) ** 2))
            / TWO_PI
            for k in levels
        ]
    )
    norm_f = float(Q.integrate(np.abs(mf(Q.t)) ** 2)) / TWO_PI
    sel_err = errs[list(levels).index(res.k_hat)]
    assert sel_err <= 2.0 * errs.min() + 0.01 * norm_f


def _assert_bank_matches_row_oracle(g, cfg, q, n, y):
    pipeline = Pipeline(g, cfg, q, default_x_grid(points=8))
    bank = pipeline.bank("ridge")
    m = bank.admissible(n)
    oracle = RowRidgeBank(g, cfg, q, n_cap=float(n))
    assert np.array_equal(bank.k_values[:m], oracle.k_values)
    if oracle.k_values.size == 0:
        return
    np.testing.assert_allclose(bank.norms_sq[:m], oracle.norms_sq, rtol=1e-12, atol=0.0)
    for k, ref in zip(bank.k_values[:m], oracle.rows):
        assert np.abs(pipeline.multiplier("ridge", k) - ref).max() <= 1e-13 * np.abs(ref).max()

    em = EmpiricalMellin(cfg.c, y)
    abs_sq, sig = np.abs(pipeline.transform(em)) ** 2, sigma_hat(em)
    contrast = bank.contrasts(abs_sq, m)
    np.testing.assert_allclose(contrast, oracle.contrasts(abs_sq), rtol=1e-12, atol=0.0)
    assert np.all(contrast >= 0.0)
    _, _, objective = oracle.objectives(abs_sq, sig, n)
    res = bank.select(abs_sq, sig, n)
    best = np.sort(objective)[:2]
    if best.size < 2 or best[1] - best[0] > 1e-12 * np.abs(best).max():
        assert res.k_hat == oracle.k_values[np.argmin(objective)]


@settings(max_examples=60, deadline=None)
@given(
    noise=st.sampled_from([("noise_beta", 1.0), ("noise_uniform", 0.0), ("noise_uniform", 1.0)]),
    xi=st.sampled_from([0.0, 0.5, 1.0]),
    r=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    k_grid=st.none() | st.sets(st.integers(1, 60), min_size=1, max_size=8).map(sorted),
    grid=st.sampled_from([(0.01, 150.0), (0.05, 60.0)]),
    n=st.sampled_from([1, 50, 500, 2000, 10_000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ridge_bank_matches_row_table_oracle(noise, xi, r, k_grid, grid, n, seed):
    # the factored bank against the former row table: same admissible levels,
    # norms and contrasts to 1e-12, rows to 1e-13 of their peak, same k_hat
    # unless the two best objectives tie; zeros of the c = 0 uniform-noise
    # transform give kappa = inf.  At xi = 1 and large n the consecutive scan
    # admits hundreds of levels, too many for the O(m^2 N) oracle.
    name, c = noise
    g, q = catalog_mellin(name, c), QuadratureConfig(*grid)
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=1.0, c=c, r=r, xi=xi, k_grid=k_grid)
    assume(Pipeline(g, cfg, q, default_x_grid(points=8)).bank("ridge").admissible(n) <= 40)
    y = _simulated_sample(n, rep=seed, target="gamma5", error=name)
    _assert_bank_matches_row_oracle(g, cfg, q, n, y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_ridge_bank_is_quiet_at_zeros_and_extreme_scales(scale):
    # noise_uniform at c = 0 vanishes between grid nodes and the sample
    # weights Y^(c-1) reach 1e+-100; no floating-point warning may escape
    g0 = catalog_mellin("noise_uniform", 0.0)
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=5.0, c=0.0, r=2.0)
    y = scale * _simulated_sample(2000, rep=7, target="gamma5")
    _assert_bank_matches_row_oracle(g0, cfg, Q, 2000, y)
    res, est = Pipeline(g0, cfg, Q, default_x_grid()).fit("ridge", EmpiricalMellin(0.0, y))
    assert res.k_hat in res.admissible and np.all(np.isfinite(est.values))


def test_ridge_bank_rows_where_the_noise_transform_is_zero():
    # an exact zero of M_g gives kappa = inf: every row is 0 there, the node
    # sits past every level and adds nothing to the norms
    t0 = Q.t[Q.center + 250]
    g = MellinFunction(
        c=1.0, eval_fn=lambda t: np.where(np.abs(np.asarray(t)) == t0, 0.0, G_BETA.eval_fn(t))
    )
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, r=2.0)
    pipeline = Pipeline(g, cfg, Q, default_x_grid())
    bank = pipeline.bank("ridge")
    m = bank.admissible(10**6)
    oracle = RowRidgeBank(g, cfg, Q, n_cap=1e6)
    assert np.isinf(bank.kappa[Q.center + 250]) and np.array_equal(bank.k_values[:m], oracle.k_values)
    assert all(pipeline.multiplier("ridge", k)[Q.center + 250] == 0.0 for k in bank.k_values[:m])
    np.testing.assert_allclose(bank.norms_sq[:m], oracle.norms_sq, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("method", ["ridge", "cutoff"])
@pytest.mark.parametrize("k", [0])
def test_bank_row_refuses_a_level_outside_the_bank(method, k, rng):
    # the bank's levels start at 1; the fixed-level multiplier that stands in
    # for a bank row, and the estimate built on it, refuse a level below them
    pipeline = Pipeline(G_BETA, table1_selection_config("noise_beta"), Q, default_x_grid())
    bank = pipeline.bank(method)
    assert bank.admissible(2000) > 0 and bank.k_values[0] == 1
    em = EmpiricalMellin(1.0, rng.gamma(5.0, 1.0, 50))
    for build in (lambda: pipeline.multiplier(method, k), lambda: pipeline.estimate(method, em, k)):
        with pytest.raises(ValueError, match=rf"level k must be positive and finite, got k={k}\b"):
            build()


def test_selected_risk_tracks_oracle():
    cfg = ExperimentConfig(
        target="beta25",
        error="noise_uniform",
        n=500,
        c=1.0,
        method="ridge",
        selection=table1_selection_config("noise_uniform"),
        replications=50,
        seed=2024,
    )
    out = run_selection_oracle_comparison(cfg)
    assert np.median(out["selected"]) <= 3.0 * np.median(out["oracle"])


def test_pipeline_at_half_development_point():
    # the unweighted-distance case c = 1/2, end to end: select, estimate,
    # and the estimate should integrate to roughly one over the window
    from mellin_deconv import RidgeSpec, default_x_grid, estimate_density, ridge_multiplier

    c = 0.5
    g = catalog_mellin("noise_uniform", c)
    y = _simulated_sample(2000, rep=1, target="gamma5")
    em = EmpiricalMellin(c, y)
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=5.0, c=c, r=2.0)
    res = select_ridge(em, g, cfg, Q)
    assert res.k_hat in res.admissible
    assert res.sigma_hat > 0.0
    mult = ridge_multiplier(RidgeSpec(k=float(res.k_hat), c=c, r=2.0), g)
    est = estimate_density(mult, em, default_x_grid(), Q)
    assert np.all(np.isfinite(est.values))
    mass = np.trapezoid(est.values, est.x_grid)
    assert 0.7 <= mass <= 1.3


def test_selection_determinism():
    y = _simulated_sample(800)
    cfg = table1_selection_config("noise_uniform")
    r1 = select_ridge(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
    r2 = select_ridge(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
    assert r1 == r2
    c1 = select_cutoff(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
    c2 = select_cutoff(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
    assert c1 == c2


# ---------------------------------------------------------------------- #
# cut-off selection
# ---------------------------------------------------------------------- #


def test_cutoff_objective_matches_independent_recomputation():
    cfg = table1_selection_config("noise_beta")
    n = 300
    for rep in range(5):
        y = _simulated_sample(n, rep=rep, error="noise_beta")
        em = EmpiricalMellin(1.0, y)
        res = select_cutoff(em, G_BETA, cfg, Q)
        objectives = [d.objective for d in res.diagnostics]
        assert res.diagnostics[int(np.argmin(objectives))].k == res.k_hat
        sig = sigma_hat(em)
        for d in res.diagnostics:
            # window norm of the data part, recomputed from scratch on the
            # restricted subgrid with the pointwise transform
            j = Q.window_index(float(d.k))
            t_win = Q.t[Q.center - j : Q.center + j + 1]
            vals = np.abs(empirical_mellin(em, t_win) / G_BETA(t_win)) ** 2
            norm = Q.t_step * (vals[1:-1].sum() + 0.5 * (vals[0] + vals[-1]))
            norm /= TWO_PI
            cut = cutoff_multiplier(CutoffSpec(k=float(d.k), c=1.0), G_BETA, Q)
            pen = 2.0 * cfg.chi * sig * multiplier_norm_sq(cut, Q) / (TWO_PI * n)
            assert d.a_hat == pytest.approx(norm, rel=1e-8)
            assert d.v_hat == pytest.approx(pen, rel=1e-8)
            assert d.objective == pytest.approx(pen - norm, rel=1e-8, abs=1e-12)


def test_cutoff_selects_smallest_minimiser():
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, k_grid=(1,))
    y = _simulated_sample(1, rep=3, error="noise_beta")
    res = select_cutoff(EmpiricalMellin(1.0, y), G_BETA, cfg, Q)
    assert res.k_hat == 1


def test_cutoff_bank_rejects_window_across_zero():
    # a window past the first zero of the uniform-noise transform at c=0
    # (t ~ 5.72) fails the zero-freeness check; at realistic sample sizes
    # the admissibility bound already stops short of it
    from mellin_deconv import NoiseTransformZeroError

    g0 = catalog_mellin("noise_uniform", 0.0)
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=0.0, k_grid=(6,))
    pipeline = Pipeline(g0, cfg, Q, default_x_grid())
    bank = pipeline.bank("cutoff")
    widest = bank.k_values[bank.admissible(10**12) - 1]
    with pytest.raises(NoiseTransformZeroError):
        pipeline.multiplier("cutoff", widest)
    y = _simulated_sample(100)
    with pytest.raises(EmptyAdmissibleSetError):
        select_cutoff(EmpiricalMellin(0.0, y), g0, cfg, Q)


def test_cutoff_windows_follow_the_grid_window_rule():
    # on t_step = 0.3 the window of k = 2 ends at the nearest node, t = 2.1:
    # the pipeline's multiplier, the bank's norm, the three-step multiplier
    # and the inversion window must all hold that node
    q = QuadratureConfig(0.3, 20.0)
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0)
    pipeline = Pipeline(G_BETA, cfg, q, default_x_grid())
    bank = pipeline.bank("cutoff")
    m = bank.admissible(10**6)
    assert list(bank.k_values[:m]) == list(range(1, 21))
    for k, norm in zip(bank.k_values[:m], bank.norms_sq[:m]):
        j = q.window_index(k)
        row = pipeline.multiplier("cutoff", k)
        assert np.array_equal(np.nonzero(row)[0], np.arange(q.center - j, q.center + j + 1))
        assert norm == pytest.approx(q.window_integrate(np.abs(row) ** 2, k), rel=1e-12)
        cut = cutoff_multiplier(CutoffSpec(k=float(k), c=1.0), G_BETA, q)
        assert np.allclose(cut(q.t), row, rtol=1e-15, atol=0.0)


def _window_or_none(q: QuadratureConfig, k: int):
    """`QuadratureConfig.window_index` of k, or None past the grid edge."""
    try:
        return q.window_index(k)
    except ValueError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    t_step=st.floats(min_value=1e-3, max_value=1e4),
    half_size=st.integers(min_value=10, max_value=9_999),
    fractions=st.none() | st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=30),
)
@example(t_step=2.0, half_size=10, fractions=None)
def test_cutoff_bank_holds_each_windows_first_level(t_step, half_size, fractions):
    # at t_step 2, round-half-even sends k = 1 to window 0 and k = 3 to
    # window 2, so window 1's smallest level is 2, not ceil((1 - 1/2) * 2) = 1
    q = QuadratureConfig(t_step, half_size * t_step)
    edge = q.half_size * q.t_step
    k_grid = None if fractions is None else sorted({max(1, int(f * edge)) for f in fractions})
    cfg = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=1.0, k_grid=k_grid)
    bank = Pipeline(G_BETA, cfg, q, default_x_grid(points=8)).bank("cutoff")
    levels, windows = bank.k_values.tolist(), bank.windows.tolist()
    assert len(levels) <= q.half_size + 1 and len(windows) == len(levels)
    assert all(a < b for a, b in zip(levels, levels[1:]))
    assert all(a < b for a, b in zip(windows, windows[1:]))
    assert windows == [q.window_index(k) for k in levels]
    if k_grid is None:
        # each level is the smallest whole level of its window, and every
        # whole level up to the edge shares a window with a held one
        assert all(k == 1 or q.window_index(k - 1) < j for k, j in zip(levels, windows))
        assert all(q.window_index(b - 1) == j for b, j in zip(levels[1:], windows))
        last = int((q.half_size + 0.5) * q.t_step) + 2  # past the last whole level within the edge
        while _window_or_none(q, last) is None and last > 1:
            last -= 1
        assert _window_or_none(q, last) == (windows[-1] if levels else None)
    else:
        first = {}
        for k in k_grid:
            j = _window_or_none(q, k)
            if j is not None:
                first.setdefault(j, k)
        assert levels == sorted(first.values())


def test_cutoff_select_on_a_long_coarse_grid_stays_linear_in_the_nodes():
    # t_step 100 up to 4e6 has 80 001 nodes but 4 000 050 whole levels; the
    # 50 admissible at n = 500 all share window 0, so one level is held per
    # window and k_hat is the same first minimiser
    q = QuadratureConfig(100.0, 4e6)
    cfg = table1_selection_config("noise_beta")
    pipeline = Pipeline(G_BETA, cfg, q, default_x_grid(points=8))
    em = EmpiricalMellin(1.0, _simulated_sample(500, error="noise_beta"))
    tracemalloc.start()
    try:
        result = pipeline.select("cutoff", em)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250 * len(q)
    assert result.k_hat == 1 and result.admissible == (1,)
    assert pipeline.bank("cutoff").k_values.size == q.half_size + 1


def test_cutoff_bank_on_a_grid_past_exact_whole_levels_is_refused_by_type():
    # 21 nodes, but whole levels near t_max = 1e21 are no longer floats
    pipeline = Pipeline(G_BETA, table1_selection_config("noise_beta"), QuadratureConfig(1e20, 1e21),
                        default_x_grid(points=8))
    with pytest.raises(ValueError, match=r"t_max=1e\+21"):
        pipeline.bank("cutoff")
    # just inside 2**53 the bank is held, one level per window
    q = QuadratureConfig(2.0**40, 8000 * 2.0**40)
    bank = Pipeline(G_BETA, table1_selection_config("noise_beta"), q, default_x_grid(points=8)).bank("cutoff")
    assert bank.k_values.size == q.half_size + 1
    assert bank.windows.tolist() == [q.window_index(k) for k in bank.k_values.tolist()]
    assert all(q.window_index(k - 1) < j for k, j in zip(bank.k_values.tolist()[1:], bank.windows[1:]))


def test_diagnostics_csv(tmp_path):
    y = _simulated_sample(400)
    cfg = table1_selection_config("noise_uniform")
    res = select_ridge(EmpiricalMellin(1.0, y), G_UNIF, cfg, Q)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, res)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,A_hat,V_hat,objective,admissible"
    assert len(lines) == 1 + len(res.admissible)


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(chi1=2.0, chi2=1.0, chi=1.0)
    with pytest.raises(ValueError):
        SelectionConfig(chi1=0.0, chi2=1.0, chi=1.0)
    with pytest.raises(ValueError):
        SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, k_grid=(3, 2))
    # a bool or a fraction is refused by name, not truncated
    for bad, shown in (((2.9, 4), "2.9"), ((True, 3), "True"), ((1, np.float64(1.5)), "1.5")):
        with pytest.raises(ValueError, match=rf"whole numbers, got .*{shown}"):
            SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, k_grid=bad)
    whole = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, k_grid=(1, 2.0, np.int64(3)))
    assert whole.k_grid == (1, 2, 3) and all(type(k) is int for k in whole.k_grid)


@pytest.mark.parametrize("name", ["r", "xi"])
@pytest.mark.parametrize("bad", [-1.0, -2.0, np.nan, np.inf])
def test_selection_config_refuses_the_exponents_ridge_spec_refuses(name, bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, **{name: bad})
    with pytest.raises(ValueError, match="finite and nonnegative"):
        RidgeSpec(k=1.0, c=1.0, **{name: bad})


@pytest.mark.parametrize(
    "chis",
    [(1.0, np.inf, np.inf), (1.0, np.inf, 1.0), (1.0, 1.0, np.inf), (np.inf, np.inf, 1.0),
     (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)],
)
def test_selection_config_refuses_non_finite_penalty_constants(chis):
    chi1, chi2, chi = chis
    with pytest.raises(ValueError, match="finite"):
        SelectionConfig(chi1=chi1, chi2=chi2, chi=chi)
