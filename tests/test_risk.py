import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mellin_deconv import (
    DensityEstimate,
    ExperimentConfig,
    MellinError,
    QuadratureConfig,
    WeightedFunction,
    XGridSpec,
    bias_variance_profile,
    default_x_grid,
    density_eval,
    density_spec,
    run_mise,
    run_mise_pair,
    run_oracle_rate,
    run_selection_oracle_comparison,
    run_table_grid,
    risk,
    select_cutoff,
    select_ridge,
    sigma_c_true,
    table1_selection_config,
    weighted_moment,
)
from mellin_deconv.cli import main

from conftest import oracle_error

SEL_U = table1_selection_config("noise_uniform")
SEL_B = table1_selection_config("noise_beta")
FAST_Q = QuadratureConfig(0.01, 120.0)


def _cfg(**kw):
    base = dict(
        target="gamma5",
        error="noise_uniform",
        n=400,
        c=1.0,
        method="ridge",
        selection=SEL_U,
        replications=2,
        seed=9,
        quadrature=FAST_Q,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------- #
# moments and error functional
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "name,power",
    [("gamma5", 1.0), ("gamma5", -1.0), ("beta25", 2.0), ("noise_uniform", -1.0)],
)
def test_weighted_moment_against_quadrature(name, power):
    lo, hi = {"gamma5": (0.0, np.inf), "beta25": (0.0, 1.0), "noise_uniform": (0.5, 1.5)}[name]
    ref, _ = quad(
        lambda x: x**power * density_eval(density_spec(name), max(x, 1e-12)),
        lo + 1e-12,
        hi,
        limit=400,
    )
    assert weighted_moment(name, power) == pytest.approx(ref, rel=1e-8)


def test_sigma_c_is_one_at_unit_development_point():
    assert sigma_c_true("gamma5", "noise_uniform", 1.0) == pytest.approx(1.0)
    assert sigma_c_true("lognormal", "noise_beta", 1.0) == pytest.approx(1.0)


def test_oracle_error_zero_for_truth():
    x = default_x_grid()
    est = WeightedFunction(x, density_eval(density_spec("gamma5"), x), 1.0)
    assert oracle_error(est, "gamma5", 1.0) == 0.0


def test_oracle_error_of_zero_estimate():
    ref, _ = quad(
        lambda x: (x**4 * np.exp(-x) / 24.0) ** 2 * x, 0.01, 30.0, limit=200
    )
    x = default_x_grid()
    est = WeightedFunction(x, np.zeros_like(x), 1.0)
    assert oracle_error(est, "gamma5", 1.0) == pytest.approx(ref, rel=1e-3)


def test_oracle_error_refuses_an_estimate_at_another_development_point():
    # an estimate of ones at c = 1 scored at c = 0.5 used to read 28.13
    x = default_x_grid()
    est = DensityEstimate(x, np.ones_like(x), 1.0)
    with pytest.raises(MellinError, match="development point mismatch"):
        oracle_error(est, "gamma5", 0.5)
    assert oracle_error(est, "gamma5", 1.0) == pytest.approx(440.6, rel=1e-3)


def test_oracle_error_stable_under_grid_refinement():
    vals = []
    for pts in (512, 1024):
        x = default_x_grid(points=pts)
        est = WeightedFunction(x, np.zeros_like(x), 1.0)
        vals.append(oracle_error(est, "gamma5", 1.0))
    assert abs(vals[1] - vals[0]) / vals[1] < 0.01


# ---------------------------------------------------------------------- #
# Monte-Carlo engine
# ---------------------------------------------------------------------- #


def test_single_replication_report():
    rep = run_mise(_cfg(replications=1))
    assert rep.mise_se == 0.0
    assert rep.mise == rep.errors[0]
    assert rep.scaled_mise == pytest.approx(100.0 * rep.mise)


def test_run_mise_deterministic():
    a = run_mise(_cfg(replications=3))
    b = run_mise(_cfg(replications=3))
    assert np.array_equal(a.errors, b.errors)


def test_pair_run_equals_individual_runs():
    cfg = _cfg(replications=3)
    both = run_mise_pair(cfg)
    ridge = run_mise(cfg)
    cut = run_mise(replace(cfg, method="cutoff"))
    assert np.array_equal(both["ridge"].errors, ridge.errors)
    assert np.array_equal(both["cutoff"].errors, cut.errors)


def test_fixed_level_bypasses_selection():
    rep = risk._mise_reports(_cfg(replications=2), ("ridge",), level=2.0)["ridge"]
    assert np.all(rep.errors > 0.0)


def test_oracle_comparison_refuses_what_it_would_ignore():
    # it runs the data-driven ridge rule only; a cut-off method must not
    # silently fall back to it
    with pytest.raises(ValueError, match="ridge rule only"):
        run_selection_oracle_comparison(_cfg(method="cutoff"))


def test_oracle_comparison_selected_error_is_the_fitted_estimate_error():
    # every level is estimated by `Pipeline.estimate`, so the selected level's
    # error is bitwise the one `run_mise` takes from `Pipeline.fit`
    cfg = _cfg(replications=3)
    out = run_selection_oracle_comparison(cfg)
    assert np.array_equal(out["selected"], run_mise(cfg).errors)
    assert np.all(out["oracle"] <= out["selected"])
    assert out["k_values"].tolist() == list(range(1, len(out["k_values"]) + 1))


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(method="magic")
    with pytest.raises(ValueError):
        _cfg(replications=0)
    # a bool or a fraction is refused by name instead of failing inside numpy
    for name, bad in (("n", 300.5), ("n", True), ("replications", 2.5), ("n", np.nan)):
        with pytest.raises(ValueError, match=rf"{name} must be a whole number"):
            _cfg(**{name: bad})
    # so is an x-grid's point count, which numpy's geomspace would refuse untyped
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="points must be a whole number"):
            XGridSpec(points=bad)
    grid_rows = [
        run_table_grid(1, 1, targets=("gamma5",), errors=("noise_uniform",), sizes=(300,),
                       quadrature=FAST_Q, x_grid=XGridSpec(points=points))
        for points in (np.float64(64.0), 64)
    ]
    assert grid_rows[0] == grid_rows[1]
    whole = _cfg(n=400.0, replications=np.int64(2))
    assert (whole.n, whole.replications) == (400, 2)
    assert type(whole.n) is int and type(whole.replications) is int
    assert run_mise(whole).mise == run_mise(_cfg()).mise
    # the experiment drivers pass the caller's sample size on untruncated
    for bad in (300.7, True):
        with pytest.raises(ValueError, match="n must be a whole number"):
            run_table_grid(1, 1, targets=("gamma5",), errors=("noise_uniform",), sizes=(bad,))
        with pytest.raises(ValueError, match="n must be a whole number"):
            run_oracle_rate("gamma5", "noise_uniform", 1.0, [bad], 2.0, 1.0, 1, 1)
        with pytest.raises(ValueError, match="n must be a whole number"):
            bias_variance_profile("gamma5", "noise_beta", 1.0, bad, [1], reps=1, seed=1)


# ---------------------------------------------------------------------- #
# scenario pipeline cache
# ---------------------------------------------------------------------- #


def test_scenario_cache_keeps_the_latest_configurations():
    # one pipeline per noise configuration, at most _SCENARIO_PIPELINES
    configs = [_cfg(), _cfg(error="noise_beta", selection=SEL_B),
               _cfg(selection=replace(SEL_U, chi=4.0)), _cfg()]
    for cfg in configs:
        run_mise(cfg)
        assert 1 <= len(risk._pipelines) <= risk._SCENARIO_PIPELINES
    kept = [(key[0], key[2]) for key in risk._pipelines]
    assert kept == [("noise_uniform", replace(SEL_U, chi=4.0)), ("noise_uniform", SEL_U)]


def test_scenario_checkout_is_exclusive():
    # a nested checkout of one configuration builds its own pipeline, and
    # a scenario that raises returns nothing
    cfg = _cfg()
    with risk._scenario_pipeline(cfg) as outer:
        with risk._scenario_pipeline(cfg) as inner:
            assert inner is not outer
        assert list(risk._pipelines.values()) == [inner]
        with risk._scenario_pipeline(cfg) as again:
            assert again is inner and risk._pipelines == {}
    assert list(risk._pipelines.values()) == [outer]
    with pytest.raises(RuntimeError):
        with risk._scenario_pipeline(cfg) as failed:
            raise RuntimeError
    assert failed is outer and risk._pipelines == {}


def test_concurrent_scenarios_never_share_a_pipeline():
    cfgs = [_cfg(), _cfg(error="noise_beta", selection=SEL_B)]
    held, clashes, lock = set(), [], threading.Lock()

    def worker(i):
        for _ in range(40):
            with risk._scenario_pipeline(cfgs[i % 2]) as pipeline:
                with lock:
                    if id(pipeline) in held:
                        clashes.append(i)
                    held.add(id(pipeline))
                time.sleep(1e-4)  # let the other threads check out meanwhile
                with lock:
                    held.discard(id(pipeline))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert clashes == []
    assert len(risk._pipelines) <= risk._SCENARIO_PIPELINES


def test_table_grid_is_the_same_from_a_cold_or_a_warm_cache():
    grid = dict(reps=2, seed=3, targets=("gamma5", "beta25"), sizes=(300, 600), quadrature=FAST_Q)
    warm = run_table_grid(**grid)
    assert run_table_grid(**grid) == warm
    cold = []
    for error in ("noise_uniform", "noise_beta"):
        for target in grid["targets"]:
            for n in grid["sizes"]:
                risk._pipelines.clear()
                cold += run_table_grid(**{**grid, "targets": (target,), "sizes": (n,)},
                                       errors=(error,))
    assert cold == warm


def test_one_shot_paths_leave_the_scenario_cache_empty(tmp_path):
    # a single estimate never checks out or keeps a scenario pipeline
    em = risk._replication_sample(_cfg(n=500), 0)
    g = risk.catalog_mellin("noise_uniform", 1.0)
    select_ridge(em, g, SEL_U, FAST_Q)
    select_cutoff(em, g, SEL_U, FAST_Q)
    sample = tmp_path / "s.csv"
    assert main(["simulate", "--target", "gamma5", "--error", "noise_uniform", "--n", "500",
                 "--out", str(sample)]) == 0
    assert main(["estimate", "--sample", str(sample), "--error", "noise_uniform",
                 "--t-max", "120", "--out", str(tmp_path / "e.csv")]) == 0
    assert risk._pipelines == {}


# ---------------------------------------------------------------------- #
# rate experiment and diagnostics
# ---------------------------------------------------------------------- #


def test_oracle_rate_single_n():
    out = run_oracle_rate(
        "gamma5", "noise_uniform", 1.0, [300], s=2.0, gamma=1.0, reps=2, seed=4,
        quadrature=FAST_Q,
    )
    assert len(out) == 1 and out[0][0] == 300 and out[0][1] > 0.0


def test_oracle_rate_mise_nonincreasing():
    # rate-optimal fixed levels: the risk falls with n, up to 2 SE of noise
    reps, seed = 25, 21
    mises, ses = [], []
    for n in (500, 2000, 8000):
        k_o = max(1, int(round(n ** (1.0 / 7.0))))
        cfg = _cfg(n=n, replications=reps, seed=seed, quadrature=QuadratureConfig(0.01, 60.0))
        rep = risk._mise_reports(cfg, ("ridge",), level=float(k_o))["ridge"]
        mises.append(rep.mise)
        ses.append(rep.mise_se)
    for i in range(len(mises) - 1):
        slack = 2.0 * np.hypot(ses[i], ses[i + 1])
        assert mises[i + 1] <= mises[i] + slack


def test_oracle_rate_requires_increasing_n():
    with pytest.raises(ValueError):
        run_oracle_rate("gamma5", "noise_uniform", 1.0, [500, 500], 2.0, 1.0, 1, 1)


@pytest.mark.parametrize(
    "s, gamma", [(-0.5, 0.0), (-0.1, 1.0), (2.0, 0.0), (2.0, -1.0), (np.nan, 1.0), (2.0, np.inf)]
)
def test_oracle_rate_requires_finite_smoothness_and_decay(s, gamma):
    # the level n^(gamma/(2s+2gamma+1)) needs s >= 0 and gamma > 0, both finite;
    # s = -0.5, gamma = 0 used to divide by zero
    with pytest.raises(ValueError, match="need finite s >= 0 and gamma > 0"):
        run_oracle_rate("gamma5", "noise_uniform", 1.0, [300], s, gamma, 1, 1)


def test_profile_structure_and_bounds():
    rows = bias_variance_profile(
        "gamma5", "noise_beta", 1.0, 500, [1, 2, 3, 4], reps=10, seed=3,
        quadrature=FAST_Q,
    )
    assert [r.k for r in rows] == [1, 2, 3, 4]
    bvar = [r.bound_var for r in rows]
    assert all(b2 > b1 for b1, b2 in zip(bvar, bvar[1:]))  # variance bound grows
    bbias = [r.bound_bias for r in rows]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bbias, bbias[1:]))  # bias bound falls
    assert all(r.bias_sq >= 0.0 and r.variance >= 0.0 for r in rows)


def test_profile_bias_vanishes_for_large_level():
    rows = bias_variance_profile(
        "gamma5", "noise_beta", 1.0, 500, [1, 12], reps=8, seed=6, quadrature=FAST_Q
    )
    assert rows[1].bound_bias < 1e-8  # smoothing bias gone once the window opens
    assert rows[1].bias_sq < rows[0].bias_sq


@pytest.mark.parametrize("c, what", [(100.0, "sigma_c"), (190.0, "non-finite values")])
def test_profile_refuses_non_finite_bound_inputs(c, what):
    # lognormal's second weighted moment overflows from about c = 100 on and
    # its transform at c = 190; the profile used to return inf and nan rows
    with np.errstate(over="ignore"):
        with pytest.raises(MellinError, match=what):
            bias_variance_profile("lognormal", "noise_uniform", c, 500, [1, 2], reps=2, seed=1)


def test_single_k_profile():
    rows = bias_variance_profile(
        "gamma5", "noise_beta", 1.0, 300, [2], reps=3, seed=1, quadrature=FAST_Q
    )
    assert len(rows) == 1
