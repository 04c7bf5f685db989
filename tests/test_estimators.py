import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_deconv import (
    CutoffSpec,
    EmpiricalMellin,
    HermitianSymmetryError,
    MellinError,
    MellinMultiplier,
    NoiseTransformZeroError,
    Pipeline,
    QuadratureConfig,
    RidgeSpec,
    SelectionConfig,
    catalog_mellin,
    cutoff_multiplier,
    default_x_grid,
    empirical_mellin_on_grid,
    estimate_density,
    ridge_multiplier,
    table1_selection_config,
)
from mellin_deconv.estimators import check_nonvanishing, ridge_factors, ridge_row
from mellin_deconv.mellin import InversionPlan, checked_real_part
from mellin_deconv.model import density_eval, density_spec

from conftest import multiplier_norm_sq

Q = QuadratureConfig(0.01, 150.0)
G_BETA = catalog_mellin("noise_beta", 1.0)
G_UNIF = catalog_mellin("noise_uniform", 1.0)


# ---------------------------------------------------------------------- #
# ridge multiplier
# ---------------------------------------------------------------------- #


def test_ridge_at_zero_equals_inverse():
    mult = ridge_multiplier(RidgeSpec(k=1.0, c=1.0, r=2.0), G_BETA)
    assert mult(0.0)[()] == pytest.approx(1.0)


def test_ridge_damped_magnitude_closed_form():
    # for the linear-beta noise at k=1 the threshold always wins off zero:
    # |eval| = |M|^3 = 8 / (4+t^2)^(3/2)
    mult = ridge_multiplier(RidgeSpec(k=1.0, c=1.0, r=2.0), G_BETA)
    t = np.array([0.5, 1.0, 2.0, 7.0])
    assert np.allclose(np.abs(mult(t)), 8.0 / (4.0 + t**2) ** 1.5, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-60.0, max_value=60.0),
)
def test_ridge_exact_inverse_on_clear_region(k, t):
    mult = ridge_multiplier(RidgeSpec(k=k, c=1.0, r=2.0), G_BETA)
    mg = G_BETA(t)
    if abs(mg) >= 1.0 / k:
        prod = mult(t) * mg
        assert prod == pytest.approx(1.0, abs=1e-10)


def test_ridge_tends_to_inverse_for_large_k():
    t = np.linspace(-40.0, 40.0, 201)
    mult = ridge_multiplier(RidgeSpec(k=1e9, c=1.0, r=2.0), G_BETA)
    assert np.allclose(mult(t), 1.0 / G_BETA(t), rtol=1e-9)


def test_ridge_c_mismatch():
    with pytest.raises(MellinError):
        ridge_multiplier(RidgeSpec(k=1.0, c=0.5, r=2.0), G_BETA)


def test_ridge_integrability_warning():
    # gamma*(r+1) = 0.5 <= 1 for r = -0.5... r must be >= 0; use r=0 with
    # gamma=1: rate 1.0 <= 1 triggers the warning
    with pytest.warns(RuntimeWarning):
        ridge_multiplier(RidgeSpec(k=1.0, c=1.0, r=0.0), G_BETA)


def test_ridge_magnitude_monotone_in_k():
    t = np.linspace(-80.0, 80.0, 1601)
    for g in (G_BETA, G_UNIF):
        prev = np.abs(ridge_multiplier(RidgeSpec(k=1.0, c=1.0, r=2.0), g)(t))
        for k in range(2, 12):
            cur = np.abs(ridge_multiplier(RidgeSpec(k=float(k), c=1.0, r=2.0), g)(t))
            assert np.all(cur >= prev - 1e-13)
            prev = cur


def test_damped_region_nested_in_k():
    t = np.linspace(-80.0, 80.0, 1601)
    for g in (G_BETA, G_UNIF):
        amg = np.abs(g(t))
        prev = (1.0 / 1.0) > amg
        for k in range(2, 12):
            cur = (1.0 / k) > amg
            assert np.all(cur <= prev)
            prev = cur


def test_ridge_and_cutoff_agree_on_clear_window():
    k = 5.0
    ridge = ridge_multiplier(RidgeSpec(k=k, c=1.0, r=2.0), G_BETA)
    cut = cutoff_multiplier(CutoffSpec(k=k, c=1.0), G_BETA, Q)
    t = np.linspace(-k, k, 401)
    clear = np.abs(G_BETA(t)) >= 1.0 / k
    rv, cv = ridge(t), cut(t)
    assert np.array_equal(rv[clear], cv[clear])


# ---------------------------------------------------------------------- #
# cut-off multiplier
# ---------------------------------------------------------------------- #


def test_cutoff_zero_outside_window():
    cut = cutoff_multiplier(CutoffSpec(k=3.0, c=1.0), G_BETA, Q)
    t = np.array([-5.0, -3.01, 3.01, 10.0])
    assert np.all(cut(t) == 0.0)
    inside = np.array([-3.0, 0.0, 3.0])
    assert np.allclose(cut(inside) * G_BETA(inside), 1.0)


def test_cutoff_rejects_vanishing_transform():
    g0 = catalog_mellin("noise_uniform", 0.0)
    with pytest.raises(NoiseTransformZeroError):
        cutoff_multiplier(CutoffSpec(k=10.0, c=0.0), g0, Q)
    # first zero sits near 5.719: a window short of it is fine
    cutoff_multiplier(CutoffSpec(k=5.0, c=0.0), g0, Q)


def test_zero_probe_sees_a_zero_in_the_last_probe_cell():
    # M_g vanishes at t = 2 pi / ln 3 = 5.71920..., inside the last probe cell
    # [5.71, 5.72] of the window 5.72, where no interior node dips
    g0 = catalog_mellin("noise_uniform", 0.0)
    with pytest.raises(NoiseTransformZeroError, match="near t=5.7192"):
        check_nonvanishing(g0, 5.72)
    check_nonvanishing(g0, 5.7192)  # ends short of the zero
    with pytest.raises(NoiseTransformZeroError):
        cutoff_multiplier(CutoffSpec(k=5.72, c=0.0), g0, Q)
    pipeline = Pipeline(g0, SelectionConfig(chi1=0.125, chi2=0.125, chi=5.0, c=0.0), Q,
                        default_x_grid(points=8))
    with pytest.raises(NoiseTransformZeroError):
        pipeline.multiplier("cutoff", 5.72)


def test_cutoff_c_mismatch():
    with pytest.raises(MellinError):
        cutoff_multiplier(CutoffSpec(k=1.0, c=0.0), G_BETA, Q)


# ---------------------------------------------------------------------- #
# multiplier norms (closed forms)
# ---------------------------------------------------------------------- #


def test_ridge_norm_closed_form():
    q = QuadratureConfig(0.005, 400.0)
    mult = ridge_multiplier(RidgeSpec(k=1.0, c=1.0, r=2.0), G_BETA)
    assert multiplier_norm_sq(mult, q) == pytest.approx(3.0 * np.pi / 4.0, rel=1e-6)


def test_cutoff_norm_closed_form():
    q = QuadratureConfig(0.001, 10.0)
    cut = cutoff_multiplier(CutoffSpec(k=1.0, c=1.0), G_BETA, q)
    assert multiplier_norm_sq(cut, q) == pytest.approx(13.0 / 6.0, rel=1e-6)


def test_ridge_norm_vanishes_with_k():
    mult = ridge_multiplier(RidgeSpec(k=1e-6, c=1.0, r=2.0), G_BETA)
    assert multiplier_norm_sq(mult, Q) < 1e-6


def test_norm_conventions_differ_by_two_pi():
    # multiplier norms follow the plain int |.|^2 dt convention, the
    # function-space norm carries the 1/(2 pi); keep them locked together
    from conftest import plancherel_norm_sq

    mult = ridge_multiplier(RidgeSpec(k=2.0, c=1.0, r=2.0), G_BETA)
    direct = multiplier_norm_sq(mult, Q)
    via_plancherel = 2.0 * np.pi * plancherel_norm_sq(mult.eval_fn, Q)
    assert direct == pytest.approx(via_plancherel, rel=1e-12)


def test_ridge_norm_truncation_warning():
    # a window far too short for k = 64 must be flagged
    q = QuadratureConfig(0.01, 30.0)
    mult = ridge_multiplier(RidgeSpec(k=64.0, c=1.0, r=2.0), G_UNIF)
    with pytest.warns(RuntimeWarning, match="truncated"):
        multiplier_norm_sq(mult, q)


def test_fixed_ridge_bank_warns_of_truncation_once():
    # the same grid and level through the package's one truncation check
    cfg = table1_selection_config("noise_uniform")
    pipeline = Pipeline(G_UNIF, cfg, QuadratureConfig(0.01, 30.0), default_x_grid(points=8))
    with pytest.warns(RuntimeWarning, match="truncated") as caught:
        bank = pipeline.fixed_ridge_bank((8, 64))
    assert len(caught) == 1
    assert "k=64" in str(caught[0].message) and "t_max=30" in str(caught[0].message)
    assert bank.tail_ratios[1] > bank.tail_ratios[0]


@pytest.mark.parametrize("p", [2.0, 3.5, 4.0])
def test_ridge_row_matches_the_plain_product_bitwise(p):
    # the in-place row is bitwise inv * min(1, k/kappa)^p, on nodes and at a scalar t
    q = QuadratureConfig(0.05, 60.0)
    inv, kappa = ridge_factors(G_UNIF(q.t), q.t, 0.5, p - 2.0)
    for k in (1.0, 7.0, 1e6):
        assert ridge_row(inv, kappa, k, p).tobytes() == (inv * np.minimum(1.0, k / kappa) ** p).tobytes()
        t = np.asarray(3.3)
        inv0, kappa0 = ridge_factors(np.asarray(G_UNIF(t)), t, 0.5, p - 2.0)
        row0 = ridge_row(inv0, kappa0, k, p)
        assert np.ndim(row0) == 0 and row0 == inv0 * np.minimum(1.0, k / kappa0) ** p


# ---------------------------------------------------------------------- #
# estimation
# ---------------------------------------------------------------------- #


def test_zero_multiplier_gives_zero_estimate(rng):
    em = EmpiricalMellin(1.0, rng.gamma(5.0, 1.0, 50))
    null = MellinMultiplier(
        spec=CutoffSpec(k=1.0, c=1.0),
        g_mellin=G_BETA,
        eval_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        support=1.0,
    )
    est = estimate_density(null, em, default_x_grid(points=32), Q)
    assert np.all(est.values == 0.0)


def test_noiseless_population_estimate_recovers_target():
    # with the true transform of Y in place of the empirical one and a huge
    # ridge level, the estimate is the target density
    mf = catalog_mellin("gamma5", 1.0)
    mult = ridge_multiplier(RidgeSpec(k=1e3, c=1.0, r=2.0), G_BETA)
    q = QuadratureConfig(0.01, 80.0)
    product = mf(q.t) * G_BETA(q.t) * mult(q.t)
    x = np.geomspace(0.1, 15.0, 200)
    vals = InversionPlan(q, 1.0, x)(product)
    truth = density_eval(density_spec("gamma5"), x)
    assert np.max(np.abs(vals.real - truth)) < 1e-3
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_single_observation_cutoff_value():
    q = QuadratureConfig(0.001, 10.0)
    cut = cutoff_multiplier(CutoffSpec(k=1.0, c=1.0), G_BETA, q)
    em = EmpiricalMellin(1.0, np.array([1.0]))
    est = estimate_density(cut, em, np.array([1.0]), q)
    assert est.values[0] == pytest.approx(1.0 / np.pi, rel=1e-10)


def test_estimate_realness_and_fast_path_equivalence(rng):
    y = rng.gamma(5.0, 1.0, 300) * rng.uniform(0.5, 1.5, 300)
    em = EmpiricalMellin(1.0, y)
    mult = ridge_multiplier(RidgeSpec(k=3.0, c=1.0, r=2.0), G_UNIF)
    x = default_x_grid(points=64)
    est = estimate_density(mult, em, x, Q)
    # the product estimate_density inverts, built here
    product = empirical_mellin_on_grid(em, Q) * mult(Q.t)
    # generic two-sided inversion: imaginary residue within tolerance
    complex_vals = InversionPlan(Q, 1.0, x)(product)
    assert np.abs(complex_vals.imag).max() <= 1e-8 * (1.0 + np.abs(complex_vals.real).max())
    # the checked real part agrees with the two-sided sum
    fast = checked_real_part(InversionPlan(Q, 1.0, x)(product))
    assert np.allclose(fast, complex_vals.real, atol=1e-12)
    assert np.allclose(fast, est.values, atol=1e-12)


def test_product_without_conjugate_symmetry_is_refused(rng):
    # the lopsided multiplier (2 for t > 0, 1 otherwise) breaks
    # H(-t) = conj(H(t)); every estimate inverts its one product through
    # this same call
    y = rng.gamma(5.0, 1.0, 500) * np.sqrt(rng.uniform(size=500))
    mhat = empirical_mellin_on_grid(EmpiricalMellin(1.0, y), Q)
    lopsided = mhat * np.where(Q.t > 0.0, 2.0, 1.0)
    x = default_x_grid()
    with pytest.raises(HermitianSymmetryError):
        checked_real_part(InversionPlan(Q, 1.0, x)(lopsided))
    assert checked_real_part(InversionPlan(Q, 1.0, x)(mhat)).shape == (x.size,)


def test_overflowing_sample_weights_are_refused(rng):
    # at c = 0 the weights Y^-1 of a sample scaled by 1e-309 overflow; the
    # three-step form must refuse it as the pipeline does, not return NaN
    y = 1e-309 * rng.gamma(5.0, 1.0, 200)
    em = EmpiricalMellin(0.0, y)
    mult = ridge_multiplier(RidgeSpec(k=1.0, c=0.0, r=2.0), catalog_mellin("noise_beta", 0.0))
    with pytest.raises(MellinError, match="weights overflow"):
        estimate_density(mult, em, default_x_grid(), Q)


def test_estimate_c_mismatch(rng):
    em = EmpiricalMellin(0.5, rng.gamma(5.0, 1.0, 20))
    mult = ridge_multiplier(RidgeSpec(k=1.0, c=1.0, r=2.0), G_BETA)
    with pytest.raises(MellinError):
        estimate_density(mult, em, default_x_grid(points=16), Q)


@pytest.mark.parametrize("k", [0.0, -1.0, np.inf, np.nan])
def test_specs_and_pipeline_share_one_level_rule(k):
    # an infinite level used to build a spec, and the three-step form then
    # returned the unregularised 1/M_g estimate that the pipeline refuses
    pipeline = Pipeline(G_BETA, table1_selection_config("noise_beta"), Q, default_x_grid())
    for build in (
        lambda: RidgeSpec(k=k, c=1.0),
        lambda: CutoffSpec(k=k, c=1.0),
        lambda: pipeline.multiplier("ridge", k),
        lambda: pipeline.multiplier("cutoff", k),
    ):
        with pytest.raises(ValueError, match=rf"level k must be positive and finite, got k={k!r}"):
            build()


def test_spec_validation():
    with pytest.raises(ValueError):
        RidgeSpec(k=0.0, c=1.0)
    with pytest.raises(ValueError):
        RidgeSpec(k=1.0, c=1.0, r=-1.0)
    with pytest.raises(ValueError):
        CutoffSpec(k=-2.0, c=1.0)
