"""Invariants of the multiplicative model, checked end to end through
`Pipeline` on drawn samples rather than on fixed inputs.

For Y' = sY the empirical transform is M_hat'(t) = s^(c-1+it) M_hat(t), so
|M_hat|^2 and sigma_hat both scale by s^(2(c-1)), and so does every
contrast and penalty: the level choice cannot move, and the estimate obeys
f_hat'(sx) = f_hat(x)/s.  The transform is a sum over the sample, so the
order of the sample cannot matter either.  Every product `Pipeline` inverts
is the transform of a real function, hence conjugate-symmetric.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mellin_deconv import (
    EmpiricalMellin,
    EmptyAdmissibleSetError,
    ExperimentConfig,
    Pipeline,
    QuadratureConfig,
    RngStream,
    XGridSpec,
    catalog_mellin,
    contaminate,
    default_x_grid,
    density_spec,
    risk,
    run_mise_pair,
    run_selection_oracle_comparison,
    sample,
    stream_id_for,
    table1_selection_config,
)

#: a short window keeps each example cheap; every path is the same
Q = QuadratureConfig(t_step=0.02, t_max=40.0)
X = default_x_grid(points=64)
#: a level and its runner-up whose objectives lie closer than this, relative,
#: may swap under round-off, so k_hat may then differ
TIE_RTOL = 1e-10
#: scaled estimates agree within this share of the estimate's maximum
SCALE_RTOL = 1e-11
#: a permuted sample sums in another order, nothing else changes
ORDER_RTOL = 1e-12

_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
_NOISES = st.sampled_from(["noise_uniform", "noise_beta"])
_TARGETS = st.sampled_from(["beta25", "loggamma", "gamma5", "lognormal"])
_SIZES = st.sampled_from([200, 500, 2000])
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _draw(target, noise, n, seed) -> np.ndarray:
    key = ("invariants", target, noise, n)
    x = sample(density_spec(target), n, RngStream(seed, stream_id_for("x", *key)))
    return contaminate(x, density_spec(noise), RngStream(seed, stream_id_for("u", *key)))


def _pipeline(noise, c, x=X) -> Pipeline:
    return Pipeline(catalog_mellin(noise, c), table1_selection_config(noise, c), Q, x)


def _fit(pipeline, method, y):
    try:
        return pipeline.fit(method, EmpiricalMellin(pipeline.c, y))
    except EmptyAdmissibleSetError:
        assume(False)


def _near_tie(result) -> bool:
    """Whether the runner-up's objective lies within `TIE_RTOL` of the best."""
    objectives = sorted(d.objective for d in result.diagnostics)
    if len(objectives) < 2:
        return False
    best, runner_up = objectives[:2]
    return runner_up - best <= TIE_RTOL * max(abs(best), abs(runner_up))


def _assert_same_estimate(result, est, other, other_values, rtol):
    if _near_tie(result):
        return
    assert other.k_hat == result.k_hat
    scale = np.abs(est.values).max()
    assert np.abs(other_values - est.values).max() <= rtol * scale


@_SETTINGS
@given(
    method=st.sampled_from(["ridge", "cutoff"]),
    noise=_NOISES,
    target=_TARGETS,
    c=st.sampled_from([0.5, 1.0, 1.5]),
    n=_SIZES,
    seed=_SEEDS,
    s=st.floats(min_value=0.1, max_value=10.0),
)
def test_scaled_sample_keeps_the_level_and_scales_the_estimate(method, noise, target, c, n, seed, s):
    y = _draw(target, noise, n, seed)
    result, est = _fit(_pipeline(noise, c), method, y)
    scaled, scaled_est = _fit(_pipeline(noise, c, s * X), method, s * y)
    # f_hat'(s x) = f_hat(x) / s on the scaled x-grid
    _assert_same_estimate(result, est, scaled, s * scaled_est.values, SCALE_RTOL)


@_SETTINGS
@given(
    method=st.sampled_from(["ridge", "cutoff"]),
    noise=_NOISES,
    target=_TARGETS,
    c=st.sampled_from([0.5, 1.0, 1.5]),
    n=_SIZES,
    seed=_SEEDS,
)
def test_permuted_sample_gives_the_same_estimate(method, noise, target, c, n, seed):
    y = _draw(target, noise, n, seed)
    pipeline = _pipeline(noise, c)
    result, est = _fit(pipeline, method, y)
    permuted, permuted_est = _fit(pipeline, method, np.random.default_rng(seed).permutation(y))
    _assert_same_estimate(result, est, permuted, permuted_est.values, ORDER_RTOL)


@contextmanager
def _inverted_products():
    """Every product passed to `Pipeline.invert` inside the block."""
    products = []
    invert = Pipeline.invert

    def recording(self, product, support=None):
        products.append(np.array(product))
        return invert(self, product, support)

    Pipeline.invert = recording
    try:
        yield products
    finally:
        Pipeline.invert = invert


def _assert_conjugate_symmetric(products):
    assert products
    for product in products:
        # on the symmetric grid, t_(-m) sits where t_m sits in the reversed row
        assert np.array_equal(product[..., ::-1], np.conj(product))


@_SETTINGS
@given(noise=_NOISES, target=_TARGETS, c=st.sampled_from([0.5, 1.0, 1.5]), n=_SIZES,
       seed=_SEEDS)
def test_every_fitted_product_is_conjugate_symmetric(noise, target, c, n, seed):
    y = _draw(target, noise, n, seed)
    pipeline = _pipeline(noise, c)
    with _inverted_products() as products:
        for method in ("ridge", "cutoff"):
            _fit(pipeline, method, y)
    _assert_conjugate_symmetric(products)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(noise=_NOISES, target=_TARGETS, n=st.sampled_from([500, 2000]), seed=_SEEDS,
       fixed_k=st.integers(min_value=1, max_value=40))
def test_every_experiment_product_is_conjugate_symmetric(noise, target, n, seed, fixed_k):
    cfg = ExperimentConfig(target=target, error=noise, n=n, c=1.0, method="ridge",
                           selection=table1_selection_config(noise), replications=2, seed=seed,
                           x_grid=XGridSpec(points=64), quadrature=Q)
    with _inverted_products() as products:
        run_mise_pair(cfg)
        run_selection_oracle_comparison(cfg)
        risk._mise_reports(cfg, ("ridge",), level=float(fixed_k))
    _assert_conjugate_symmetric(products)
