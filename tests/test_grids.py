"""`QuadratureConfig` near its limits: every configuration is refused with
`ValueError`, or the frequency-domain routines built on it return finite
values or raise a typed error."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mellin_deconv import (
    CutoffSpec,
    EmpiricalMellin,
    EmptyAdmissibleSetError,
    MellinError,
    Pipeline,
    QuadratureConfig,
    RidgeSpec,
    SelectionConfig,
    XGridSpec,
    catalog_mellin,
    cutoff_multiplier,
    default_x_grid,
    ridge_multiplier,
)
from mellin_deconv.grids import MAX_GRID_NODES, MAX_X_POINTS
from mellin_deconv.mellin import InversionPlan, checked_x_grid

from conftest import empirical_mellin, multiplier_norm_sq, plancherel_norm_sq

#: the largest frequency grid a drawn configuration may build
MAX_NODES = 20_001
G_BETA = catalog_mellin("noise_beta", 1.0)
SAMPLE = EmpiricalMellin(1.0, np.array([0.4, 0.9, 0.9, 1.3, 2.2, 3.1]))
X = default_x_grid(points=16)
CFG = SelectionConfig(chi1=0.125, chi2=0.125, chi=3.0, c=1.0)
_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _configs(draw):
    """Fine to coarse steps; windows of exactly 10 steps up to the node bound;
    tail tolerances up to and at 0.01."""
    t_step = draw(st.floats(min_value=1e-5, max_value=2.0))
    half = draw(st.just(10) | st.integers(min_value=10, max_value=(MAX_NODES - 1) // 2))
    tol = draw(st.just(0.01) | st.floats(min_value=1e-12, max_value=0.01))
    return QuadratureConfig(t_step, 10.0 * t_step if half == 10 else half * t_step), tol


@_SETTINGS
@given(config=_configs())
def test_config_near_its_limits_gives_finite_results_or_typed_errors(config):
    q, tol = config
    assert 21 <= len(q) <= MAX_NODES
    assert np.isfinite(plancherel_norm_sq(G_BETA, q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a short window warns of truncation
        assert np.isfinite(multiplier_norm_sq(ridge_multiplier(RidgeSpec(k=2.0, c=1.0), G_BETA), q, tol))
    # the window ends at the node nearest to k = 1 (`window_index`), which may
    # be the outermost node also when that lies below 1; past it it is refused
    if int(round(1.0 / q.t_step)) <= q.half_size:
        assert np.isfinite(multiplier_norm_sq(cutoff_multiplier(CutoffSpec(k=1.0, c=1.0), G_BETA, q), q))
    else:
        with pytest.raises(ValueError, match="exceeds the quadrature bound"):
            multiplier_norm_sq(cutoff_multiplier(CutoffSpec(k=1.0, c=1.0), G_BETA, q), q)

    pipeline = Pipeline(G_BETA, CFG, q, X)
    mhat = pipeline.transform(SAMPLE)
    direct = empirical_mellin(SAMPLE, q.t)
    assert np.abs(mhat - direct).max() <= 1e-11 * abs(direct[q.center])
    for method in ("ridge", "cutoff"):
        try:
            result, est = pipeline.fit(method, SAMPLE)
        except (MellinError, EmptyAdmissibleSetError):
            continue
        assert result.k_hat in result.admissible
        assert np.all(np.isfinite(est.values))


@_SETTINGS
@given(
    t_step=st.floats(min_value=1e-6, max_value=10.0),
    shortfall=st.floats(min_value=1e-12, max_value=0.5),
)
def test_config_past_its_limits_is_refused(t_step, shortfall):
    short = 10.0 * t_step * (1.0 - shortfall)
    if short < 10.0 * t_step:
        with pytest.raises(ValueError, match="t_max"):
            QuadratureConfig(t_step, short)


@pytest.mark.parametrize(
    "t_step, t_max", [(np.nan, 1.0), (np.inf, np.inf), (0.01, np.inf), (0.01, np.nan), (0.0, 1.0)]
)
def test_non_finite_or_empty_config_is_refused(t_step, t_max):
    with pytest.raises(ValueError):
        QuadratureConfig(t_step, t_max)


def test_grid_past_the_node_bound_is_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="300000000001 nodes"):
            QuadratureConfig(1e-9, 150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_x_grid_past_the_point_bound_is_refused_by_name_before_allocation():
    # an inversion plan holds about 520 B per x point, so the bound caps it near 52 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"MAX_X_POINTS={MAX_X_POINTS}, got points={MAX_X_POINTS + 1}"):
            default_x_grid(points=MAX_X_POINTS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert default_x_grid(points=MAX_X_POINTS).size == MAX_X_POINTS
    with pytest.raises(ValueError, match="got points=1"):
        default_x_grid(points=1)


@pytest.mark.parametrize("points", [1, MAX_X_POINTS + 1])
def test_x_grid_spec_refuses_a_point_count_out_of_bounds_at_construction(points):
    with pytest.raises(ValueError, match=f"2 <= points <= MAX_X_POINTS={MAX_X_POINTS}, got points={points}$"):
        XGridSpec(points=points)
    assert XGridSpec(points=2).build().size == 2


def test_an_x_grid_array_past_the_point_bound_is_refused_by_name():
    x = np.geomspace(0.01, 30.0, MAX_X_POINTS + 1)
    named = f"points={MAX_X_POINTS + 1}, more than MAX_X_POINTS={MAX_X_POINTS}"
    with pytest.raises(MellinError, match=named):
        checked_x_grid(x)
    for build in (lambda: InversionPlan(QuadratureConfig(0.5, 5.0), 1.0, x),
                  lambda: Pipeline(G_BETA, CFG, QuadratureConfig(0.5, 5.0), x)):
        with pytest.raises(MellinError, match=named):
            build()
    assert checked_x_grid(x[:-1]).size == MAX_X_POINTS


def test_construction_builds_no_nodes_and_the_bound_is_inclusive():
    tracemalloc.start()
    try:
        q = QuadratureConfig(0.01, 4.0e4)
        at_bound = QuadratureConfig(1.0, (MAX_GRID_NODES - 1) / 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(q) == 8_000_001 and len(at_bound) == MAX_GRID_NODES
    with pytest.raises(ValueError, match=f"{MAX_GRID_NODES + 2} nodes"):
        QuadratureConfig(1.0, (MAX_GRID_NODES + 1) / 2)
    small = QuadratureConfig(0.5, 5.0)
    assert small.t is small.t and np.array_equal(small.t, np.arange(-10, 11) * 0.5)
    with pytest.raises(ValueError):
        small.t[0] = 0.0
    assert small == QuadratureConfig(0.5, 5.0) and hash(small) == hash(QuadratureConfig(0.5, 5.0))


@pytest.mark.parametrize("k", [-1.0, -np.inf, np.inf, np.nan])
def test_bad_window_level_is_refused_by_name(k):
    # a negative level used to give a negative window, which failed far from
    # its cause (ZeroDivisionError in the gridding, IndexError in the sum),
    # and an infinite one an OverflowError
    q = QuadratureConfig(0.5, 5.0)
    product = np.ones(len(q), dtype=complex)
    calls = [
        lambda: q.window_index(k),
        lambda: q.window_integrate(product.real, k),
        lambda: InversionPlan(q, 1.0, X, support=k),
        lambda: Pipeline(G_BETA, CFG, q, X).invert(product, support=k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"finite and nonnegative, got k={k!r}"):
            call()
    # the level rule refuses each before a cut-off multiplier reaches the window
    with pytest.raises(ValueError, match=f"positive and finite, got k={k!r}"):
        CutoffSpec(k=k, c=1.0)
