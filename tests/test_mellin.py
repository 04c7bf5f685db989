import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st
from scipy.integrate import quad

from mellin_deconv import (
    CATALOG_IDS,
    EmpiricalMellin,
    HermitianSymmetryError,
    MellinError,
    QuadratureConfig,
    WeightedFunction,
    catalog_mellin,
    default_x_grid,
    empirical_mellin_on_grid,
    inverse_mellin,
)
from mellin_deconv import mellin
from mellin_deconv.mellin import (
    InversionPlan,
    checked_real_part,
    probe_minimum,
)
from mellin_deconv.model import CATALOG, density_eval, density_spec

from conftest import (
    bincount_mellin_on_grid,
    complex_fft_invert_grid_values,
    empirical_mellin,
    mellin_quad_oracle,
    mirror,
    norm_sq_quad_oracle,
    plancherel_norm_sq,
    rotator_invert_grid_values,
    rotator_mellin_on_grid,
    weighted_l2_dist_sq,
)


# ---------------------------------------------------------------------- #
# empirical transform
# ---------------------------------------------------------------------- #


def test_empirical_at_zero_c1_is_one():
    em = EmpiricalMellin(1.0, np.array([1.0, 2.0, 4.0]))
    assert empirical_mellin(em, 0.0) == pytest.approx(1.0 + 0.0j)


def test_empirical_mean_example():
    em = EmpiricalMellin(2.0, np.array([1.0, 2.0, 4.0]))
    assert empirical_mellin(em, 0.0) == pytest.approx(7.0 / 3.0)


def test_empirical_single_point_phase():
    em = EmpiricalMellin(1.0, np.array([np.e]))
    assert empirical_mellin(em, np.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=30),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-1.0, max_value=2.0),
)
def test_empirical_bounded_by_value_at_zero(sample, t, c):
    em = EmpiricalMellin(c, np.array(sample))
    val = empirical_mellin(em, t)
    bound = empirical_mellin(em, 0.0).real
    assert abs(val) <= bound * (1.0 + 1e-12)


def test_grid_evaluation_matches_pointwise(rng):
    y = rng.gamma(5.0, 1.0, 200)
    em = EmpiricalMellin(0.5, y)
    grid = QuadratureConfig(0.05, 20.0)
    fast = empirical_mellin_on_grid(em, grid)
    direct = empirical_mellin(em, grid.t)
    assert np.max(np.abs(fast - direct)) < 1e-11


#: (t_step, t_max): the default grid, a fine and a coarse one, and one with
#: half_size + 1 = 4097 modes, just above a power of two
_NUFFT_GRIDS = [(0.01, 150.0), (0.001, 10.0), (0.05, 20.0), (0.01, 40.96)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    distinct=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    spread=st.floats(min_value=0.01, max_value=3.0),
    log10_scale=st.floats(min_value=-6.0, max_value=6.0),
    c=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    grid_pair=st.sampled_from(_NUFFT_GRIDS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grid_evaluation_matches_rotator_oracle(
    n, distinct, spread, log10_scale, c, grid_pair, seed
):
    # lognormal samples of any spread at scales 1e-6..1e6; with ``distinct``
    # set, every value is one of at most that many (heavy ties)
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, spread, n) * 10.0**log10_scale
    if distinct is not None:
        y = rng.choice(y[:distinct], n)
    em = EmpiricalMellin(c, y)
    grid = QuadratureConfig(*grid_pair)
    fast = empirical_mellin_on_grid(em, grid)
    ref = rotator_mellin_on_grid(em, grid)
    assert fast.shape == ref.shape == grid.t.shape
    assert fast[grid.center].imag == 0.0
    assert np.max(np.abs(fast - ref)) <= 1e-11 * abs(ref[grid.center])


@pytest.mark.parametrize("grid_pair", [(0.01, 150.0), (0.01, 40.96)])
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 10_000, 30_000])
def test_blocked_spread_is_bitwise_the_one_shot_spread(n, c, grid_pair):
    # sizes on both sides of one spread block, and several blocks
    y = np.random.default_rng(n).lognormal(0.0, 1.0, n)
    em = EmpiricalMellin(c, y)
    grid = QuadratureConfig(*grid_pair)
    blocked = empirical_mellin_on_grid(em, grid)
    assert blocked.tobytes() == bincount_mellin_on_grid(em, grid).tobytes()


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_blocked_spread_is_bitwise_the_one_shot_spread_at_extreme_scales(scale):
    em = EmpiricalMellin(0.5, np.random.default_rng(7).gamma(5.0, 1.0, 3000) * scale)
    grid = QuadratureConfig()
    assert empirical_mellin_on_grid(em, grid).tobytes() == bincount_mellin_on_grid(em, grid).tobytes()


def test_spread_memory_does_not_grow_with_32_n():
    # the one-shot spread held 32 * n weights and node indices (about 430 MB
    # here); the blocked one keeps a few arrays of length n
    em = EmpiricalMellin(1.0, np.random.default_rng(5).gamma(5.0, 1.0, 400_000))
    tracemalloc.start()
    try:
        empirical_mellin_on_grid(em, QuadratureConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


def test_sample_is_a_read_only_copy_and_the_grid_transform_is_kept():
    y = np.array([0.5, 1.0, 2.0, 4.0])
    em = EmpiricalMellin(1.0, y)
    grid = QuadratureConfig(0.05, 20.0)
    first = em.on_grid(grid)
    y[0] = 100.0  # the caller's array is not the sample
    assert em.sample[0] == 0.5
    assert em.on_grid(grid) is first
    assert np.array_equal(first, empirical_mellin_on_grid(EmpiricalMellin(1.0, [0.5, 1.0, 2.0, 4.0]), grid))
    # a grid of another step or size gets its own transform
    assert em.on_grid(QuadratureConfig(0.05, 10.0)).shape == (401,)
    with pytest.raises(ValueError):
        em.sample[1] = 3.0
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_empirical_validation():
    with pytest.raises(ValueError):
        EmpiricalMellin(1.0, np.array([]))
    with pytest.raises(ValueError):
        EmpiricalMellin(1.0, np.array([1.0, -2.0]))


# ---------------------------------------------------------------------- #
# catalog transforms vs the brute-force oracle
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", CATALOG_IDS)
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_catalog_matches_quadrature(name, c):
    mf = catalog_mellin(name, c)
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert mf(t) == pytest.approx(mellin_quad_oracle(name, c, t), abs=1e-6)


def test_catalog_point_examples():
    assert catalog_mellin("noise_uniform", 1.0)(0.0) == pytest.approx(1.0)
    assert catalog_mellin("gamma5", 1.0)(0.0) == pytest.approx(1.0)
    assert catalog_mellin("noise_beta", 1.0)(2.0) == pytest.approx(0.5 - 0.5j)
    assert catalog_mellin("lognormal", 1.0)(1.0) == pytest.approx(np.exp(-0.02))
    # removable singularity of the uniform noise at c + it = 0
    assert catalog_mellin("noise_uniform", 0.0)(0.0) == pytest.approx(np.log(3.0))


def test_catalog_domain_errors():
    with pytest.raises(MellinError):
        catalog_mellin("loggamma", 6.0)
    with pytest.raises(MellinError):
        catalog_mellin("beta25", -1.0)
    with pytest.raises(MellinError):
        catalog_mellin("nope", 1.0)


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_catalog_refuses_c_outside_its_interval(name):
    # NaN, the interval's ends and beyond are refused, naming id and interval
    lo, hi = CATALOG[name].c_range
    outside = [np.nan] + [v for v in (lo, lo - 1.0, hi, hi + 1.0) if np.isfinite(v)]
    for c in outside:
        with pytest.raises(MellinError, match=rf"{name} transform requires c in \({lo}, {hi}\)"):
            catalog_mellin(name, c)


@pytest.mark.parametrize("name", CATALOG_IDS)
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_catalog_hermitian_symmetry(name, c):
    mf = catalog_mellin(name, c)
    t = np.linspace(0.0, 40.0, 401)
    assert np.array_equal(mf(-t), np.conj(mf(t)))


def test_catalog_objects_are_fresh_and_certified_once(monkeypatch):
    # perfbench's tracer rewraps each returned object's eval_fn, so a shared
    # object would collect one wrapper per call; the decay probe is cached
    probes = []

    def counted(*args, **kwargs):
        probes.append(1)
        return probe_minimum(*args, **kwargs)

    monkeypatch.setattr(mellin, "probe_minimum", counted)
    mellin._decay_upper.cache_clear()
    first = catalog_mellin("noise_beta", 0.25)
    second = catalog_mellin("noise_beta", 0.25)
    assert first is not second
    assert (first.decay_exponent, first.decay_upper) == (second.decay_exponent, second.decay_upper)
    assert len(probes) == 1
    catalog_mellin("noise_beta", 0.5)
    assert len(probes) == 2


def test_decay_certificates():
    # uniform noise at c=1 decays exactly at rate 1 with constants in [1, 2]
    mf = catalog_mellin("noise_uniform", 1.0)
    t = np.linspace(1.0, 1e3, 20000)
    ratio = np.abs(mf(t)) * np.sqrt(1.0 + t * t)
    assert ratio.min() > 0.99 and ratio.max() < 2.01
    assert mf.decay_exponent == 1.0
    # the linear-beta noise decays at rate 1 as well (its closed form is a
    # first-order pole), even though rate 2 is sometimes quoted for it
    assert catalog_mellin("noise_beta", 1.0).decay_exponent == 1.0
    # at c=0 the uniform transform has zeros: no two-sided certificate
    assert catalog_mellin("noise_uniform", 0.0).decay_exponent is None


# ---------------------------------------------------------------------- #
# inversion
# ---------------------------------------------------------------------- #


def test_inverse_zero_is_zero():
    q = QuadratureConfig(0.01, 50.0)
    out = inverse_mellin(lambda t: np.zeros_like(t, dtype=complex), 1.0,
                         default_x_grid(points=32), q)
    assert np.all(out.values == 0.0)


def test_inverse_gamma5_point_value():
    q = QuadratureConfig(0.01, 60.0)
    out = inverse_mellin(catalog_mellin("gamma5", 1.0), 1.0, np.array([4.0]), q)
    assert out.values[0] == pytest.approx(4.0**4 * np.exp(-4.0) / 24.0, abs=1e-8)


def test_inverse_noise_beta_point_value():
    q = QuadratureConfig(0.01, 40000.0)
    out = inverse_mellin(catalog_mellin("noise_beta", 1.0), 1.0, np.array([0.5]), q)
    assert out.values[0] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("name", ["beta25", "loggamma", "gamma5", "lognormal"])
def test_round_trip_smooth_densities(name):
    c = 1.0
    q = QuadratureConfig(0.01, 250.0)
    spec = density_spec(name)
    x = default_x_grid(0.02, 25.0, 64)
    out = inverse_mellin(catalog_mellin(name, c), c, x, q)
    truth = density_eval(spec, x)
    assert np.max(np.abs(out.values - truth)) < 1e-4


@pytest.mark.parametrize(
    "name,jumps", [("noise_uniform", (0.5, 1.5)), ("noise_beta", (1.0,))]
)
def test_round_trip_jump_densities(name, jumps):
    # coarse grid, points within two spacings of a jump excluded: partial
    # frequency sums oscillate there by construction, not by defect
    c = 1.0
    q = QuadratureConfig(0.01, 40000.0)
    x = default_x_grid(0.05, 4.0, 32)
    spacing = np.log(x[1] / x[0])
    keep = np.ones_like(x, dtype=bool)
    for j in jumps:
        keep &= np.abs(np.log(x / j)) > 2.0 * spacing
    out = inverse_mellin(catalog_mellin(name, c), c, x, q)
    truth = density_eval(density_spec(name), x)
    assert np.max(np.abs(out.values - truth)[keep]) < 1e-4


def test_inverse_rejects_asymmetric_transform():
    q = QuadratureConfig(0.01, 30.0)
    shifted = lambda t: 1.0 / (1.0 + (t - 3.0) ** 2) + 0.0j
    with pytest.raises(HermitianSymmetryError):
        inverse_mellin(shifted, 1.0, default_x_grid(points=16), q)


def test_inverse_rejects_nonfinite():
    q = QuadratureConfig(0.01, 30.0)
    bad = lambda t: np.where(np.abs(t) < 1.0, np.inf, 0.0) + 0.0j
    with pytest.raises(MellinError):
        inverse_mellin(bad, 1.0, default_x_grid(points=16), q)


def test_checked_real_part_rejects_non_finite_rows():
    # NaN fails every comparison, so a residue test alone lets it through
    with pytest.raises(MellinError, match="not finite"):
        checked_real_part(np.array([np.nan + 1j * np.nan, 1.0 + 0.0j]))
    with pytest.raises(MellinError, match="not finite"):
        checked_real_part(np.array([[1.0 + 0.0j, 2.0 + 0.0j], [np.inf + 0.0j, 0.0j]]))
    assert np.array_equal(checked_real_part(np.array([1.0 + 1e-12j, 2.0 + 0.0j])), [1.0, 2.0])


def test_checked_real_part_owns_its_values():
    # a view of .real would keep the whole complex inversion output alive
    q = QuadratureConfig(0.01, 30.0)
    x = default_x_grid(points=16)
    product = catalog_mellin("gamma5", 1.0)(q.t)
    for values in (product, 2.0 * product):
        raw = InversionPlan(q, 1.0, x)(values)
        re = checked_real_part(raw)
        assert re.flags.owndata
        assert np.array_equal(re, raw.real)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_inversion_refuses_a_bad_x_grid_up_front(bad):
    q = QuadratureConfig(0.01, 30.0)
    x = np.array([0.5, bad, 2.0])
    with pytest.raises(MellinError, match="x_grid"):
        InversionPlan(q, 1.0, x)


def _random_products(rng, grid, rows, hermitian):
    shape = (rows, grid.half_size + 1 if hermitian else len(grid))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not hermitian:
        return values
    values[:, 0] = values[:, 0].real
    return np.stack([mirror(half) for half in values])


def _x_grid(kind: str, points: int, rng) -> np.ndarray:
    if kind == "geomspace":
        return np.geomspace(0.01, 30.0, points)
    if kind == "linspace":
        return np.linspace(0.01, 30.0, points)
    if kind == "random":
        return np.sort(rng.uniform(1e-3, 50.0, points))
    return np.geomspace(1e-8, 1e8, points)


@settings(max_examples=60, deadline=None)
@given(
    hermitian=st.booleans(),
    rows=st.integers(min_value=1, max_value=4),
    support_share=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    grid_pair=st.sampled_from(_NUFFT_GRIDS),
    c=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    kind=st.sampled_from(["geomspace", "linspace", "random", "wide"]),
    points=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inversion_matches_rotator_oracle(
    hermitian, rows, support_share, grid_pair, c, kind, points, seed
):
    # random products, conjugate-symmetric or lopsided, inverted over the
    # whole grid or a cut-off window; error measured against the l1 bound
    rng = np.random.default_rng(seed)
    grid = QuadratureConfig(*grid_pair)
    values = _random_products(rng, grid, rows, hermitian)
    support = None if support_share is None else support_share * grid.half_size * grid.t_step
    j = grid.half_size if support is None else grid.window_index(support)
    window = np.abs(values[:, grid.center - j : grid.center + j + 1]).sum(axis=-1)
    x = _x_grid(kind, points, rng)
    bound = 1e-12 * grid.t_step / (2.0 * np.pi) * window[:, None] * x ** (-c)

    plan = InversionPlan(grid, c, x, support)
    fast = np.stack([plan(row) for row in values])
    ref = rotator_invert_grid_values(grid, values, c, x, support)
    assert fast.shape == ref.shape == (rows, x.size)
    assert np.all(np.abs(fast - ref) <= bound)
    for row in range(rows):
        single = InversionPlan(grid, c, x, support)(values[row])
        assert single.shape == x.shape
        assert np.all(np.abs(fast[row] - single) <= bound[row])
        # a product given on the window's 2j+1 nodes alone inverts bit for bit alike
        assert plan(values[row, grid.window_nodes(j)]).tobytes() == fast[row].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    hermitian=st.booleans(),
    rows=st.integers(min_value=1, max_value=4),
    # share 0 is the one-node window j = 0, whose two end weights both fall on t = 0
    support_share=st.one_of(st.none(), st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    grid_pair=st.sampled_from(_NUFFT_GRIDS),
    c=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    kind=st.sampled_from(["geomspace", "linspace", "random", "wide"]),
    points=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_half_spectrum_plan_matches_complex_fft_oracle(
    hermitian, rows, support_share, grid_pair, c, kind, points, seed
):
    # the plan's real FFTs of the t >= 0 half against one complex FFT of the
    # whole spectrum, on conjugate-symmetric and lopsided products
    rng = np.random.default_rng(seed)
    grid = QuadratureConfig(*grid_pair)
    values = _random_products(rng, grid, rows, hermitian)
    support = None if support_share is None else support_share * grid.half_size * grid.t_step
    j = grid.half_size if support is None else grid.window_index(support)
    window = np.abs(values[:, grid.center - j : grid.center + j + 1]).sum(axis=-1)
    x = _x_grid(kind, points, rng)
    bound = 1e-12 * grid.t_step / (2.0 * np.pi) * window[:, None] * x ** (-c)

    plan = InversionPlan(grid, c, x, support)
    out = np.stack([plan(row) for row in values])
    ref = complex_fft_invert_grid_values(grid, values, c, x, support)
    assert out.shape == ref.shape == (rows, x.size)
    deviation = np.abs(out - ref)
    target(float((deviation / bound).max()), label="deviation / bound")
    assert np.all(deviation <= bound)
    if hermitian:
        assert np.all(out.imag == 0.0)
    # the reused buffers carry nothing from one call to the next
    assert plan(values[0]).tobytes() == out[0].tobytes()


@pytest.mark.parametrize("length", [30_008, 30_011, 29_999, 1_000, 1_002])
@pytest.mark.parametrize("rows", [None, 1, 3])
def test_inversion_refuses_a_product_off_the_grid(length, rows):
    # longer (30 011: a product from t_max = 150.05), shorter, single or
    # stacked; a plan on the window of k = 5 also takes its 1 001 nodes, but
    # not one node more or less
    q = QuadratureConfig()
    shape = (length,) if rows is None else (rows, length)
    for support in (None, 5.0):
        plan = InversionPlan(q, 1.0, default_x_grid(points=16), support)
        with pytest.raises(MellinError, match=re.escape(f"shape {shape}") + f".*of {len(q)} values"):
            plan(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("shape", [(), (1, 30_001), (3, 30_001)])
def test_inversion_refuses_a_stack_of_products_on_the_grid(shape):
    # one product per call: a stack is inverted row by row by the caller
    q = QuadratureConfig()
    plan = InversionPlan(q, 1.0, default_x_grid(points=16))
    assert plan(np.ones(len(q), dtype=complex)).shape == (16,)
    with pytest.raises(MellinError, match=re.escape(f"shape {shape}") + f".*of {len(q)} values"):
        plan(np.ones(shape, dtype=complex))


def test_zero_probe_finds_a_zero_between_nodes():
    # the grid sees |t - 0.123456| >= 0.023 only; polishing the dip finds the zero
    fn = lambda t: np.abs(t - 0.123456)
    t = np.arange(0.0, 1.05, 0.1)
    low, at = probe_minimum(fn, t, fn(t), trigger=0.05)
    assert low < 1e-12 and at == pytest.approx(0.123456, abs=1e-9)
    # a dip above the trigger is left at its grid value
    low, at = probe_minimum(fn, t, fn(t), trigger=0.01)
    assert (low, at) == (fn(0.1), 0.1)


# ---------------------------------------------------------------------- #
# Plancherel identities
# ---------------------------------------------------------------------- #


def test_plancherel_zero():
    q = QuadratureConfig(0.01, 50.0)
    assert plancherel_norm_sq(lambda t: np.zeros_like(t, dtype=complex), q) == 0.0


def test_plancherel_noise_beta_arctan_limit():
    # (2 pi)^-1 int 4/(4+t^2) dt -> 1; truncation at 1e4 leaves ~1.3e-4
    q = QuadratureConfig(0.01, 10000.0)
    val = plancherel_norm_sq(catalog_mellin("noise_beta", 1.0), q)
    exact = 1.0 - 4.0 / (np.pi * 1e4)
    assert val == pytest.approx(exact, abs=2e-6)
    assert val == pytest.approx(1.0, abs=2e-4)


def test_plancherel_lognormal_two_routes():
    q = QuadratureConfig(0.01, 60.0)
    mellin_side = plancherel_norm_sq(catalog_mellin("lognormal", 1.0), q)
    x_side = norm_sq_quad_oracle("lognormal", 1.0)
    assert mellin_side == pytest.approx(x_side, rel=1e-4)


@pytest.mark.parametrize("name", CATALOG_IDS)
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_plancherel_consistency_all_catalog(name, c):
    if name == "noise_uniform" and c == 0.0:
        t_max = 3.0e4  # 1/t tail with zeros: push the window further out
    else:
        t_max = 1.5e4
    q = QuadratureConfig(0.02, t_max)
    mellin_side = plancherel_norm_sq(catalog_mellin(name, c), q)
    x_side = norm_sq_quad_oracle(name, c)
    assert mellin_side == pytest.approx(x_side, rel=1e-3)


# ---------------------------------------------------------------------- #
# convolution identity of the transform
# ---------------------------------------------------------------------- #


def test_transform_of_numeric_convolution_factorises():
    # density of X*U for X ~ gamma5, U ~ noise_beta, by direct integration,
    # then a plain quadrature transform of it; must match the product of the
    # closed forms
    y = np.geomspace(1e-3, 60.0, 4000)
    u = np.linspace(1e-7, 1.0, 3000)
    f = lambda x: x**4 * np.exp(-x) / 24.0
    conv = np.array([2.0 * np.trapezoid(f(yy / u), u) for yy in y])
    ts = np.linspace(-20.0, 20.0, 41)
    mf = catalog_mellin("gamma5", 1.0)
    mg = catalog_mellin("noise_beta", 1.0)
    for t in ts:
        lhs = np.trapezoid(conv * y ** (1j * t), y)
        assert abs(lhs - mf(t) * mg(t)) < 1e-3


# ---------------------------------------------------------------------- #
# weighted distances
# ---------------------------------------------------------------------- #


def test_distance_zero_for_equal():
    x = default_x_grid(points=64)
    a = WeightedFunction(x, np.sin(x), 1.0)
    assert weighted_l2_dist_sq(a, a) == 0.0


def test_distance_gamma5_vs_zero():
    # int f^2 x dx = Gamma(10) / (2^10 Gamma(5)^2) = 0.615234375; the window
    # [0.01, 30] leaves that unchanged to 7 digits
    oracle, _ = quad(lambda x: (x**4 * np.exp(-x) / 24.0) ** 2 * x, 0.01, 30.0,
                     limit=200)
    assert oracle == pytest.approx(362880.0 / 1024.0 / 576.0, rel=1e-7)
    x = default_x_grid()
    a = WeightedFunction(x, density_eval(density_spec("gamma5"), x), 1.0)
    b = WeightedFunction(x, np.zeros_like(x), 1.0)
    assert weighted_l2_dist_sq(a, b) == pytest.approx(oracle, rel=1e-3)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=8.0))
def test_distance_scales_quadratically(lam):
    x = default_x_grid(points=48)
    va = np.exp(-x)
    vb = np.sin(x) / (1.0 + x)
    a, b = WeightedFunction(x, va, 1.0), WeightedFunction(x, vb, 1.0)
    sa, sb = WeightedFunction(x, lam * va, 1.0), WeightedFunction(x, lam * vb, 1.0)
    assert weighted_l2_dist_sq(sa, sb) == pytest.approx(
        lam * lam * weighted_l2_dist_sq(a, b), rel=1e-12
    )


def test_distance_grid_mismatch():
    x = default_x_grid(points=32)
    a = WeightedFunction(x, np.exp(-x), 1.0)
    b = WeightedFunction(x * 1.5, np.exp(-x), 1.0)
    with pytest.raises(ValueError):
        weighted_l2_dist_sq(a, b)
    c = WeightedFunction(x, np.exp(-x), 0.5)
    with pytest.raises(ValueError):
        weighted_l2_dist_sq(a, c)
