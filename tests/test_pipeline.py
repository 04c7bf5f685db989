"""The estimation pipeline: equivalence with the three-step form, input
checks, and property tests over awkward samples and grids."""

import re
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mellin_deconv import (
    CutoffSpec,
    EmpiricalMellin,
    EmptyAdmissibleSetError,
    ExperimentConfig,
    MellinError,
    MellinFunction,
    NoiseTransformZeroError,
    Pipeline,
    QuadratureConfig,
    RidgeSpec,
    RngStream,
    SelectionConfig,
    catalog_mellin,
    cutoff_multiplier,
    default_x_grid,
    density_spec,
    estimate_density,
    mellin,
    ridge_multiplier,
    run_mise_pair,
    sample,
    select_cutoff,
    select_ridge,
    selection,
    stream_id_for,
    table1_selection_config,
)

Q = QuadratureConfig()
#: a short window keeps the property tests cheap; every path is the same
Q_SHORT = QuadratureConfig(t_step=0.02, t_max=40.0)
TYPED_ERRORS = (MellinError, EmptyAdmissibleSetError)


@lru_cache(maxsize=None)
def _noise(name, c):
    return catalog_mellin(name, c)


def _draw(target, error, n, rep=0):
    key = ("pipe", target, error, n, rep)
    x = sample(density_spec(target), n, RngStream(11, stream_id_for("x", *key)))
    u = sample(density_spec(error), n, RngStream(11, stream_id_for("u", *key)))
    return x * u


# ---------------------------------------------------------------------- #
# one pipeline, same answers as select -> multiplier -> estimate_density
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("error", ["noise_uniform", "noise_beta"])
@pytest.mark.parametrize("method", ["ridge", "cutoff"])
def test_fit_matches_three_step_estimate(method, error, n):
    em = EmpiricalMellin(1.0, _draw("gamma5", error, n))
    g = _noise(error, 1.0)
    cfg = table1_selection_config(error)
    x = default_x_grid()
    pipeline = Pipeline(g, cfg, Q, x)
    result, est = pipeline.fit(method, em)

    if method == "ridge":
        ref_result = select_ridge(em, g, cfg, Q)
        spec = RidgeSpec(k=float(ref_result.k_hat), c=1.0, xi=cfg.xi, r=cfg.r)
        mult = ridge_multiplier(spec, g)
    else:
        ref_result = select_cutoff(em, g, cfg, Q)
        mult = cutoff_multiplier(CutoffSpec(k=float(ref_result.k_hat), c=1.0), g, Q)
    ref = estimate_density(mult, em, x, Q)

    assert result == ref_result
    scale = np.abs(ref.values).max()
    assert np.abs(est.values - ref.values).max() <= 1e-12 * scale
    assert np.array_equal(est.x_grid, ref.x_grid)
    # estimate_density builds its product on the grid of Q
    assert np.array_equal(pipeline.q.t, Q.t)


@pytest.mark.parametrize("k", [2, 25])
@pytest.mark.parametrize("method", ["ridge", "cutoff"])
def test_estimate_matches_the_three_step_form_at_a_fixed_level(method, k):
    # no admissibility cap: at n = 200 the ridge levels end at 4 and the
    # cut-off ones at 16; the ridge estimate builds no bank
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_uniform", 200))
    g, cfg, x = _noise("noise_uniform", 1.0), table1_selection_config("noise_uniform"), default_x_grid()
    pipeline = Pipeline(g, cfg, Q, x)
    est = pipeline.estimate(method, em, k)
    if method == "ridge":
        mult = ridge_multiplier(RidgeSpec(k=float(k), c=1.0, xi=cfg.xi, r=cfg.r), g)
    else:
        mult = cutoff_multiplier(CutoffSpec(k=float(k), c=1.0), g, Q)
    ref = estimate_density(mult, em, x, Q)
    assert np.abs(est.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()
    assert np.array_equal(est.x_grid, x) and est.c == 1.0
    assert pipeline._banks == {}


def test_estimate_probes_only_past_the_widest_checked_window(monkeypatch):
    # a cut-off selection probes its largest admissible window, so a fit
    # probes once; a fixed level probes again only past the widest checked
    probes = []
    check = selection.check_nonvanishing

    def counted(g, edge, t_step):
        probes.append(edge)
        check(g, edge, t_step)

    monkeypatch.setattr(selection, "check_nonvanishing", counted)
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_beta", 2000))
    pipeline = Pipeline(_noise("noise_beta", 1.0), table1_selection_config("noise_beta"), Q,
                        default_x_grid())
    pipeline.fit("cutoff", em)
    bank = pipeline.bank("cutoff")
    widest = int(bank.k_values[bank.admissible(em.n) - 1])
    assert probes == [pytest.approx(widest)]
    for k in (1, widest):
        pipeline.estimate("cutoff", em, k)
    assert len(probes) == 1
    pipeline.estimate("cutoff", em, widest + 5)
    pipeline.estimate("cutoff", em, widest + 2)
    pipeline.fit("cutoff", EmpiricalMellin(1.0, _draw("gamma5", "noise_beta", 500)))
    assert probes == [pytest.approx(widest), pytest.approx(widest + 5)]


def test_estimate_refuses_a_window_across_a_zero_and_bad_levels():
    # uniform noise at c = 0 vanishes near t = 5.72: the cut-off estimate at
    # k = 6 is refused, the ridge estimate is not
    em = EmpiricalMellin(0.0, _draw("gamma5", "noise_uniform", 500))
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=5.0, c=0.0)
    pipeline = Pipeline(_noise("noise_uniform", 0.0), cfg, Q, default_x_grid())
    with pytest.raises(NoiseTransformZeroError):
        pipeline.estimate("cutoff", em, 6)
    assert np.all(np.isfinite(pipeline.estimate("ridge", em, 6).values))
    for k in (0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            pipeline.estimate("ridge", em, k)
    with pytest.raises(ValueError, match="'magic'"):
        pipeline.estimate("magic", em, 1)
    with pytest.raises(MellinError, match="development point mismatch"):
        pipeline.estimate("ridge", EmpiricalMellin(1.0, em.sample), 1)


def _three_step(method, em, noise, q=Q):
    """select -> multiplier -> estimate_density on one sample and one noise
    transform, as in the README quick tour."""
    g = catalog_mellin(noise, em.c)
    cfg = table1_selection_config(noise, em.c)
    if method == "ridge":
        result = select_ridge(em, g, cfg, q)
        mult = ridge_multiplier(RidgeSpec(k=float(result.k_hat), c=em.c, xi=cfg.xi, r=cfg.r), g)
    else:
        result = select_cutoff(em, g, cfg, q)
        mult = cutoff_multiplier(CutoffSpec(k=float(result.k_hat), c=em.c), g, q)
    return result, estimate_density(mult, em, default_x_grid(), q)


def _count_spreads(monkeypatch) -> list:
    """The grids of every empirical transform computed from now on."""
    spreads = []
    spread = mellin.empirical_mellin_on_grid

    def counted(em, grid):
        spreads.append(grid)
        return spread(em, grid)

    monkeypatch.setattr(mellin, "empirical_mellin_on_grid", counted)
    return spreads


@pytest.mark.parametrize("form", ["ridge", "cutoff", "fit both", "mise pair"])
def test_three_step_spreads_the_sample_once(form, monkeypatch):
    # the three-step form, a pipeline fitting both methods to one sample and
    # each replication of a paired Monte-Carlo run all read the sample's memo
    spreads = _count_spreads(monkeypatch)
    if form == "mise pair":
        cfg = ExperimentConfig(target="gamma5", error="noise_uniform", n=500, c=1.0,
                               method="ridge", selection=table1_selection_config("noise_uniform"),
                               replications=3, seed=5, quadrature=Q)
        reports = run_mise_pair(cfg)
        assert spreads == [Q] * cfg.replications
        assert all(np.isfinite(r.mise) for r in reports.values())
        return
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_uniform", 2000))
    if form == "fit both":
        pipeline = Pipeline(_noise("noise_uniform", 1.0), table1_selection_config("noise_uniform"),
                            Q, default_x_grid())
        estimates = [pipeline.fit(method, em)[1] for method in ("ridge", "cutoff")]
    else:
        estimates = [_three_step(form, em, "noise_uniform")[1]]
    assert spreads == [Q]
    assert all(np.all(np.isfinite(est.values)) for est in estimates)


@pytest.mark.parametrize("n", [500, 2000, 10_000])
def test_three_step_ridge_request_peak_memory(n):
    # the largest stages (the noise table, the ridge bank over it and the
    # inversion's FFT grid) peak near 3.2 MB; the one-shot spread alone
    # took 11 MB at n = 10 000
    y = _draw("gamma5", "noise_uniform", n)
    _three_step("ridge", EmpiricalMellin(1.0, y), "noise_uniform", QuadratureConfig())
    tracemalloc.start()
    try:
        _three_step("ridge", EmpiricalMellin(1.0, y), "noise_uniform", QuadratureConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_500_000


@pytest.mark.parametrize("method", ["ridge", "cutoff"])
def test_second_inversion_reuses_the_pipeline_plan(method):
    # the full-grid plan holds the FFT buffers: inverting again in the same
    # pipeline allocates none of FFT size; each inversion, a cut-off one on
    # its own plan included, gives a fresh pipeline's bytes
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_beta", 2000))
    g, cfg, x = _noise("noise_beta", 1.0), table1_selection_config("noise_beta"), default_x_grid()
    pipeline = Pipeline(g, cfg, Q, x)
    result, est = pipeline.fit(method, em)
    product = pipeline.multiplier(method, result.k_hat)
    product *= pipeline.transform(em)
    support = float(result.k_hat) if method == "cutoff" else None
    tracemalloc.start()
    try:
        again = pipeline.invert(product, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if method == "ridge":  # 65 536 FFT nodes; a cut-off window's grid is smaller than the gather
        assert peak < 8 * 65_536
    assert again.tobytes() == est.values.tobytes()
    assert again.tobytes() == Pipeline(g, cfg, Q, x).invert(product, support).tobytes()


def test_caller_array_changes_do_not_reach_the_estimate():
    y = _draw("gamma5", "noise_beta", 500)
    em = EmpiricalMellin(1.0, y)
    kept = em.sample.copy()
    before = _three_step("ridge", em, "noise_beta")
    y *= 3.0
    after = _three_step("ridge", em, "noise_beta")
    assert np.array_equal(em.sample, kept)
    assert before[0] == after[0]
    assert before[1].values.tobytes() == after[1].values.tobytes()


def _count_bank_builds(monkeypatch) -> list:
    """The methods of the banks built from now on, in build order."""
    built = []

    class CountedRidgeBank(selection.RidgeBank):
        def __init__(self, *args):
            built.append("ridge")
            super().__init__(*args)

    class CountedCutoffBank(selection.CutoffBank):
        def __init__(self, *args):
            built.append("cutoff")
            super().__init__(*args)

    monkeypatch.setattr(selection, "RidgeBank", CountedRidgeBank)
    monkeypatch.setattr(selection, "CutoffBank", CountedCutoffBank)
    return built


def test_banks_are_built_on_first_use(monkeypatch):
    # uniform noise at c = 0 has a zero near t = 5.72: the cut-off window
    # past it is refused, while the ridge rule never needs the cut-off bank
    built = _count_bank_builds(monkeypatch)
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=5.0, c=0.0, k_grid=(1, 2, 6))
    y = _draw("gamma5", "noise_uniform", 2000)
    pipeline = Pipeline(_noise("noise_uniform", 0.0), cfg, Q, default_x_grid())
    result, est = pipeline.fit("ridge", EmpiricalMellin(0.0, y))
    assert np.all(np.isfinite(est.values))
    assert built == ["ridge"]
    bank = pipeline.bank("cutoff")
    with pytest.raises(NoiseTransformZeroError):
        pipeline.multiplier("cutoff", bank.k_values[bank.admissible(10**9) - 1])
    assert built == ["ridge", "cutoff"]
    pipeline.fit("cutoff", EmpiricalMellin(0.0, y))
    pipeline.fit("cutoff", EmpiricalMellin(0.0, y))
    assert built == ["ridge", "cutoff"]  # one build, reused at every size


def test_noise_transform_is_tabulated_once_per_pipeline():
    # both banks at two sample sizes come from one evaluation of M_g on the
    # grid; only the cut-off zero probe evaluates it elsewhere
    g = _noise("noise_uniform", 1.0)
    on_grid = []

    def counted(t):
        on_grid.append(np.array_equal(t, Q.t))
        return g.eval_fn(t)

    counting = MellinFunction(g.c, counted, g.decay_exponent, g.decay_upper)
    pipeline = Pipeline(counting, table1_selection_config("noise_uniform"), Q, default_x_grid())
    for n in (500, 2000):
        em = EmpiricalMellin(1.0, _draw("gamma5", "noise_uniform", n))
        for method in ("ridge", "cutoff"):
            result, est = pipeline.fit(method, em)
            assert result == Pipeline(g, pipeline.cfg, Q, pipeline.x_grid).fit(method, em)[0]
    assert on_grid.count(True) == 1


@pytest.mark.parametrize("noise", ["noise_uniform", "noise_beta"])
def test_one_bank_per_method_serves_every_sample_size(noise, monkeypatch):
    # the levels and their norms do not depend on n: fits at five sizes build
    # each bank once, and each fit is bitwise a fresh pipeline's; `release`
    # drops the node-sized arrays between sizes
    g, cfg, x = _noise(noise, 1.0), table1_selection_config(noise), default_x_grid()
    ems = [EmpiricalMellin(1.0, _draw("gamma5", noise, n)) for n in (500, 2000, 10_000, 777, 500)]
    fresh = [_fit_outcome(Pipeline(g, cfg, Q, x), m, em) for em in ems for m in ("ridge", "cutoff")]
    built = _count_bank_builds(monkeypatch)
    pipeline = Pipeline(g, cfg, Q, x)
    shared = []
    for i, em in enumerate(ems):
        shared += [_fit_outcome(pipeline, m, em) for m in ("ridge", "cutoff")]
        if i == 2:
            pipeline.release()
            assert not any(name in vars(b) for b in pipeline._banks.values()
                           for name in b._NODE_ARRAYS)
    assert built == ["ridge", "cutoff"]
    assert shared == fresh


def test_release_trims_a_pipeline_to_its_tables():
    # kept between scenarios, a released pipeline holds 1/M_g, kappa, the
    # level data and the full-grid plan's constants, and fits as before
    g, cfg, x = _noise("noise_beta", 1.0), table1_selection_config("noise_beta"), default_x_grid()
    ems = [EmpiricalMellin(1.0, _draw("gamma5", "noise_beta", n)) for n in (500, 2000)]
    fresh = [_fit_outcome(Pipeline(g, cfg, Q, x), m, em) for em in ems for m in ("ridge", "cutoff")]
    tracemalloc.start()
    try:
        pipeline = Pipeline(g, cfg, Q, x)
        for em in ems:
            for method in ("ridge", "cutoff"):
                pipeline.fit(method, em)
        pipeline.release()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1_600_000
    assert [_fit_outcome(pipeline, m, em) for em in ems for m in ("ridge", "cutoff")] == fresh


def _fit_outcome(pipeline, method, em):
    """k_hat, diagnostics and density bytes of a fit, or its typed error."""
    try:
        result, est = pipeline.fit(method, em)
    except TYPED_ERRORS as exc:
        return type(exc), str(exc)
    return result, est.values.tobytes()


#: on this step no node sits close to the zero of uniform noise at c = 0
#: (t = 2 pi / log 3), so the admissible cut-off windows reach it from n of about 1900
Q_COARSE = QuadratureConfig(t_step=0.05, t_max=40.0)


@pytest.mark.parametrize(
    "noise, c, q",
    [("noise_uniform", 1.0, Q), ("noise_beta", 1.0, Q), ("noise_uniform", 0.0, Q),
     ("noise_uniform", 0.0, Q_COARSE)],
)
def test_one_pipeline_across_sample_sizes_matches_fresh_ones(noise, c, q):
    # n only picks the banks' admissible prefix: a pipeline reused across
    # sizes, and back to an earlier one, is bitwise a fresh one
    cfg = table1_selection_config(noise, c)
    x = default_x_grid()
    shared = Pipeline(_noise(noise, c), cfg, q, x)
    outcomes = {}
    for n in (1, 500, 2000, 10_000, 500):
        em = EmpiricalMellin(c, _draw("gamma5", noise, n))
        for method in ("ridge", "cutoff"):
            got = _fit_outcome(shared, method, em)
            assert got == _fit_outcome(Pipeline(_noise(noise, c), cfg, q, x), method, em)
            outcomes[method, n] = got[0]
    assert outcomes["ridge", 1] is EmptyAdmissibleSetError
    if q is Q_COARSE:
        # the cut-off windows of the larger samples hold the zero; ridge fits
        assert outcomes["cutoff", 2000] is outcomes["cutoff", 10_000] is NoiseTransformZeroError
        assert outcomes["ridge", 10_000].k_hat >= 1
    else:
        assert all(outcomes[m, n].k_hat >= 1 for m in ("ridge", "cutoff") for n in (500, 2000, 10_000))


# ---------------------------------------------------------------------- #
# input checks
# ---------------------------------------------------------------------- #


def test_development_point_mismatch_is_refused():
    y = _draw("gamma5", "noise_beta", 300)
    g = _noise("noise_beta", 1.0)
    cfg = table1_selection_config("noise_beta")
    with pytest.raises(MellinError):
        select_ridge(EmpiricalMellin(0.5, y), g, cfg, Q)
    with pytest.raises(MellinError):
        select_cutoff(EmpiricalMellin(0.5, y), g, cfg, Q)
    off = SelectionConfig(chi1=1.0, chi2=1.0, chi=1.0, c=7.0)
    with pytest.raises(MellinError):
        select_ridge(EmpiricalMellin(1.0, y), g, off, Q)
    with pytest.raises(MellinError):
        Pipeline(g, off, Q, default_x_grid())


@pytest.mark.parametrize("x, shape", [(np.array([]), "(0,)"), (np.ones((2, 3)), "(2, 3)"),
                                      (2.0, "()")])
def test_malformed_x_grid_is_refused_at_construction(x, shape):
    # an empty grid used to run selection and then fail in numpy's reduction,
    # a 2-D one with a broadcast error
    g, cfg = _noise("noise_beta", 1.0), table1_selection_config("noise_beta")
    for build in (lambda: Pipeline(g, cfg, Q, x), lambda: mellin.InversionPlan(Q, 1.0, x)):
        with pytest.raises(MellinError, match=re.escape(f"nonempty 1-D array, got shape {shape}")):
            build()


def test_non_finite_moment_weights_are_refused():
    # at c = 0, sigma_hat = mean(Y^-2) overflows for a sample scaled by 1e-160
    y = 1e-160 * _draw("gamma5", "noise_beta", 200)
    em = EmpiricalMellin(0.0, y)
    g = _noise("noise_beta", 0.0)
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=3.0, c=0.0)
    pipeline = Pipeline(g, cfg, Q, default_x_grid())
    for method in ("ridge", "cutoff"):
        with pytest.raises(MellinError):
            pipeline.fit(method, em)
    with pytest.raises(MellinError):
        select_ridge(em, g, cfg, Q)


def test_non_finite_noise_transform_is_refused():
    # a noise transform that is NaN at one node (t = 3) is refused by name
    # before any bank is built: it used to select k_hat = 1 from all-NaN
    # objectives (ridge) or fail the Hermitian check after inversion (cut-off)
    g = _noise("noise_uniform", 1.0)
    nan_at_3 = MellinFunction(1.0, lambda t: np.where(np.abs(t - 3.0) < 1e-9, np.nan, g(t)))
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_uniform", 500))
    cfg = table1_selection_config("noise_uniform")
    for method in ("ridge", "cutoff"):
        for call in ("select", "fit"):
            pipeline = Pipeline(nan_at_3, cfg, Q, default_x_grid())
            with pytest.raises(MellinError, match="non-finite values on the grid"):
                getattr(pipeline, call)(method, em)


def test_unknown_method_is_refused():
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_beta", 100))
    pipeline = Pipeline(
        _noise("noise_beta", 1.0), table1_selection_config("noise_beta"), Q, default_x_grid()
    )
    for call in (lambda m: pipeline.fit(m, em), lambda m: pipeline.select(m, em), pipeline.bank):
        with pytest.raises(ValueError, match="'magic'"):
            call("magic")


def test_pipelines_share_the_sample_transform_of_their_nodes(monkeypatch):
    # the memo is keyed by the grid's nodes: a t_max rounding to the same
    # outermost node reuses the sample's transform, one node more computes
    # its own, and a pipeline at another c refuses the sample instead of
    # selecting from its transform
    spreads = _count_spreads(monkeypatch)
    em = EmpiricalMellin(1.0, _draw("gamma5", "noise_uniform", 500))
    cfg = table1_selection_config("noise_uniform")
    x = default_x_grid()
    same = Pipeline(_noise("noise_uniform", 1.0), cfg, Q, x)
    fitted = same.fit("ridge", em)[0]
    pipeline = Pipeline(_noise("noise_uniform", 1.0), cfg, QuadratureConfig(0.01, 150.004), x)
    assert pipeline.transform(em) is same.transform(em)
    assert pipeline.fit("ridge", em)[0] == fitted
    assert spreads == [Q]
    wider = QuadratureConfig(0.01, 150.01)
    mhat = Pipeline(_noise("noise_uniform", 1.0), cfg, wider, x).transform(em)
    assert spreads == [Q, wider] and mhat.shape == (len(Q) + 2,)
    at_half = Pipeline(_noise("noise_uniform", 0.5), replace(cfg, c=0.5), Q, x)
    for call in (at_half.select, at_half.fit):
        for method in ("ridge", "cutoff"):
            with pytest.raises(MellinError, match="development point mismatch"):
                call(method, em)
    with pytest.raises(MellinError, match="development point mismatch"):
        at_half.transform(em)


# ---------------------------------------------------------------------- #
# property tests: every input returns or raises a typed error
# ---------------------------------------------------------------------- #

#: a few distinct magnitudes, so that drawn samples carry heavy ties
_TIED = st.sampled_from([0.3, 0.7, 1.0, 1.0, 2.5])
_SPREAD = st.floats(min_value=1e-3, max_value=1e3)
_SAMPLES = st.lists(st.one_of(_TIED, _SPREAD), min_size=1, max_size=40)
#: arbitrary increasing positive x-grids, not log-uniform
_X_GRIDS = st.lists(
    st.floats(min_value=1e-3, max_value=5.0), min_size=2, max_size=12
).map(np.cumsum)
_PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _check_fit(method, noise, c, y, x):
    cfg = SelectionConfig(chi1=0.125, chi2=0.125, chi=3.0, c=c)
    pipeline = Pipeline(_noise(noise, c), cfg, Q_SHORT, x)
    try:
        result, est = pipeline.fit(method, EmpiricalMellin(c, np.asarray(y)))
    except TYPED_ERRORS as exc:
        event(f"{method}: {type(exc).__name__}")
        return exc
    event(f"{method}: estimate")
    assert result.method == method
    assert result.k_hat in result.admissible
    assert np.isfinite(result.sigma_hat)
    assert est.values.shape == (len(x),)
    assert np.all(np.isfinite(est.values))
    return result


@_PROPERTY_SETTINGS
@given(
    method=st.sampled_from(["ridge", "cutoff"]),
    noise=st.sampled_from(["noise_uniform", "noise_beta"]),
    c=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    y=_SAMPLES,
    scale=st.sampled_from([1e-200, 1e-160, 1e-3, 1.0, 1e3, 1e160, 1e200]),
    x=_X_GRIDS,
)
def test_fit_returns_or_raises_typed_error(method, noise, c, y, scale, x):
    _check_fit(method, noise, c, [v * scale for v in y], x)


@_PROPERTY_SETTINGS
@given(
    y=st.lists(st.one_of(_TIED, _SPREAD), min_size=1, max_size=1)
    | st.lists(_TIED, min_size=2, max_size=40),
    x=_X_GRIDS,
)
def test_single_observation_and_ties_fit_cleanly(y, x):
    # moderate scales at c = 1: the only admissible refusal is an empty set
    for method in ("ridge", "cutoff"):
        out = _check_fit(method, "noise_beta", 1.0, y, x)
        assert not isinstance(out, MellinError)


@settings(max_examples=25, deadline=None)
@given(y=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=5, max_size=40),
       x=_X_GRIDS)
def test_uniform_noise_at_c0_ridge_works_and_cutoff_stays_short(y, x):
    # M_g has its first zero near t = 5.72 at c = 0
    ridge = _check_fit("ridge", "noise_uniform", 0.0, y, x)
    assert not isinstance(ridge, Exception)
    cutoff = _check_fit("cutoff", "noise_uniform", 0.0, y, x)
    if isinstance(cutoff, Exception):
        assert isinstance(cutoff, (NoiseTransformZeroError, EmptyAdmissibleSetError))
    else:
        assert cutoff.k_hat < 5.72
