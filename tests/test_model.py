import numpy as np
import pytest
import scipy.stats as stats

import mellin_deconv.model as model
from mellin_deconv import (
    CATALOG_IDS,
    ERROR_IDS,
    TARGET_IDS,
    EmpiricalMellin,
    RngStream,
    catalog_mellin,
    contaminate,
    density_eval,
    density_spec,
    read_sample_csv,
    sample,
    stream_id_for,
    write_sample_csv,
)

from conftest import empirical_mellin

N_BIG = 100_000
KS_CRIT_1PCT = 1.63  # / sqrt(n)

# null CDFs, independent of the samplers under test
_CDFS = {
    "beta25": stats.beta(2, 5).cdf,
    "gamma5": stats.gamma(5).cdf,
    "lognormal": stats.lognorm(s=0.2).cdf,
    "loggamma": lambda x: stats.gamma(5, scale=0.2).cdf(np.log(np.maximum(x, 1e-300))),
    "noise_uniform": stats.uniform(0.5, 1.0).cdf,
    "noise_beta": lambda x: np.clip(x, 0.0, 1.0) ** 2,
}


def test_density_point_values():
    assert density_eval(density_spec("gamma5"), 4.0) == pytest.approx(
        4.0**4 * np.exp(-4.0) / 24.0
    )
    assert density_eval(density_spec("beta25"), 1.5) == 0.0
    assert density_eval(density_spec("noise_uniform"), 1.0) == 1.0
    assert density_eval(density_spec("noise_beta"), 0.25) == pytest.approx(0.5)
    assert density_eval(density_spec("loggamma"), 0.5) == 0.0


def test_density_requires_positive_argument():
    with pytest.raises(ValueError):
        density_eval(density_spec("gamma5"), 0.0)
    with pytest.raises(ValueError):
        density_eval(density_spec("gamma5"), np.array([1.0, -2.0]))


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_densities_integrate_to_one(name):
    from scipy.integrate import quad

    lo, hi = {
        "beta25": (1e-12, 1.0),
        "noise_beta": (1e-12, 1.0),
        "noise_uniform": (0.5, 1.5),
        "loggamma": (1.0 + 1e-12, np.inf),
        "gamma5": (1e-12, np.inf),
        "lognormal": (1e-12, np.inf),
    }[name]
    total, _ = quad(lambda x: density_eval(density_spec(name), x), lo, hi, limit=400)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_role_validation():
    with pytest.raises(ValueError):
        model.DensitySpec(id="gamma5", role="error")
    with pytest.raises(ValueError):
        model.DensitySpec(id="noise_beta", role="target")
    with pytest.raises(ValueError):
        density_spec("nonsense")


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_sampler_ks(name):
    draws = sample(density_spec(name), N_BIG, RngStream(42, stream_id_for("ks", name)))
    stat = stats.kstest(draws, _CDFS[name]).statistic
    assert stat < KS_CRIT_1PCT / np.sqrt(N_BIG)


def test_gamma5_ks_below_spec_level():
    draws = sample(density_spec("gamma5"), N_BIG, RngStream(7, 0))
    assert stats.kstest(draws, _CDFS["gamma5"]).statistic < 0.006


def test_uniform_noise_mean():
    draws = sample(density_spec("noise_uniform"), N_BIG, RngStream(3, 1))
    assert 0.997 <= draws.mean() <= 1.003


def test_loggamma_log_mean():
    draws = sample(density_spec("loggamma"), N_BIG, RngStream(3, 2))
    assert np.log(draws).mean() == pytest.approx(1.0, abs=0.015)


def test_reproducibility_and_stream_independence():
    spec = density_spec("gamma5")
    a = sample(spec, 1000, RngStream(11, 5))
    b = sample(spec, 1000, RngStream(11, 5))
    c = sample(spec, 1000, RngStream(11, 6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class _ZeroStream:
    """A stream whose generator's unit draw is exactly 0.0."""

    class _Gen:
        def uniform(self, low, high, size):
            return low + (high - low) * np.zeros(size)

    def generator(self):
        return self._Gen()


def test_beta_noise_draws_are_positive_and_unchanged():
    # a unit draw of 0 would give Y = 0, which the empirical transform refuses
    assert np.all(sample(density_spec("noise_beta"), 3, _ZeroStream()) > 0.0)
    for seed in range(5):
        rng = RngStream(seed, 7)
        ref = np.sqrt(rng.generator().uniform(0.0, 1.0, size=10_000))
        assert np.array_equal(sample(density_spec("noise_beta"), 10_000, rng), ref)


def test_stream_id_is_stable():
    assert stream_id_for("x", "gamma5", 500, 0) == stream_id_for("x", "gamma5", 500, 0)
    assert stream_id_for("x", "gamma5", 500, 0) != stream_id_for("u", "gamma5", 500, 0)


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_empirical_transform_unbiased(name):
    c = 1.0
    draws = sample(density_spec(name), N_BIG, RngStream(99, stream_id_for("ub", name)))
    em = EmpiricalMellin(c, draws)
    mf = catalog_mellin(name, c)
    for t in (0.0, 1.0, 5.0):
        est = empirical_mellin(em, t)
        # complex variance of one summand, from the sample itself
        var = np.mean(draws ** (2.0 * (c - 1.0))) - abs(est) ** 2
        se = np.sqrt(max(var, 0.0) / N_BIG)
        assert abs(est - mf(t)) <= 4.0 * se + 1e-12


def test_contamination_factorises_in_the_transform_domain():
    c = 1.0
    x = sample(density_spec("gamma5"), N_BIG, RngStream(1, 100))
    y = contaminate(x, density_spec("noise_uniform"), RngStream(1, 101))
    em = EmpiricalMellin(c, y)
    mf = catalog_mellin("gamma5", c)
    mg = catalog_mellin("noise_uniform", c)
    for t in (0.0, 1.0, 5.0):
        est = empirical_mellin(em, t)
        var = np.mean(y ** (2.0 * (c - 1.0))) - abs(est) ** 2
        se = np.sqrt(max(var, 0.0) / N_BIG)
        assert abs(est - mf(t) * mg(t)) <= 4.0 * se + 1e-12


def test_contaminate_is_elementwise_product(monkeypatch):
    monkeypatch.setattr(model, "sample", lambda spec, n, rng: np.full(n, 0.5))
    out = model.contaminate(np.array([2.0]), density_spec("noise_uniform"), RngStream(0))
    assert np.array_equal(out, np.array([1.0]))


def test_contaminate_length_and_role():
    x = sample(density_spec("gamma5"), 57, RngStream(2, 0))
    y = contaminate(x, density_spec("noise_beta"), RngStream(2, 1))
    assert y.shape == x.shape
    with pytest.raises(ValueError):
        contaminate(x, density_spec("gamma5"), RngStream(2, 2))


def test_contaminated_mean_factorises():
    x = sample(density_spec("gamma5"), N_BIG, RngStream(8, 0))
    y = contaminate(x, density_spec("noise_uniform"), RngStream(8, 1))
    se = y.std() / np.sqrt(N_BIG)
    assert abs(y.mean() - 5.0) <= 3.0 * se


def test_sample_csv_round_trip(tmp_path):
    y = sample(density_spec("lognormal"), 100, RngStream(5, 0))
    path = tmp_path / "sample.csv"
    write_sample_csv(path, y)
    back = read_sample_csv(path)
    assert np.array_equal(y, back)


def test_sample_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y\n1.0\n-3.0\n")
    with pytest.raises(ValueError, match="row 3"):
        read_sample_csv(path)
    path.write_text("y\n1.0\nabc\n")
    with pytest.raises(ValueError, match="row 3"):
        read_sample_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_sample_csv(path)
    path.write_text("z\n1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_sample_csv(path)
    path.write_text("y\n")
    with pytest.raises(ValueError, match="no data"):
        read_sample_csv(path)


def test_sample_size_validation():
    with pytest.raises(ValueError):
        sample(density_spec("gamma5"), 0, RngStream(1))
    # a bool or a fraction is refused by name; whole floats and numpy
    # integers draw exactly what the int draws
    for bad in (300.5, True, np.bool_(True), np.nan, -2):
        with pytest.raises(ValueError, match="sample size must be a whole number"):
            sample(density_spec("gamma5"), bad, RngStream(1))
    ref = sample(density_spec("gamma5"), 300, RngStream(1))
    for whole in (300.0, np.int64(300), np.float64(300.0)):
        assert np.array_equal(sample(density_spec("gamma5"), whole, RngStream(1)), ref)


def test_catalog_tables_every_density_once():
    assert CATALOG_IDS == tuple(model.CATALOG) == TARGET_IDS + ERROR_IDS
    assert TARGET_IDS == ("beta25", "loggamma", "gamma5", "lognormal")
    assert ERROR_IDS == ("noise_uniform", "noise_beta")
    for name, record in model.CATALOG.items():
        assert density_spec(name).role == record.role
        lo, hi = record.c_range
        assert lo < 1.0 < hi  # the package's default development point
