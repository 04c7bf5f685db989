import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_deconv.special import log_beta, log_gamma

# the package keeps only the logs; the tests compare their exponentials


def gamma(z):
    return np.exp(log_gamma(z))


def beta(a, b):
    return np.exp(log_beta(a, b))


def test_exact_values():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gamma(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert beta(2.0, 5.0) == pytest.approx(1.0 / 30.0, rel=1e-12)


def test_matches_scipy_right_half_plane():
    re = np.linspace(0.5, 8.0, 16)
    im = np.linspace(-50.0, 50.0, 41)
    z = re[:, None] + 1j * im[None, :]
    ours = gamma(z)
    ref = sp.gamma(z)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-10


def test_matches_scipy_reflected():
    re = np.linspace(-3.4, 0.4, 14)
    im = np.concatenate([np.linspace(-30, -0.25, 15), np.linspace(0.25, 30, 15)])
    z = re[:, None] + 1j * im[None, :]
    ours = gamma(z)
    ref = sp.gamma(z)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-9


def test_log_gamma_large_imag_matches_scipy():
    # strip used by the catalog transforms; |t| far beyond double-gamma range
    z = 5.0 + 1j * np.geomspace(1.0, 1e3, 25)
    ours = log_gamma(z)
    ref = sp.loggamma(z)
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_beta_stays_finite_where_gammas_underflow():
    # individual gamma values underflow near |t| ~ 1e4 but the ratio must not
    t = 1e4
    val = beta(2.0 + 1j * t, 5.0)
    ref = np.exp(sp.loggamma(2.0 + 1j * t) + sp.loggamma(5.0) - sp.loggamma(7.0 + 1j * t))
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val - ref) <= 1e-11 * abs(ref) + 1e-300


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.6, max_value=9.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_functional_equation(x, y):
    z = complex(x, y)
    lhs = gamma(z + 1.0)
    rhs = z * gamma(z)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_conjugate_symmetry():
    z = 2.5 + 1j * np.linspace(0.1, 40.0, 50)
    assert np.allclose(gamma(np.conj(z)), np.conj(gamma(z)), rtol=1e-13, atol=0.0)
