import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from relaygeom.quadrature import DEFAULT_SPEC, QuadratureError, QuadratureSpec, integrate_1d


def test_linear():
    assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_full_period_cosine_cancels():
    assert abs(integrate_1d(np.cos, 0.0, 2 * math.pi)) < 1e-10


def test_truncated_gaussian():
    val = integrate_1d(lambda x: np.exp(-x * x), 0.0, 40.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10, abs=0)


def test_high_degree_polynomial():
    assert integrate_1d(lambda x: x**20, 0.0, 1.0) == pytest.approx(1.0 / 21.0, rel=1e-12, abs=0)


def test_reversed_bounds_flip_sign():
    fwd = integrate_1d(lambda x: x * x, 0.0, 2.0)
    assert integrate_1d(lambda x: x * x, 2.0, 0.0) == -fwd


def test_degenerate_interval():
    assert integrate_1d(lambda x: x, 3.0, 3.0) == 0.0


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: np.sin(3 * x) * np.exp(-x / 2), 0.0, 5.0),
        (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 7.0),
        (lambda x: np.exp(-0.09 * (1 + 25 + x * x - 10 * x * np.cos(0.3))), 0.0, 25.0),
    ],
)
def test_against_scipy_oracle(f, a, b):
    mine = integrate_1d(f, a, b, QuadratureSpec(1e-12, 1e-10, 1024))
    ref, _ = scipy_integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b, epsabs=1e-13, epsrel=1e-11, limit=500)
    assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_sharp_peak_resolved():
    # narrow Lorentzian off-center; adaptive subdivision must find it
    f = lambda x: 1.0 / (1e-6 + (x - 0.1234) ** 2)
    val = integrate_1d(f, 0.0, 1.0, QuadratureSpec(1e-12, 1e-9, 2048))
    ref = (math.atan((1 - 0.1234) / 1e-3) + math.atan(0.1234 / 1e-3)) / 1e-3
    assert val == pytest.approx(ref, rel=1e-9, abs=0)


def test_budget_exhaustion_reports_estimate():
    f = lambda x: 1.0 / (1e-9 + (x - 0.5) ** 2)
    with pytest.raises(QuadratureError) as err:
        integrate_1d(f, 0.0, 1.0, QuadratureSpec(1e-14, 1e-13, 3))
    assert math.isfinite(err.value.estimate)
    assert err.value.error > 0


def test_budget_exhaustion_reports_a_float():
    # the first panel's value once stayed a numpy scalar in the heap, so the
    # estimate became one after the first bisection
    f = lambda x: np.sin(50 * x) ** 2 * np.exp(x)
    with pytest.raises(QuadratureError) as err:
        integrate_1d(f, 0.0, 10.0, QuadratureSpec(1e-15, 1e-15, 3))
    assert type(err.value.estimate) is float and type(err.value.error) is float
    assert "np.float64" not in str(err.value)


def test_divergent_integrand_exhausts_budget():
    # the K15 nodes are interior, so 1/x is never evaluated at 0: the default
    # budget runs out on the divergence instead of returning a finite value
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_1d(lambda x: np.where(x < 0.5, 1.0, np.inf), 0.0, 1.0)


def test_nonfinite_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 0.0, math.inf)


def test_deterministic():
    f = lambda x: np.exp(-x) * np.sin(10 * x)
    a = integrate_1d(f, 0.0, 3.0)
    b = integrate_1d(f, 0.0, 3.0)
    assert a == b


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    assert DEFAULT_SPEC.rel_tol == 1e-9
    assert DEFAULT_SPEC.abs_tol == 1e-12


def test_spec_refuses_bool_subdivisions():
    # Python counts True an int; as a budget it would silently mean 1
    with pytest.raises(ValueError, match="^max_subdivisions must be an integer >= 1, got True$"):
        QuadratureSpec(max_subdivisions=True)
