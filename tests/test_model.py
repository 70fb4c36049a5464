import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaygeom import analytic
from relaygeom import montecarlo as mc
from relaygeom.model import (
    CellGeometry,
    RadioParams,
    Thresholds,
    compute_thresholds,
    snr_db_to_linear,
)
from relaygeom.quadrature import QuadratureSpec, integrate_1d


def test_snr_db_to_linear_identities():
    assert snr_db_to_linear(0.0) == 1.0
    assert snr_db_to_linear(10.0) == 10.0
    assert abs(snr_db_to_linear(15.0) - 31.6228) < 1e-4


def test_snr_db_to_linear_rejects_nonfinite():
    with pytest.raises(ValueError):
        snr_db_to_linear(math.inf)


def test_thresholds_single_relay():
    th = compute_thresholds(RadioParams(snr_db=10.0, target_rate=1.0, num_relays=1))
    assert th.theta_first == pytest.approx(0.3, abs=1e-12)
    assert th.theta_second == pytest.approx(0.3, abs=1e-12)


def test_thresholds_two_relays_frame_rate():
    th = compute_thresholds(RadioParams(snr_db=0.0, target_rate=1.0, num_relays=2))
    assert th.theta_first == pytest.approx(7.0, abs=1e-12)
    assert th.theta_second == pytest.approx(14.0, abs=1e-12)


def test_thresholds_vanish_at_high_snr():
    th = compute_thresholds(RadioParams(snr_db=300.0, target_rate=2.0, num_relays=3))
    assert th.theta_first < 1e-25
    assert th.theta_second < 1e-25


@given(
    snr_db=st.floats(-40, 60),
    rate=st.floats(0.1, 4.0),
    k=st.integers(1, 6),
)
def test_thresholds_scale_inversely_with_snr(snr_db, rate, k):
    lo = compute_thresholds(RadioParams(snr_db=snr_db, target_rate=rate, num_relays=k))
    hi = compute_thresholds(RadioParams(snr_db=snr_db + 10.0, target_rate=rate, num_relays=k))
    # +10 dB multiplies the linear SNR by exactly 10
    assert hi.theta_first * 10.0 == pytest.approx(lo.theta_first, rel=1e-12)
    assert hi.theta_second * 10.0 == pytest.approx(lo.theta_second, rel=1e-12)


@given(
    snr_db=st.floats(-40, 60),
    rate=st.floats(0.1, 4.0),
    k=st.integers(1, 6),
)
def test_threshold_ratio_is_relay_count(snr_db, rate, k):
    th = compute_thresholds(RadioParams(snr_db=snr_db, target_rate=rate, num_relays=k))
    assert th.theta_second / th.theta_first == pytest.approx(k, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cell_radius=0.0, dest_distance=5.0, relay_intensity=0.5),
        dict(cell_radius=math.inf, dest_distance=5.0, relay_intensity=0.5),
        dict(cell_radius=20.0, dest_distance=-1.0, relay_intensity=0.5),
        dict(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.0),
        dict(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5, path_loss_exponent=1.9),
        # finite fields whose derived values overflow
        dict(cell_radius=1e308, dest_distance=1e308, relay_intensity=1.0),
        dict(cell_radius=1e200, dest_distance=0.0, relay_intensity=1.0),
    ],
)
def test_cell_geometry_invariants(kwargs):
    with pytest.raises(ValueError):
        CellGeometry(**kwargs)


@pytest.mark.parametrize(
    ("fields", "named"),
    [
        ((1e308, 1e308, 1.0), "outer_radius"),
        ((1e200, 0.0, 1.0), "mean_relay_count"),
        ((1e154, 0.0, 1e300), "mean_relay_count"),
    ],
)
def test_overflowing_cell_names_the_derived_value(fields, named):
    with pytest.raises(ValueError, match=f"^{named} "):
        CellGeometry(*fields)


def test_large_cell_with_finite_derived_values_is_accepted():
    cell = CellGeometry(1e150, 0.0, 0.5)
    assert math.isfinite(cell.mean_relay_count) and math.isfinite(cell.outer_radius)


@pytest.mark.parametrize(("big_r", "r_d"), [(20.0, 5.0), (10.0, 15.0), (5.0, 0.0)])
def test_cell_radii_about_the_destination(big_r, r_d):
    # circles about the destination up to inner_radius lie inside the cell;
    # outer_radius reaches the farthest point of the rim
    cell = CellGeometry(cell_radius=big_r, dest_distance=r_d, relay_intensity=0.5)
    assert cell.inner_radius == max(big_r - r_d, 0.0)
    assert cell.outer_radius == big_r + r_d
    rim = [i * math.pi / 180.0 for i in range(360)]
    dists = [math.hypot(big_r * math.cos(t) - r_d, big_r * math.sin(t)) for t in rim]
    assert max(dists) == pytest.approx(cell.outer_radius, rel=1e-12)
    if r_d <= big_r:
        assert min(dists) == pytest.approx(cell.inner_radius, rel=1e-12)
    for name in ("inner_radius", "outer_radius"):
        with pytest.raises(AttributeError):
            setattr(cell, name, 1.0)


def test_cell_mean_relay_count():
    cell = CellGeometry(cell_radius=10.0, dest_distance=0.0, relay_intensity=0.5)
    assert cell.mean_relay_count == pytest.approx(0.5 * math.pi * 100.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(snr_db=math.nan, target_rate=1.0),
        dict(snr_db=10.0, target_rate=0.0),
        dict(snr_db=10.0, target_rate=-1.0),
        dict(snr_db=10.0, target_rate=1.0, num_relays=0),
        dict(snr_db=10.0, target_rate=1.0, num_relays=1.5),
        dict(snr_db=10.0, target_rate=1.0, num_relays=True),
    ],
)
def test_radio_params_invariants(kwargs):
    with pytest.raises(ValueError):
        RadioParams(**kwargs)


def test_thresholds_reject_negative():
    with pytest.raises(ValueError):
        Thresholds(theta_first=-0.1, theta_second=0.2)
    with pytest.raises(ValueError):
        Thresholds(theta_first=0.1, theta_second=math.inf)


_CELL = CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5)
_RADIO = RadioParams(snr_db=15.0, target_rate=1.0)

#: One call per integer argument of the public API, taking the argument's
#: value ``v``; every value used below (2, or a bad one) is in its domain
#: or refused by it.
_INTEGER_ARGUMENTS = {
    "trials": lambda v: mc.estimate_outage("stat", _CELL, _RADIO, v, 7),
    "num_relays": lambda v: (
        RadioParams(15.0, 1.0, v),
        compute_thresholds(RadioParams(15.0, 1.0, v)),
        mc.estimate_outage("stat", _CELL, RadioParams(15.0, 1.0, v), 50, 7),
    ),
    "k": lambda v: (
        analytic.outage_stat(v, _CELL, _RADIO),
        analytic.kth_nearest_cdf(3.0, v, _CELL, 0.1),
        mc.trial_stat_csi(_CELL, compute_thresholds(_RADIO), v, mc.trial_rng(0, 0)),
    ),
    "j": lambda v: analytic.p_fail_jth(v, _CELL, compute_thresholds(_RADIO)),
    "workers": lambda v: mc.estimate_outage("stat", _CELL, _RADIO, 50, 7, workers=v),
    "k_max": lambda v: mc.kth_nearest_qualified_distances(_CELL, 0.1, v, 20, 3).tobytes(),
    "max_subdivisions": lambda v: integrate_1d(np.exp, 0.0, 3.0, QuadratureSpec(max_subdivisions=v)),
    "seed": lambda v: mc.estimate_outage("stat", _CELL, _RADIO, 50, v),
    "trial_index": lambda v: mc.trial_rng(7, v).random(3).tobytes(),
}


@pytest.mark.parametrize("as_numpy", [np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
@pytest.mark.parametrize("name", _INTEGER_ARGUMENTS)
def test_numpy_integers_give_what_ints_give(name, as_numpy):
    call = _INTEGER_ARGUMENTS[name]
    want, got = call(2), call(as_numpy(2))
    # repr tells a float from a numpy float and an int field from a numpy one
    assert type(got) is type(want) and repr(got) == repr(want)


@pytest.mark.parametrize("bad", [True, np.True_, 2.0, np.float64(2), "3"], ids=repr)
@pytest.mark.parametrize("name", _INTEGER_ARGUMENTS)
def test_non_integers_are_refused_by_name(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _INTEGER_ARGUMENTS[name](bad)
