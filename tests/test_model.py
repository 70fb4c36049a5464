import math

import pytest
from hypothesis import given, strategies as st

from relaygeom.model import (
    CellGeometry,
    RadioParams,
    Thresholds,
    compute_thresholds,
    snr_db_to_linear,
)


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


def test_thresholds_two_relays_base_rate():
    th = compute_thresholds(
        RadioParams(snr_db=0.0, target_rate=1.0, num_relays=2), first_hop="base_rate"
    )
    # qualification at the two-slot nominal rate, destination test unchanged
    assert th.theta_first == pytest.approx(3.0, abs=1e-12)
    assert th.theta_second == pytest.approx(14.0, abs=1e-12)


def test_thresholds_vanish_at_high_snr():
    th = compute_thresholds(RadioParams(snr_db=300.0, target_rate=2.0, num_relays=3))
    assert th.theta_first < 1e-25
    assert th.theta_second < 1e-25


def test_first_hop_rules_agree_for_single_relay():
    radio = RadioParams(snr_db=7.3, target_rate=1.7, num_relays=1)
    assert compute_thresholds(radio, "frame_rate") == compute_thresholds(radio, "base_rate")


def test_unknown_first_hop_rule_rejected():
    with pytest.raises(ValueError, match="first_hop"):
        compute_thresholds(RadioParams(snr_db=10.0, target_rate=1.0), first_hop="bogus")


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
    ],
)
def test_cell_geometry_invariants(kwargs):
    with pytest.raises(ValueError):
        CellGeometry(**kwargs)


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
