"""Statistical-knowledge outage over the configuration space.

The product form (:func:`relaygeom.analytic.outage_stat`) and the
rank-joint outage (:func:`relaygeom.validation.exact_ranked_outage`) must be
probabilities, must not rise with SNR at a fixed number of relays, and must
raise nothing, the mass profile's own accuracy check included, well beyond
the desk scenario.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from relaygeom import analytic, validation
from relaygeom.model import CellGeometry, RadioParams

OUTAGES = {"product": analytic.outage_stat, "rank_joint": validation.exact_ranked_outage}
#: Allowed rise with SNR, for rounding where the curve is flat at 1.
MONOTONE_SLACK = 1e-9


def _curve(outage, k, cell, snr_grid, rate=1.0):
    return [
        outage(k, cell, RadioParams(snr_db=s, target_rate=rate, num_relays=k)) for s in snr_grid
    ]


def _assert_probabilities_falling(vals):
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals), vals
    assert all(b <= a + MONOTONE_SLACK for a, b in zip(vals, vals[1:])), vals


@pytest.mark.parametrize("name", sorted(OUTAGES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_extreme_snr(default_cell, name, k):
    # -20 and -30 dB used to hit a non-finite angular integrand, and 60 dB
    # an adaptive outer integral that did not converge
    grid = (-30.0, -20.0, 0.0, 15.0, 30.0, 45.0, 60.0)
    _assert_probabilities_falling(_curve(OUTAGES[name], k, default_cell, grid))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank_joint_is_a_probability_on_the_gate_grid(default_cell, k):
    # the rank-joint value feeds binomial_consistent, which rejects p > 1
    grid = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    vals = _curve(validation.exact_ranked_outage, k, default_cell, grid)
    assert all(0.0 <= v <= 1.0 for v in vals), vals


@settings(max_examples=60, deadline=None)
@given(
    radius=st.floats(1.0, 100.0),
    offset=st.floats(0.0, 1.0),
    intensity=st.floats(0.01, 5.0),
    snr_grid=st.lists(st.floats(-30.0, 60.0), min_size=2, max_size=4),
    rate=st.floats(0.1, 3.0),
    k=st.integers(1, 5),
)
def test_probabilities_falling_in_snr_everywhere(radius, offset, intensity, snr_grid, rate, k):
    cell = CellGeometry(
        cell_radius=radius, dest_distance=offset * radius, relay_intensity=intensity
    )
    for outage in OUTAGES.values():
        _assert_probabilities_falling(_curve(outage, k, cell, sorted(snr_grid), rate))
