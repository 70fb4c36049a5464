"""The order-statistic values pinned as ``float.hex``.

``outage_stat`` and ``exact_ranked_outage`` for k in {1, 2, 3, 5} at 0-45 dB
on three cells, ``f_k_pdf`` and criterion 6's homogeneous contrast (``dM/dr``
replaced by ``2 M / r``; the ``quadratic`` keys) for k = 1..3 on the default
cell at 15 dB, and ``poisson_tail``. A refactor of the destination-view readers
keeps each value within 1e-13 relative of the pinned one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from relaygeom import analytic
from relaygeom.model import CellGeometry, RadioParams

GOLDEN = Path(__file__).with_name("golden_order_statistics.json")
REL_TOL = 1e-13

CELLS = {
    "default": CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5),
    "wide": CellGeometry(cell_radius=100.0, dest_distance=30.0, relay_intensity=5.0),
    "small": CellGeometry(cell_radius=5.0, dest_distance=2.0, relay_intensity=2.0),
}
RANKS = (1, 2, 3, 5)
SNR_DB = tuple(float(s) for s in range(0, 50, 5))
THETA_15DB = 0.09486832980505139
PDF_RADII = (0.25, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0)
TAIL_MASSES = (0.0, 1e-300, 1e-12, 1e-3, 0.1, 1.0, 2.5, 7.0, 20.0, 100.0, 700.0)


def order_statistic_values() -> dict[str, float]:
    """Every pinned value, keyed by what it is."""
    values = {}
    for name, cell in CELLS.items():
        for k in RANKS:
            for snr in SNR_DB:
                radio = RadioParams(snr_db=snr, target_rate=1.0, num_relays=k)
                values[f"outage_stat/{name}/k={k}/{snr:g}dB"] = analytic.outage_stat(k, cell, radio)
                values[f"exact_ranked_outage/{name}/k={k}/{snr:g}dB"] = analytic.exact_ranked_outage(
                    k, cell, radio
                )
    radii = np.array(PDF_RADII)
    mass = analytic.lambda_prime(radii, CELLS["default"], THETA_15DB)
    for k in (1, 2, 3):
        pdfs = {
            "exact": analytic.f_k_pdf(radii, k, CELLS["default"], THETA_15DB),
            "quadratic": analytic._order_densities(mass, 2.0 * mass / radii, k)[-1],
        }
        for form, pdf in pdfs.items():
            for r, value in zip(PDF_RADII, pdf):
                values[f"f_k_pdf/{form}/k={k}/r={r:g}"] = float(value)
    for k in RANKS:
        for mass, value in zip(TAIL_MASSES, analytic.poisson_tail(np.array(TAIL_MASSES), k)):
            values[f"poisson_tail/k={k}/M={mass:g}"] = float(value)
    return values


@pytest.fixture(scope="module")
def computed() -> dict[str, float]:
    return order_statistic_values()


def test_same_keys(computed):
    assert sorted(computed) == sorted(json.loads(GOLDEN.read_text()))


def test_values_within_1e13_relative(computed):
    golden = {key: float.fromhex(text) for key, text in json.loads(GOLDEN.read_text()).items()}
    off = {
        key: (value, golden[key])
        for key, value in computed.items()
        if abs(value - golden[key]) > REL_TOL * abs(golden[key])
    }
    assert not off
