import math

import numpy as np
import pytest

from relaygeom import montecarlo
from relaygeom.model import CellGeometry, RadioParams


@pytest.fixture
def default_cell() -> CellGeometry:
    return CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5)


@pytest.fixture
def radio_15db() -> RadioParams:
    return RadioParams(snr_db=15.0, target_rate=1.0, num_relays=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def sample_field(cell: CellGeometry, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One trial's field as the simulator draws it on ``rng``, as parallel
    arrays ``(radii, angles)`` with angles in [0, 2*pi). The draw takes the
    trial's first-hop gains from ``rng`` too."""
    _, (radii, turns, _, _) = montecarlo._draw_fields(cell, [rng])
    return radii, 2.0 * math.pi * turns


@pytest.fixture
def ring_field(monkeypatch):
    """``ring_field(radius, n)`` makes the simulator draw, in place of a
    Poisson field, ``n`` relays evenly spaced on one circle about the cell
    center, for every trial of a block. Only the field is replaced: it draws
    no count, radius or angle, ignores the field buffer ``out``, and draws
    each trial's first-hop gains from that trial's own generator, as the
    simulator does."""

    def install(radius: float, n: int) -> None:
        turns = np.linspace(0.0, 1.0, n, endpoint=False)

        def fields(cell, rngs, out=None):
            rows = np.empty((4, n * len(rngs)))
            rows[0], rows[1] = radius, np.tile(turns, len(rngs))
            for i, rng in enumerate(rngs):
                rng.standard_exponential(out=rows[2, i * n : (i + 1) * n])
            return n * np.arange(1, len(rngs) + 1), rows

        monkeypatch.setattr(montecarlo, "_draw_fields", fields)

    return install
