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


@pytest.fixture
def ring_field(monkeypatch):
    """``ring_field(radius, n)`` makes the simulator draw, in place of a
    Poisson field, ``n`` relays evenly spaced on one circle about the cell
    center, for every trial of a block. Only the field is replaced: it draws
    nothing, ignores the field buffer ``out``, and gains still come from
    each trial's stream."""

    def install(radius: float, n: int) -> None:
        turns = np.linspace(0.0, 1.0, n, endpoint=False)

        def fields(cell, rngs, marks=0, out=None):
            rows = np.empty((2 + marks, n * len(rngs)))
            rows[0], rows[1] = radius, np.tile(turns, len(rngs))
            return n * np.arange(1, len(rngs) + 1), rows

        monkeypatch.setattr(montecarlo, "sample_fields", fields)

    return install
