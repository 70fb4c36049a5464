"""Outage simulator and analytic calculator for opportunistic relaying over
a Poisson field of relays.

A source at the center of a disk cell reaches a displaced destination
through randomly placed decode-and-forward relays under Rayleigh fading and
distance path loss. The package pairs closed-form/semi-analytic outage
expressions (:mod:`relaygeom.analytic`) with an independent Monte Carlo
engine (:mod:`relaygeom.montecarlo`) for two relay-knowledge regimes:
instantaneous channel knowledge at the relays, and distance ranking only.
"""

from .model import (
    CellGeometry,
    RadioParams,
    Thresholds,
    compute_thresholds,
    snr_db_to_linear,
)
from .montecarlo import OutageEstimate, estimate_outage
from .quadrature import QuadratureError, QuadratureSpec, integrate_1d

__version__ = "0.1.0"

__all__ = [
    "CellGeometry",
    "RadioParams",
    "Thresholds",
    "compute_thresholds",
    "snr_db_to_linear",
    "OutageEstimate",
    "estimate_outage",
    "QuadratureSpec",
    "QuadratureError",
    "integrate_1d",
    "__version__",
]
