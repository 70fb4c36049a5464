"""Scenario parameters and decoding-threshold arithmetic.

Everything downstream (closed forms and Monte Carlo alike) sees the radio
link only through two dimensionless thresholds: a fading-plus-path-loss
ratio ``|h|^2 / (1 + r^alpha)`` decodes a transmission iff it is at least
``theta``. Only the ratio of transmit power to noise power enters the model,
never the two separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Accepted first-hop threshold rules, see :func:`compute_thresholds`.
FIRST_HOP_RULES = ("frame_rate", "base_rate")


@dataclass(frozen=True)
class CellGeometry:
    """Disk cell with the source at the center.

    Parameters
    ----------
    cell_radius : float
        Radius of the disk cell. Strictly positive and finite.
    dest_distance : float
        Distance from the cell center to the destination, which sits on the
        reference ray at angle 0. May be any nonnegative value, including
        values beyond ``cell_radius``.
    relay_intensity : float
        Density of candidate relays, in points per unit area. Strictly
        positive.
    path_loss_exponent : float
        Distance attenuation exponent, at least 2. The closed forms in
        :mod:`relaygeom.analytic` additionally require the value 2 exactly;
        the Monte Carlo engine accepts any value >= 2.
    """

    cell_radius: float
    dest_distance: float
    relay_intensity: float
    path_loss_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cell_radius) and self.cell_radius > 0):
            raise ValueError("cell_radius must be finite and > 0")
        if not (math.isfinite(self.dest_distance) and self.dest_distance >= 0):
            raise ValueError("dest_distance must be finite and >= 0")
        if not (math.isfinite(self.relay_intensity) and self.relay_intensity > 0):
            raise ValueError("relay_intensity must be finite and > 0")
        if not (math.isfinite(self.path_loss_exponent) and self.path_loss_exponent >= 2):
            raise ValueError("path_loss_exponent must be finite and >= 2")

    @property
    def mean_relay_count(self) -> float:
        """Expected number of candidate relays in the cell."""
        return self.relay_intensity * math.pi * self.cell_radius**2


@dataclass(frozen=True)
class RadioParams:
    """Transmit SNR, target spectral efficiency and relay budget.

    ``snr_db`` is the ratio of source transmit power to receiver noise power
    in decibels. ``num_relays`` is the number ``k`` of relays scheduled for
    the cooperative phase; they split the source power evenly, so each one
    transmits with ``1/k`` of it.
    """

    snr_db: float
    target_rate: float
    num_relays: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if not (math.isfinite(self.target_rate) and self.target_rate > 0):
            raise ValueError("target_rate must be finite and > 0")
        # a bool is refused although Python counts it an int
        if isinstance(self.num_relays, bool) or not (
            isinstance(self.num_relays, int) and self.num_relays >= 1
        ):
            raise ValueError("num_relays must be an integer >= 1")


@dataclass(frozen=True)
class Thresholds:
    """Decoding thresholds for the two hops.

    ``theta_first`` gates relay qualification on the source broadcast;
    ``theta_second`` gates decoding at the destination during the
    cooperative phase.
    """

    theta_first: float
    theta_second: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta_first) and self.theta_first >= 0):
            raise ValueError("theta_first must be finite and >= 0")
        if not (math.isfinite(self.theta_second) and self.theta_second >= 0):
            raise ValueError("theta_second must be finite and >= 0")


def snr_db_to_linear(snr_db: float) -> float:
    """Convert a decibel power ratio to a linear power ratio."""
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    return 10.0 ** (snr_db / 10.0)


def compute_thresholds(radio: RadioParams, first_hop: str = "frame_rate") -> Thresholds:
    """Derive the two decoding thresholds for a ``k``-relay frame.

    The frame has ``k + 1`` slots (one source broadcast, one slot per
    relay), so delivering ``target_rate`` end to end requires each
    transmission to run at ``(1 + k) * target_rate``. Each relay transmits
    with ``1/k`` of the source power, hence::

        theta_second = k * (2 ** ((1 + k) * rate) - 1) / snr_linear

    The first-hop threshold depends on the chosen rule:

    ``"frame_rate"`` (default)
        The source broadcast carries the same per-slot rate as the rest of
        the frame: ``theta_first = (2 ** ((1 + k) * rate) - 1) / snr_linear``.
        For ``k = 1`` this coincides with ``"base_rate"``.
    ``"base_rate"``
        Relays qualify at the two-slot nominal rate regardless of ``k``:
        ``theta_first = (2 ** (2 * rate) - 1) / snr_linear``.

    Both rules are exposed because the choice only matters for ``k > 1``
    and changes which relays count as qualified, not how the selected ones
    are tested at the destination.
    """
    if first_hop not in FIRST_HOP_RULES:
        raise ValueError(f"first_hop must be one of {FIRST_HOP_RULES}, got {first_hop!r}")
    snr = snr_db_to_linear(radio.snr_db)
    k = radio.num_relays
    frame_term = 2.0 ** ((1 + k) * radio.target_rate) - 1.0
    theta_second = k * frame_term / snr
    if first_hop == "frame_rate":
        theta_first = frame_term / snr
    else:
        theta_first = (2.0 ** (2.0 * radio.target_rate) - 1.0) / snr
    return Thresholds(theta_first=theta_first, theta_second=theta_second)
