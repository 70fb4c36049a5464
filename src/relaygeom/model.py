"""Scenario parameters, decoding-threshold arithmetic and the argument
guards (:func:`check_count`, :func:`check_threshold`) every module shares.

Everything downstream (closed forms and Monte Carlo alike) sees the radio
link only through two dimensionless thresholds: a fading-plus-path-loss
ratio ``|h|^2 / (1 + r^alpha)`` decodes a transmission iff it is at least
``theta``. Only the ratio of transmit power to noise power enters the model,
never the two separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

def check_count(name: str, value) -> int:
    """``value`` if it is an integer >= 1, else a ``ValueError`` naming
    ``name``. A ``bool`` is refused although Python counts it an ``int``."""
    if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def check_threshold(name: str, value: float) -> float:
    """``value`` if it is finite and >= 0, else a ``ValueError`` naming ``name``."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


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

    The derived values :attr:`outer_radius` and :attr:`mean_relay_count`
    must be finite floats too: a cell whose fields are finite but whose
    derived values overflow is refused, with a ``ValueError`` naming them.
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
        if not math.isfinite(self.outer_radius):
            raise ValueError("outer_radius (cell_radius + dest_distance) must be finite")
        try:
            count = self.mean_relay_count
        except OverflowError:  # cell_radius**2 overflows
            count = math.inf
        if not math.isfinite(count):
            raise ValueError("mean_relay_count (relay_intensity * pi * cell_radius**2) must be finite")

    @property
    def inner_radius(self) -> float:
        """``max(cell_radius - dest_distance, 0)``: every circle about the
        destination up to this radius lies inside the cell."""
        return max(self.cell_radius - self.dest_distance, 0.0)

    @property
    def outer_radius(self) -> float:
        """``cell_radius + dest_distance``: no point of the cell lies farther
        than this from the destination."""
        return self.cell_radius + self.dest_distance

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
        check_count("num_relays", self.num_relays)


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
        check_threshold("theta_first", self.theta_first)
        check_threshold("theta_second", self.theta_second)


def snr_db_to_linear(snr_db: float) -> float:
    """Convert a decibel power ratio to a linear power ratio."""
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    return 10.0 ** (snr_db / 10.0)


def compute_thresholds(radio: RadioParams) -> Thresholds:
    """Derive the two decoding thresholds for a ``k``-relay frame.

    The frame has ``k + 1`` slots (one source broadcast, one slot per
    relay), so delivering ``target_rate`` end to end requires each
    transmission to run at ``(1 + k) * target_rate``. The broadcast is one
    of those slots, so relays qualify at that rate; each relay transmits
    with ``1/k`` of the source power, hence::

        theta_first = (2 ** ((1 + k) * rate) - 1) / snr_linear
        theta_second = k * (2 ** ((1 + k) * rate) - 1) / snr_linear
    """
    snr = snr_db_to_linear(radio.snr_db)
    k = radio.num_relays
    frame_term = 2.0 ** ((1 + k) * radio.target_rate) - 1.0
    return Thresholds(theta_first=frame_term / snr, theta_second=k * frame_term / snr)
