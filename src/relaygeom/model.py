"""Scenario parameters, decoding-threshold arithmetic and the argument
guards every module shares. Each rule is written once, here:

* :func:`check_integer` -- an integer (a numpy integer too, a ``bool`` or
  ``np.bool_`` not), optionally with a lower bound, returned as an ``int``;
  :func:`check_count` is its ``>= 1`` case (trial, worker and relay counts,
  ranks, subdivision budgets);
* :func:`check_finite` -- a finite number at or above a bound, or strictly
  above it (cell sizes, path-loss exponent, rate, thresholds, tolerances);
* :func:`check_radii` -- an array of distances, each finite, >= 0 and at
  most an upper bound up to a relative rounding slack of 1e-12.

Each raises a ``ValueError`` that names the argument.

Everything downstream (closed forms and Monte Carlo alike) sees the radio
link only through two dimensionless thresholds: a fading-plus-path-loss
ratio ``|h|^2 / (1 + r^alpha)`` decodes a transmission iff it is at least
``theta``. Only the ratio of transmit power to noise power enters the model,
never the two separately.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def check_integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer (a numpy integer too) and
    at least ``least`` when that is given; else a ``ValueError`` naming
    ``name``. A ``bool`` is refused although Python counts it an ``int``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and (least is None or value >= least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_count(name: str, value) -> int:
    """:func:`check_integer` with ``least = 1``."""
    return check_integer(name, value, 1)


def check_finite(name: str, value: float, least: float, strict: bool = False) -> float:
    """``value`` if it is finite and >= ``least`` (> ``least`` if ``strict``),
    else a ``ValueError`` naming ``name``."""
    if not (math.isfinite(value) and (value > least if strict else value >= least)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {least:g}, got {value!r}")
    return value


def check_radii(name: str, values, upper: float = math.inf) -> np.ndarray:
    """``values`` as a float array if every entry is finite, >= 0 and at most
    ``upper`` (past it by at most a relative 1e-12 of rounding), else a
    ``ValueError`` naming ``name`` and the range. An empty array passes."""
    r = np.asarray(values, dtype=float)
    largest = r.max(initial=0.0)  # a NaN fails every test below
    if not (r.min(initial=math.inf) >= 0.0 and largest <= upper * (1.0 + 1e-12) and largest < math.inf):
        raise ValueError(f"{name} must be finite and lie in [0, {upper}]")
    return r


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
        check_finite("cell_radius", self.cell_radius, 0, strict=True)
        check_finite("dest_distance", self.dest_distance, 0)
        check_finite("relay_intensity", self.relay_intensity, 0, strict=True)
        check_finite("path_loss_exponent", self.path_loss_exponent, 2)
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
        snr_db_to_linear(self.snr_db)  # refuses a non-finite snr_db
        check_finite("target_rate", self.target_rate, 0, strict=True)
        object.__setattr__(self, "num_relays", check_count("num_relays", self.num_relays))


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
        check_finite("theta_first", self.theta_first, 0)
        check_finite("theta_second", self.theta_second, 0)


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
