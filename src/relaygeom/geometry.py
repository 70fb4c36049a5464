"""Poisson relay fields on the disk cell and squared distances to the destination.

Positions are polar coordinates about the cell center; the destination sits
on the reference ray at angle 0. Sampling goes through an injected
:class:`numpy.random.Generator`, so each caller owns its stream.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CellGeometry


def sample_field(cell: CellGeometry, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample a homogeneous Poisson relay field over the cell.

    Returns parallel arrays ``(radii, angles)``. The count is Poisson with
    mean ``cell.mean_relay_count``; given the count, positions are i.i.d.
    uniform over the disk: radius ``R * sqrt(u)`` with ``u`` uniform on
    [0, 1) (the square root compensates for the growth of area with radius)
    and angle uniform on [0, 2*pi).

    Draw order: one Poisson count, then all radius variates, then all angle
    variates. The Monte Carlo reproducibility contract rests on this order.
    """
    n = int(rng.poisson(cell.mean_relay_count))
    radii = cell.cell_radius * np.sqrt(rng.random(n))
    angles = 2.0 * math.pi * rng.random(n)
    return radii, angles


def sq_dists_to_dest(radii: np.ndarray, angles: np.ndarray, dest_distance: float) -> np.ndarray:
    """Squared distances to the destination at ``(dest_distance, 0)``.

    Law of cosines, ``r^2 + r_d^2 - 2 r r_d cos(angle)``, clipped at 0
    against rounding. Squared distances suffice for ranking.
    """
    d2 = radii * radii + dest_distance * dest_distance - 2.0 * dest_distance * radii * np.cos(angles)
    return np.maximum(d2, 0.0)
