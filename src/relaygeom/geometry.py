"""Poisson relay fields on the disk cell and squared distances to the destination.

Positions are polar coordinates about the cell center; the destination sits
on the reference ray at angle 0. Sampling goes through injected
:class:`numpy.random.Generator` objects, one per field, so each caller owns
its streams.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import CellGeometry


def sample_fields(
    cell: CellGeometry,
    rngs: Sequence[np.random.Generator],
    marks: int = 0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one homogeneous Poisson relay field over the cell per generator
    of ``rngs``, concatenated in generator order.

    Returns ``(ends, rows)``: field ``i`` holds the relays from
    ``ends[i - 1]`` (0 for the first) up to ``ends[i]``, and ``rows`` has
    one column per relay. Row 0 holds source distances, row 1 angles in
    turns (the angle is ``2 * pi * turns``), and ``marks`` further rows are
    left unset for the caller's per-relay values, so that a block of fields
    and its marks take one allocation. The count is Poisson with mean
    ``cell.mean_relay_count``; given the count, positions are i.i.d.
    uniform over the disk: radius ``R * sqrt(u)`` with ``u`` uniform on
    [0, 1) (the square root compensates for the growth of area with radius)
    and ``turns`` uniform on [0, 1). Angles are left in turns so that a
    caller converts only those it keeps.

    ``rows`` is a view of the head of ``out``, a 1-D float64 buffer, when
    ``out`` holds at least ``(2 + marks) * ends[-1]`` values, and a new
    array otherwise. A caller that draws many blocks into one buffer keeps
    the allocator from handing the memory back to the system and faulting
    it in again at each draw.

    Draw order, on each field's own generator: one Poisson count, then all
    radius variates, then all angle variates. The Monte Carlo
    reproducibility contract rests on this order. Only the draws run per
    field; the square roots and scalings run once for all of them.
    """
    mean = cell.mean_relay_count
    ends = np.cumsum(np.fromiter((rng.poisson(mean) for rng in rngs), np.intp, len(rngs)))
    n = int(ends[-1]) if ends.size else 0
    size = (2 + marks) * n
    if out is not None and out.size >= size:
        rows = out[:size].reshape(2 + marks, n)
    else:
        rows = np.empty((2 + marks, n))
    radii, turns = rows[:2]
    begin = 0
    for rng, end in zip(rngs, ends.tolist()):
        rng.random(out=radii[begin:end])
        rng.random(out=turns[begin:end])
        begin = end
    np.sqrt(radii, out=radii)
    radii *= cell.cell_radius
    return ends, rows


def sample_field(cell: CellGeometry, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One field of :func:`sample_fields`, drawn on ``rng``, as parallel
    arrays ``(radii, angles)`` with angles in [0, 2*pi)."""
    _, (radii, turns) = sample_fields(cell, [rng])
    return radii, 2.0 * math.pi * turns


def sq_dists_to_dest(radii: np.ndarray, angles: np.ndarray, dest_distance: float) -> np.ndarray:
    """Squared distances to the destination at ``(dest_distance, 0)``.

    Law of cosines, ``r^2 + r_d^2 - 2 r r_d cos(angle)``, clipped at 0
    against rounding. Squared distances suffice for ranking. ``radii`` and
    ``angles`` are parallel arrays and are left as they are.
    """
    # the formula's operations in its own order, in two new arrays
    cross = np.cos(angles)
    d2 = (2.0 * dest_distance) * radii
    cross *= d2
    np.multiply(radii, radii, out=d2)
    d2 += dest_distance * dest_distance
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)
