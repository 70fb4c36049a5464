"""Monte Carlo outage trials for both relay-knowledge regimes.

Reproducibility contract
------------------------
Trial ``t`` of a run seeded with ``s`` draws from its own counter-based
stream, ``Generator(Philox(key=s, counter=[0, 0, 0, t]))``; streams of
distinct trials never overlap and do not depend on scheduling, so estimates
are bit-identical for any worker count. Within a trial the draw order is
fixed: the field as drawn by :func:`relaygeom.geometry.sample_field`, which
owns that part of the order (relay count, all radii, all angles), then
first-hop fading gains for every relay, then second-hop gains for every
*qualified* relay in input order.
Both strategies consume draws identically (the statistical strategy draws
second-hop gains even for relays it does not select), so runs that share a
seed share realizations and channels draw for draw.

That per-row order is what :func:`estimate_outage_grid` reproduces for many
rows at once. It draws each trial once: the field and first-hop gains, then
second-hop gains for the relays qualified under the loosest row, which
include every other row's. That is the longest prefix any row reads, and
``standard_exponential(n)`` returns the first ``n`` values of
``standard_exponential(N)`` on the same stream, so a row with ``J``
qualified relays sees exactly the gains it would draw alone.

Aggregation across trials is integer summation, which is order-independent.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import sample_field, sq_dists_to_dest
from .model import CellGeometry, RadioParams, Thresholds, compute_thresholds

log = logging.getLogger(__name__)

#: Environment variable capping the number of worker processes.
THREADS_ENV = "RELAYGEOM_THREADS"

STRATEGIES = ("exact", "stat")
OBSERVERS = ("bs", "dest")


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one trial."""
    if trial_index < 0:
        raise ValueError("trial_index must be >= 0")
    key = int(seed) % (1 << 128)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, int(trial_index)]))


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(THREADS_ENV)
        workers = int(env) if env else 1
    if not (isinstance(workers, int) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


@dataclass(frozen=True)
class OutageEstimate:
    """Binomial outage estimate with its standard error."""

    trials: int
    outage_count: int
    p_hat: float
    stderr: float

    @classmethod
    def from_counts(cls, outage_count: int, trials: int) -> "OutageEstimate":
        if not (trials >= 1 and 0 <= outage_count <= trials):
            raise ValueError("need 0 <= outage_count <= trials and trials >= 1")
        p = outage_count / trials
        return cls(trials, outage_count, p, math.sqrt(p * (1.0 - p) / trials))

    @property
    def below_resolution(self) -> bool:
        """True when no outage was observed, i.e. the estimate is only an
        upper bound of order ``1/trials``."""
        return self.outage_count == 0


def _first_hop(cell: CellGeometry, rng: np.random.Generator):
    """Sample a relay field and a first-hop gain per relay; returns
    ``(radii, angles, gains, 1 + radii**alpha)`` in input order.

    A relay at source distance ``r`` decodes the source broadcast at
    threshold ``theta`` iff its Exp(1) gain ``g`` satisfies
    ``g >= theta * (1 + r**alpha)``.
    """
    radii, angles = sample_field(cell, rng)
    gains = rng.standard_exponential(radii.size)
    alpha = cell.path_loss_exponent
    rpow = radii * radii if alpha == 2.0 else radii**alpha
    return radii, angles, gains, 1.0 + rpow


def _qualified_field(cell: CellGeometry, theta_first: float, rng: np.random.Generator):
    """Sample a relay field and thin it to the relays that decoded the
    source broadcast; returns their ``(radii, angles)`` in input order.

    The survivors are an independent thinning with keep probability
    ``exp(-theta_first (1 + r**alpha))`` at radius ``r``.
    """
    radii, angles, gains, loss = _first_hop(cell, rng)
    keep = gains >= theta_first * loss
    return radii[keep], angles[keep]


class _Row(NamedTuple):
    """One estimator row reduced to what a trial decides it by; ``k`` is 0
    for exact knowledge and the slot count for distance ranking."""

    theta_first: float
    theta_second: float
    k: int


class _Plan(NamedTuple):
    """The rows of one estimator run, their loosest first-hop threshold, and
    whether some row is tighter than it."""

    rows: tuple[_Row, ...]
    theta_min: float
    nested: bool

    @classmethod
    def of(cls, rows) -> "_Plan":
        rows = tuple(rows)
        theta_min = min(row.theta_first for row in rows)
        return cls(rows, theta_min, any(row.theta_first != theta_min for row in rows))


def _trial_outages(cell: CellGeometry, plan: _Plan, rng: np.random.Generator) -> list[bool]:
    """One trial decided for every row of ``plan``: whether each is an outage.

    The field and all first-hop gains are drawn once. The loosest row's
    qualified set is the union of every row's, because ``fl(theta * x)``
    does not decrease in ``theta``; second-hop gains are drawn once for that
    union, in input order. A row with ``J`` qualified relays takes the first
    ``J`` of them, which are the gains it would draw on its own.
    """
    radii, angles, gains, loss = _first_hop(cell, rng)
    rows, theta_min = plan.rows, plan.theta_min
    keep = gains >= theta_min * loss
    radii = radii[keep]
    if radii.size == 0:
        return [True] * len(rows)
    d2 = sq_dists_to_dest(radii, angles[keep], cell.dest_distance)
    g2 = rng.standard_exponential(d2.size)
    alpha = cell.path_loss_exponent
    loss2 = 1.0 + (d2 if alpha == 2.0 else d2 ** (0.5 * alpha))
    if plan.nested:
        gains, loss = gains[keep], loss[keep]
    outages = []
    for theta_first, theta_second, k in rows:
        sub = None if theta_first == theta_min else gains >= theta_first * loss
        row_loss2 = loss2 if sub is None else loss2[sub]
        succ = g2[: row_loss2.size] >= theta_second * row_loss2
        if k and k < succ.size:  # else every qualified relay gets a slot
            row_d2 = d2 if sub is None else d2[sub]
            succ = succ[row_d2.argsort(kind="stable")[:k]]
        outages.append(not succ.any())
    return outages


def trial_exact_csi(cell: CellGeometry, thresholds: Thresholds, rng: np.random.Generator) -> bool:
    """One trial under full channel knowledge (single-relay frame); returns
    whether it is an outage.

    The frame succeeds iff some relay passes both the first-hop test and an
    independent second-hop test; gains on the two hops of one relay and
    across relays are independent.
    """
    row = _Row(thresholds.theta_first, thresholds.theta_second, 0)
    return _trial_outages(cell, _Plan.of([row]), rng)[0]


def trial_stat_csi(
    cell: CellGeometry, thresholds: Thresholds, k: int, rng: np.random.Generator
) -> bool:
    """One trial under distance ranking only; returns whether it is an outage.

    The ``min(k, J)`` qualified relays nearest to the destination each get
    one slot (exact distance ties go to the earlier relay in input order);
    the frame format (and hence ``theta_second``) is fixed for ``k`` slots
    in advance, even when fewer relays are available. Outage iff every
    selected relay fails, vacuously when none qualified.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("k must be an integer >= 1")
    row = _Row(thresholds.theta_first, thresholds.theta_second, k)
    return _trial_outages(cell, _Plan.of([row]), rng)[0]


def _grid_block(cell: CellGeometry, plan: _Plan, seed: int, start: int, stop: int) -> list[int]:
    counts = [0] * len(plan.rows)
    for t in range(start, stop):
        for i, outage in enumerate(_trial_outages(cell, plan, trial_rng(seed, t))):
            counts[i] += outage
    return counts


def _run_blocks(block, args: tuple, trials: int, workers: int | None) -> list:
    """Call ``block(*args, start, stop)`` on contiguous trial ranges and
    return the partial results in range order.

    The ranges split ``trials`` evenly over ``min(workers, trials)`` worker
    processes, or run in this process when that is 1. Each trial owns its
    stream and callers combine the parts by integer sums, so the combined
    result does not depend on the worker count.
    """
    workers = min(_resolve_workers(workers), trials)
    if workers == 1:
        return [block(*args, 0, trials)]
    bounds = [(i * trials // workers, (i + 1) * trials // workers) for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(block, *args, lo, hi) for lo, hi in bounds]
        return [f.result() for f in futures]


def _grid_row(strategy: str, radio: RadioParams, first_hop: str) -> _Row:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    k = radio.num_relays
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("k must be an integer >= 1")
    if strategy == "exact" and k != 1:
        raise ValueError("the exact-knowledge strategy is defined for num_relays == 1")
    th = compute_thresholds(radio, first_hop)
    return _Row(th.theta_first, th.theta_second, 0 if strategy == "exact" else k)


def estimate_outage_grid(
    cell: CellGeometry,
    rows: Sequence[tuple[str, RadioParams]],
    trials: int,
    seed: int,
    *,
    first_hop: str = "frame_rate",
    workers: int | None = None,
) -> list[OutageEstimate]:
    """Outage estimates for many ``(strategy, radio)`` rows from one set of
    ``trials`` trials; returns one estimate per row, in row order.

    Each row's estimate equals :func:`estimate_outage` for that row alone,
    count for count: trial ``t`` draws the same field and gains for every
    row (see :func:`_trial_outages`), so it is drawn once and decided for
    all rows. Worker processes as in :func:`estimate_outage`.
    """
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")
    if not rows:
        raise ValueError("rows must be nonempty")
    plan = _Plan.of(_grid_row(strategy, radio, first_hop) for strategy, radio in rows)
    parts = _run_blocks(_grid_block, (cell, plan, seed), trials, workers)
    estimates = []
    for i, (strategy, radio) in enumerate(rows):
        estimate = OutageEstimate.from_counts(sum(p[i] for p in parts), trials)
        if estimate.below_resolution:
            log.info(
                "no outage in %d trials (%s, k=%d, %g dB): estimate below resolution %.1e",
                trials,
                strategy,
                radio.num_relays,
                radio.snr_db,
                1.0 / trials,
            )
        estimates.append(estimate)
    return estimates


def estimate_outage(
    strategy: str,
    cell: CellGeometry,
    radio: RadioParams,
    trials: int,
    seed: int,
    *,
    first_hop: str = "frame_rate",
    workers: int | None = None,
) -> OutageEstimate:
    """Run ``trials`` independent trials and return the outage estimate.

    ``strategy`` is ``"exact"`` (full channel knowledge, requires
    ``radio.num_relays == 1``) or ``"stat"`` (distance ranking with
    ``radio.num_relays`` slots). ``workers`` defaults to the
    ``RELAYGEOM_THREADS`` environment variable, else 1; the result is
    bit-identical for any worker count. A one-row
    :func:`estimate_outage_grid`.
    """
    return estimate_outage_grid(
        cell, [(strategy, radio)], trials, seed, first_hop=first_hop, workers=workers
    )[0]


class MeanCountPoint(NamedTuple):
    """One radius of an empirical mean-count curve."""

    radius: float
    mean: float
    stderr: float


def _mean_count_block(
    observer: str,
    cell: CellGeometry,
    theta_first: float,
    grid: tuple[float, ...],
    seed: int,
    start: int,
    stop: int,
):
    grid_arr = np.asarray(grid)
    s1 = np.zeros(grid_arr.size, dtype=np.int64)
    s2 = np.zeros(grid_arr.size, dtype=np.int64)
    for t in range(start, stop):
        radii, angles = _qualified_field(cell, theta_first, trial_rng(seed, t))
        if observer == "bs":
            d = radii
        else:
            d = np.sqrt(sq_dists_to_dest(radii, angles, cell.dest_distance))
        counts = np.searchsorted(np.sort(d), grid_arr, side="right").astype(np.int64)
        s1 += counts
        s2 += counts * counts
    return s1, s2


def empirical_mean_count(
    observer: str,
    radii: Sequence[float],
    cell: CellGeometry,
    theta_first: float,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> list[MeanCountPoint]:
    """Mean number of qualified relays within each radius of an observer.

    ``observer`` is ``"bs"`` (the cell center) or ``"dest"``. For each
    radius ``r`` of the strictly increasing grid, averages the count of
    qualified relays at distance <= ``r`` over fresh realizations. Draw
    order per trial: count, radii, angles, first-hop gains (no second-hop
    draws are consumed).
    """
    if observer not in OBSERVERS:
        raise ValueError(f"observer must be one of {OBSERVERS}, got {observer!r}")
    grid = tuple(float(r) for r in radii)
    if not grid:
        raise ValueError("radii grid must be nonempty")
    upper = cell.cell_radius + cell.dest_distance
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("radii must be strictly increasing")
    if grid[0] < 0 or grid[-1] > upper * (1.0 + 1e-12):
        raise ValueError(f"radii must lie within [0, {upper}]")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")
    args = (observer, cell, theta_first, grid, seed)
    parts = _run_blocks(_mean_count_block, args, trials, workers)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    out = []
    for i, r in enumerate(grid):
        mean = s1[i] / trials
        if trials > 1:
            var = (s2[i] - s1[i] * s1[i] / trials) / (trials - 1)
            stderr = math.sqrt(max(var, 0.0) / trials)
        else:
            stderr = 0.0
        out.append(MeanCountPoint(r, float(mean), float(stderr)))
    return out


def kth_nearest_qualified_distances(
    cell: CellGeometry, theta_first: float, k_max: int, trials: int, seed: int
) -> np.ndarray:
    """Sampled distances from the destination to its k-th nearest qualified
    relay, for ``k = 1 .. k_max``.

    Returns an array of shape ``(trials, k_max)``; entries where fewer than
    ``k`` relays qualified are ``inf`` (the distance distribution is
    defective). Same draw order as :func:`empirical_mean_count`.
    """
    if not (isinstance(k_max, int) and k_max >= 1):
        raise ValueError("k_max must be an integer >= 1")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")
    out = np.full((trials, k_max), np.inf)
    for t in range(trials):
        radii, angles = _qualified_field(cell, theta_first, trial_rng(seed, t))
        d = np.sort(np.sqrt(sq_dists_to_dest(radii, angles, cell.dest_distance)))
        take = min(k_max, d.size)
        out[t, :take] = d[:take]
    return out
