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


def _qualified_field(cell: CellGeometry, theta_first: float, rng: np.random.Generator):
    """Sample a relay field and thin it to the relays that decoded the
    source broadcast; returns their ``(radii, angles)`` in input order.

    A relay at source distance ``r`` is kept iff a fresh Exp(1) gain ``g``
    satisfies ``g >= theta_first * (1 + r**alpha)``, so the survivors are an
    independent thinning with keep probability
    ``exp(-theta_first (1 + r**alpha))`` at radius ``r``.
    """
    radii, angles = sample_field(cell, rng)
    gains = rng.standard_exponential(radii.size)
    alpha = cell.path_loss_exponent
    rpow = radii * radii if alpha == 2.0 else radii**alpha
    keep = gains >= theta_first * (1.0 + rpow)
    return radii[keep], angles[keep]


def _link_trial(cell: CellGeometry, thresholds: Thresholds, rng: np.random.Generator):
    """Common first phase of a trial: qualified field and per-relay
    second-hop outcomes. Returns (squared dest distances, success flags),
    or ``(None, None)`` when no relay qualified."""
    radii, angles = _qualified_field(cell, thresholds.theta_first, rng)
    if radii.size == 0:
        return None, None
    d2 = sq_dists_to_dest(radii, angles, cell.dest_distance)
    gains = rng.standard_exponential(radii.size)
    alpha = cell.path_loss_exponent
    dpow = d2 if alpha == 2.0 else d2 ** (0.5 * alpha)
    return d2, gains >= thresholds.theta_second * (1.0 + dpow)


def trial_exact_csi(cell: CellGeometry, thresholds: Thresholds, rng: np.random.Generator) -> bool:
    """One trial under full channel knowledge (single-relay frame); returns
    whether it is an outage.

    The frame succeeds iff some relay passes both the first-hop test and an
    independent second-hop test; gains on the two hops of one relay and
    across relays are independent.
    """
    _, succ = _link_trial(cell, thresholds, rng)
    return succ is None or not succ.any()


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
    d2, succ = _link_trial(cell, thresholds, rng)
    if d2 is None:
        return True
    selected = np.argsort(d2, kind="stable")[:k]
    return not succ[selected].any()


def _outage_block(
    strategy: str,
    cell: CellGeometry,
    thresholds: Thresholds,
    k: int,
    seed: int,
    start: int,
    stop: int,
) -> int:
    count = 0
    for t in range(start, stop):
        rng = trial_rng(seed, t)
        if strategy == "exact":
            count += trial_exact_csi(cell, thresholds, rng)
        else:
            count += trial_stat_csi(cell, thresholds, k, rng)
    return count


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
    bit-identical for any worker count.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")
    if strategy == "exact" and radio.num_relays != 1:
        raise ValueError("the exact-knowledge strategy is defined for num_relays == 1")
    thresholds = compute_thresholds(radio, first_hop)
    args = (strategy, cell, thresholds, radio.num_relays, seed)
    total = sum(_run_blocks(_outage_block, args, trials, workers))
    estimate = OutageEstimate.from_counts(total, trials)
    if estimate.below_resolution:
        log.info(
            "no outage in %d trials (%s): estimate below resolution %.1e",
            trials,
            strategy,
            1.0 / trials,
        )
    return estimate


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
