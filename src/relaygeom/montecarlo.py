"""Monte Carlo outage trials for both relay-knowledge regimes.

Reproducibility contract
------------------------
Trial ``t`` of a run seeded with ``s`` draws from its own counter-based
stream, ``Generator(Philox(key=s, counter=[0, 0, 0, t]))``; streams of
distinct trials never overlap and do not depend on scheduling, so every
sampler's output is bit-identical for any worker count. A sampler builds one
generator per range of trials and moves it onto each trial's stream by
resetting its Philox state (:func:`_enter_trial`), which :func:`trial_rng`
uses too: the reset generator draws exactly what a fresh ``trial_rng(s, t)``
draws.

Every sampler draws a trial in :func:`_draw`, in one fixed order: the field
as drawn by :func:`relaygeom.geometry.sample_field`, which owns that part of
the order (relay count, all radii, all angles), then a first-hop fading gain
for every relay, then a second-hop gain for every relay qualified under the
run's loosest first-hop threshold, in input order. That union holds every
row's qualified relays, and ``standard_exponential(n)`` returns the first
``n`` values of ``standard_exponential(N)`` on the same stream, so a row with
``J`` qualified relays reads exactly the gains it would draw alone: both
strategies and every row of :func:`estimate_outage_grid` share realizations
and channels draw for draw. The distance samplers
(:func:`empirical_mean_count`, :func:`kth_nearest_qualified_distances`) draw
at their one threshold and ignore the second-hop gains, the last draws of a
trial, so trial ``t`` shows them the qualified relays the outage grid's
loosest row sees.

Trials are drawn one by one and handed on in blocks of up to
:data:`_BLOCK_TRIALS` (:func:`_blocks`). A block lists the per-trial relay
counts, then the qualified relays of its trials concatenated, grouped by
trial in input order: source distances, squared destination distances (one
distance computation per block), second-hop gains, and the first-hop gains
and losses when some row is tighter than the loosest (:func:`_block`). The
outage grid decides every row on a block with array operations
(:func:`_decide`); the mean-count sampler counts the relays within each
radius for both observers without sorting; the k-th nearest sampler sorts
each trial's slice in place. Each result reads only its own trial's relays,
so none depends on the block size. Worker processes take contiguous ranges
of trials (:func:`_run_blocks`); parts combine by integer sums or in range
order.
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


#: Trials decided together. The counts do not depend on it, so it is sized
#: for memory: a block holds the qualified relays of this many trials (up to
#: ~630 each on the default cell) and the decision's temporaries over them.
_BLOCK_TRIALS = 16


def _enter_trial(rng: np.random.Generator, seed: int, trial_index: int) -> np.random.Generator:
    """Move the Philox generator ``rng`` onto the start of trial
    ``trial_index``'s stream and return it: counter ``[0, 0, 0, t]``, key
    ``seed mod 2**128`` as two little-endian 64-bit words, nothing buffered.
    This is the one definition of a trial's stream."""
    if trial_index < 0:
        raise ValueError("trial_index must be >= 0")
    high, low = divmod(int(seed) % (1 << 128), 1 << 64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, int(trial_index)], "key": [low, high]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _philox() -> np.random.Generator:
    """A Philox generator to be placed by :func:`_enter_trial`."""
    return np.random.Generator(np.random.Philox(key=0))


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one trial, on a generator
    of its own."""
    return _enter_trial(_philox(), seed, trial_index)


def _resolve_workers(workers: int | None) -> int:
    name = "workers"
    if workers is None:
        name, text = THREADS_ENV, os.environ.get(THREADS_ENV)
        try:
            workers = int(text) if text else 1
        except ValueError:
            workers = text
    if not (isinstance(workers, int) and workers >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {workers!r}")
    return workers


def _usable_cpus() -> int:
    """CPUs this process may run on, the upper bound on worker processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_theta_first(theta_first: float) -> None:
    if not (math.isfinite(theta_first) and theta_first >= 0):
        raise ValueError(f"theta_first must be finite and >= 0, got {theta_first!r}")


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


def _draw(cell: CellGeometry, plan: _Plan, rng: np.random.Generator) -> tuple:
    """One trial's draws, reduced to the relays qualified under the loosest
    row: their ``(radii, angles, second-hop gains)`` in input order, plus
    their first-hop gains and losses when some row is tighter.

    A relay at source distance ``r`` decodes the source broadcast at
    threshold ``theta`` iff its Exp(1) gain ``g`` satisfies
    ``g >= theta * (1 + r**alpha)``. The loosest row's qualified set is the
    union of every row's, because ``fl(theta * x)`` does not decrease in
    ``theta``.
    """
    radii, angles = sample_field(cell, rng)
    gains = rng.standard_exponential(radii.size)
    alpha = cell.path_loss_exponent
    loss = 1.0 + (radii * radii if alpha == 2.0 else radii**alpha)
    keep = gains >= plan.theta_min * loss
    radii = radii[keep]
    drawn = (radii, angles[keep], rng.standard_exponential(radii.size))
    return drawn + (gains[keep], loss[keep]) if plan.nested else drawn


def _block(cell: CellGeometry, draws: Sequence[tuple]) -> tuple:
    """The :func:`_draw` results of consecutive trials as one block:
    ``(sizes, radii, d2, g2, *first)``, the per-trial relay counts, then the
    relays' source distances, squared destination distances and second-hop
    gains (and first-hop gains and losses), concatenated in trial order."""
    sizes = np.fromiter((d[0].size for d in draws), np.intp, len(draws))
    radii, angles, *rest = (np.concatenate(col) for col in zip(*draws))
    return (sizes, radii, sq_dists_to_dest(radii, angles, cell.dest_distance), *rest)


def _blocks(cell: CellGeometry, plan: _Plan, seed: int, start: int, stop: int):
    """Yield trials ``start .. stop - 1`` drawn under ``plan`` as blocks of up
    to :data:`_BLOCK_TRIALS` trials (see :func:`_block`)."""
    rng = _philox()
    for lo in range(start, stop, _BLOCK_TRIALS):
        trials = range(lo, min(lo + _BLOCK_TRIALS, stop))
        yield _block(cell, [_draw(cell, plan, _enter_trial(rng, seed, t)) for t in trials])


def _decide(cell: CellGeometry, plan: _Plan, block: tuple) -> np.ndarray:
    """Outage flags, shape ``(rows, trials)``, of a block of trials.

    ``trial`` names each relay's trial. A row with ``J`` qualified relays in
    a trial takes that trial's first ``J`` second-hop gains, which are the
    gains it would draw on its own. Exact knowledge is an outage iff no
    relay succeeds; distance ranking as in :func:`_ranked_outages`.
    """
    sizes, _, d2, g2, *first = block
    n = sizes.size
    trial = np.repeat(np.arange(n), sizes)
    start = np.cumsum(sizes) - sizes
    alpha = cell.path_loss_exponent
    loss2 = 1.0 + (d2 if alpha == 2.0 else d2 ** (0.5 * alpha))
    subsets = {plan.theta_min: (trial, d2, loss2, g2)}
    out = np.empty((len(plan.rows), n), dtype=bool)
    for i, (theta_first, theta_second, k) in enumerate(plan.rows):
        if theta_first not in subsets:
            gains, loss = first
            sub = (gains >= theta_first * loss).nonzero()[0]
            tid = trial[sub]
            counts = np.bincount(tid, minlength=n)
            # the row's j-th relay of a trial reads that trial's j-th gain
            shift = start - (np.cumsum(counts) - counts)
            subsets[theta_first] = (tid, d2[sub], loss2[sub], g2[np.arange(sub.size) + shift[tid]])
        tid, row_d2, row_loss2, row_g2 = subsets[theta_first]
        succ = row_g2 >= theta_second * row_loss2
        if k:
            out[i] = _ranked_outages(row_d2, succ, tid, n, k)
        else:
            out[i] = np.bincount(tid[succ], minlength=n) == 0
    return out


def _ranked_outages(
    d2: np.ndarray, succ: np.ndarray, trial: np.ndarray, n: int, k: int
) -> np.ndarray:
    """Per trial, whether none of the ``k`` relays nearest to the destination
    succeeds; ``d2``, ``succ`` and ``trial`` list the qualified relays of
    ``n`` trials, grouped by trial in input order.

    Relays rank by ``(d2, position)``, so exact ties go to the earlier relay.
    Some selected relay succeeds iff the first succeeding relay in that
    order, at ``(v, s)``, is among the first ``k``: its rank
    ``#(d2 < v) + #(d2 == v, position < s)`` is below ``k``. No sort needed.
    """
    won = succ.nonzero()[0]
    outage = np.ones(n, dtype=bool)
    if won.size == 0:
        return outage
    won_trial, won_d2 = trial[won], d2[won]
    heads = _run_starts(won_trial).nonzero()[0]
    hit = won_trial[heads]
    v = np.full(n, np.inf)
    v[hit] = np.minimum.reduceat(won_d2, heads)
    v_at = v[trial]
    ahead = d2 < v_at
    tie = (d2 == v_at).nonzero()[0]
    if tie.size > hit.size:
        # some relay ties a winner's distance (each winner ties itself): the
        # earlier relay ranks first, so find each trial's first winner at v
        best = won[won_d2 == v[won_trial]]
        s = np.full(n, d2.size)
        s[hit] = best[_run_starts(trial[best])]
        ahead[tie] = tie < s[trial[tie]]
    outage[hit] = np.bincount(trial[ahead], minlength=n)[hit] >= k
    return outage


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries of the nonempty sorted ``ids`` that begin a run."""
    starts = np.empty(ids.size, dtype=bool)
    starts[0] = True
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


def _trial_outages(cell: CellGeometry, plan: _Plan, rng: np.random.Generator) -> list[bool]:
    """One trial decided for every row of ``plan``: whether each is an outage."""
    return _decide(cell, plan, _block(cell, [_draw(cell, plan, rng)]))[:, 0].tolist()


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
    counts = np.zeros(len(plan.rows), dtype=np.int64)
    for block in _blocks(cell, plan, seed, start, stop):
        counts += _decide(cell, plan, block).sum(axis=1)
    return counts.tolist()


def _run_blocks(block, args: tuple, trials: int, workers: int | None) -> list:
    """Call ``block(*args, start, stop)`` on contiguous trial ranges and
    return the partial results in range order.

    The ranges split ``trials`` evenly over ``min(workers, trials, CPUs)``
    worker processes, where CPUs is :func:`_usable_cpus`, or run in this
    process when that is 1. Each trial owns its stream and callers combine
    the parts by integer sums or in range order, so the combined result does
    not depend on the worker count.
    """
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")
    workers = min(_resolve_workers(workers), trials, _usable_cpus())
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
    row (see :func:`_draw`), so it is drawn once and decided for all rows.
    Worker processes as in :func:`estimate_outage`.
    """
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
    cell: CellGeometry, plan: _Plan, grid: tuple[float, ...], seed: int, start: int, stop: int
):
    """Sums over trials of the per-trial counts within each grid radius and
    of their squares, shape ``(observers, radii)`` each.

    A relay at distance ``d`` counts at every radius from the first grid
    point ``>= d`` on, so a per-trial histogram of that index, accumulated
    along the grid, gives the counts without sorting.
    """
    grid_arr = np.asarray(grid)
    bins = grid_arr.size + 1
    s1 = np.zeros((len(OBSERVERS), grid_arr.size), dtype=np.int64)
    s2 = np.zeros_like(s1)
    for sizes, radii, d2, _ in _blocks(cell, plan, seed, start, stop):
        offset = np.repeat(np.arange(sizes.size) * bins, sizes)
        for i, d in enumerate((radii, np.sqrt(d2))):
            first = offset + np.searchsorted(grid_arr, d, side="left")
            hist = np.bincount(first, minlength=sizes.size * bins).reshape(sizes.size, bins)
            counts = hist[:, :-1].cumsum(axis=1)
            s1[i] += counts.sum(axis=0)
            s2[i] += (counts * counts).sum(axis=0)
    return s1, s2


def empirical_mean_count(
    radii: Sequence[float],
    cell: CellGeometry,
    theta_first: float,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> dict[str, list[MeanCountPoint]]:
    """Mean number of qualified relays within each radius of both observers.

    Returns one curve per observer of :data:`OBSERVERS`, keyed by it:
    ``"bs"`` (the cell center) and ``"dest"``. For each radius ``r`` of the
    strictly increasing grid in ``[0, R + r_d]``, averages the count of
    qualified relays at distance <= ``r`` over fresh realizations; both
    curves read the same realizations. Trials are drawn as in the module
    docstring, at the one threshold ``theta_first``; the second-hop gains are
    drawn and ignored. Worker processes as in :func:`estimate_outage`.
    """
    grid = tuple(float(r) for r in radii)
    if not grid:
        raise ValueError("radii grid must be nonempty")
    upper = cell.cell_radius + cell.dest_distance
    # written so that NaN fails both checks
    if not all(0.0 <= r <= upper * (1.0 + 1e-12) for r in grid):
        raise ValueError(f"radii must lie within [0, {upper}]")
    if not all(a < b for a, b in zip(grid, grid[1:])):
        raise ValueError("radii must be strictly increasing")
    _check_theta_first(theta_first)
    plan = _Plan.of([_Row(theta_first, 0.0, 0)])
    parts = _run_blocks(_mean_count_block, (cell, plan, grid, seed), trials, workers)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    # one trial has no spread: s2 equals s1 * s1 and the variance is 0
    var = (s2 - s1 * s1 / trials) / max(trials - 1, 1)
    means, stderrs = (s1 / trials).tolist(), np.sqrt(np.maximum(var, 0.0) / trials).tolist()
    return {
        observer: [MeanCountPoint(*point) for point in zip(grid, means[o], stderrs[o])]
        for o, observer in enumerate(OBSERVERS)
    }


def _kth_block(
    cell: CellGeometry, plan: _Plan, k_max: int, seed: int, start: int, stop: int
) -> np.ndarray:
    out = np.full((stop - start, k_max), np.inf)
    ranks = np.arange(k_max)
    row = 0
    for sizes, _, d2, _ in _blocks(cell, plan, seed, start, stop):
        d = np.sqrt(d2)
        ends = np.cumsum(sizes)
        begins = ends - sizes
        for a, b in zip(begins.tolist(), ends.tolist()):
            d[a:b].sort()
        present = ranks < sizes[:, None]
        out[row : row + sizes.size][present] = d[(begins[:, None] + ranks)[present]]
        row += sizes.size
    return out


def kth_nearest_qualified_distances(
    cell: CellGeometry,
    theta_first: float,
    k_max: int,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> np.ndarray:
    """Sampled distances from the destination to its k-th nearest qualified
    relay, for ``k = 1 .. k_max``.

    Returns an array of shape ``(trials, k_max)``; entries where fewer than
    ``k`` relays qualified are ``inf`` (the distance distribution is
    defective). Trials are drawn as in :func:`empirical_mean_count`, so row
    ``t`` lists the nearest relays that the loosest row of an outage grid at
    threshold ``theta_first`` qualifies in trial ``t``. Worker processes as
    in :func:`estimate_outage`.
    """
    if not (isinstance(k_max, int) and k_max >= 1):
        raise ValueError("k_max must be an integer >= 1")
    _check_theta_first(theta_first)
    plan = _Plan.of([_Row(theta_first, 0.0, 0)])
    parts = _run_blocks(_kth_block, (cell, plan, k_max, seed), trials, workers)
    return np.concatenate(parts)
